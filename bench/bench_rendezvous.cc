// Lockstep round throughput of the wait-free round slabs (docs/DESIGN.md §6).
//
// The workload is the rendezvous cost in isolation: T threads per variant,
// each hammering replicated 64-byte preads (the class whose round does the
// most work — digest compare, master kernel call, pooled payload publication,
// per-slave copy). Every call is one full gather/execute/drain round, so
// rounds/second == syscalls/second. A round costs a handful of atomic RMWs
// and release/acquire stores, with SpinWait/parked waiting instead of
// condvars.
//
// Results go to BENCH_monitor.json. Knobs:
//   MVEE_BENCH_RDV_THREADS      worker threads per variant     (default 4)
//   MVEE_BENCH_RDV_VARIANTS     variants                       (default 2)
//   MVEE_BENCH_RDV_ITERS        replicated reads per thread    (default 3000)
//   MVEE_BENCH_RDV_REPS         repetitions, best-of kept      (default 3)

#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.h"

namespace {

using namespace mvee;
using mvee::bench::EnvInt;

struct RendezvousRun {
  uint32_t variants = 0;
  uint32_t threads = 0;
  uint64_t rounds = 0;
  double seconds = 0.0;
  double rounds_per_sec = 0.0;
  bool ok = false;
};

// T workers per variant, each reading a private 64-byte file in lockstep
// rounds. Replicated preads take no ordering domain, so what is measured is
// the rendezvous itself, not ordering (that lives in bench_order_domains).
RendezvousRun RunLockstep(uint32_t variants, uint32_t threads, int64_t iters) {
  MveeOptions options;
  options.num_variants = variants;
  options.agent = AgentKind::kWallOfClocks;
  options.enable_aslr = false;
  options.rendezvous_timeout = std::chrono::milliseconds(60000);
  options.agent_config.replay_deadline = std::chrono::milliseconds(60000);

  Mvee mvee(options);
  for (uint32_t t = 0; t < threads; ++t) {
    mvee.kernel().vfs().PutFile("rdv_blob_" + std::to_string(t),
                                std::vector<uint8_t>(64, 0x42));
  }
  const Status status = mvee.Run([threads, iters](VariantEnv& env) {
    std::vector<ThreadHandle> handles;
    for (uint32_t t = 0; t < threads; ++t) {
      handles.push_back(env.Spawn([t, iters](VariantEnv& wenv) {
        std::vector<uint8_t> buffer(64);
        const int64_t fd = wenv.Open("rdv_blob_" + std::to_string(t), VOpenFlags::kRead);
        for (int64_t i = 0; i < iters; ++i) {
          wenv.Pread(fd, 0, buffer);
        }
        wenv.Close(fd);
      }));
    }
    for (auto handle : handles) {
      env.Join(handle);
    }
  });

  const MveeReport& report = mvee.report();
  RendezvousRun run;
  run.variants = variants;
  run.threads = threads;
  run.rounds = report.syscalls.total;
  run.seconds = report.wall_seconds;
  run.rounds_per_sec = run.seconds > 0 ? static_cast<double>(run.rounds) / run.seconds : 0;
  run.ok = status.ok();
  return run;
}

void WriteMonitorJson(const RendezvousRun& run) {
  const std::string path = mvee::bench::ResolveBenchJsonPath("BENCH_monitor.json");
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return;
  }
  std::fprintf(file,
               "{\n  \"rendezvous\": [\n"
               "    {\"mode\": \"slab\", \"variants\": %u, \"threads\": %u, "
               "\"rounds\": %llu, \"seconds\": %.4f, \"rounds_per_sec\": %.1f, "
               "\"ok\": %s}\n  ]\n}\n",
               run.variants, run.threads, static_cast<unsigned long long>(run.rounds),
               run.seconds, run.rounds_per_sec, run.ok ? "true" : "false");
  std::fclose(file);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main() {
  using namespace mvee::bench;

  const auto threads = static_cast<uint32_t>(EnvInt("MVEE_BENCH_RDV_THREADS", 4));
  const auto variants = static_cast<uint32_t>(EnvInt("MVEE_BENCH_RDV_VARIANTS", 2));
  const int64_t iters = EnvInt("MVEE_BENCH_RDV_ITERS", 3000);
  const int64_t reps = EnvInt("MVEE_BENCH_RDV_REPS", 3);

  PrintHeader("Lockstep round throughput: wait-free round slabs (" +
              std::to_string(variants) + " variants, " + std::to_string(threads) +
              " threads, " + std::to_string(iters) + " replicated reads/thread)");

  // Warm-up pass (thread pools, allocator, file cache) kept out of the runs.
  RunLockstep(variants, /*threads=*/2, /*iters=*/200);

  // Best of `reps` runs: on small/oversubscribed hosts a single run is
  // dominated by scheduler noise; the best run is the least-perturbed
  // measurement of the protocol's intrinsic cost.
  RendezvousRun run;
  for (int64_t rep = 0; rep < reps; ++rep) {
    RendezvousRun attempt = RunLockstep(variants, threads, iters);
    if (!attempt.ok) {
      run = attempt;
      break;
    }
    if (rep == 0 || attempt.rounds_per_sec > run.rounds_per_sec) {
      run = attempt;
    }
  }
  std::printf("  slab %8.3fs  %10.0f rounds/s  (%llu rounds%s)\n", run.seconds,
              run.rounds_per_sec, static_cast<unsigned long long>(run.rounds),
              run.ok ? "" : ", FAILED RUN");
  WriteMonitorJson(run);

  if (!run.ok) {
    std::fprintf(stderr, "FAIL: the measurement run did not complete cleanly\n");
    return 1;
  }
  return 0;
}
