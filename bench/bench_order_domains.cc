// Ordered-syscall throughput over per-resource ordering domains.
//
// The workload is the §5.5 nginx-style shape reduced to its ordering
// bottleneck: T variant threads, each owning one descriptor, each issuing a
// storm of descriptor-scoped ordered calls (lseek) — the per-fd traffic a
// multi-threaded server generates between accepts. Each descriptor is its
// own ordering domain, so the master threads do not serialize through one
// critical section and each slave replays only its own descriptor's calls;
// only true conflicts serialize (docs/syscall_ordering.md).
//
// Results go to BENCH_order.json. Knobs:
//   MVEE_BENCH_ORDER_THREADS   worker threads per variant   (default 8)
//   MVEE_BENCH_ORDER_VARIANTS  variants                     (default 2)
//   MVEE_BENCH_ORDER_ITERS     ordered calls per thread     (default 2000)
//   MVEE_BENCH_ORDER_REPS      repetitions, best-of kept    (default 3)

#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.h"

namespace {

using namespace mvee;
using mvee::bench::EnvInt;

struct OrderRun {
  uint32_t variants = 0;
  uint32_t threads = 0;
  uint64_t ordered_calls = 0;
  double seconds = 0.0;
  double ordered_per_sec = 0.0;
  uint64_t domains_created = 0;
  uint64_t domains_retired = 0;
  uint64_t domains_reclaimed = 0;
  bool ok = false;
};

// T workers, each: open a private file, hammer it with ordered lseeks, close.
// The opens/closes exercise the fd-namespace domain (and domain teardown);
// the lseek storm is the per-fd steady state being measured.
OrderRun RunOrdered(uint32_t variants, uint32_t threads, int64_t iters) {
  MveeOptions options;
  options.num_variants = variants;
  options.agent = AgentKind::kWallOfClocks;
  options.enable_aslr = false;
  options.rendezvous_timeout = std::chrono::milliseconds(60000);
  options.agent_config.replay_deadline = std::chrono::milliseconds(60000);

  Mvee mvee(options);
  const Status status = mvee.Run([threads, iters](VariantEnv& env) {
    std::vector<ThreadHandle> handles;
    for (uint32_t t = 0; t < threads; ++t) {
      handles.push_back(env.Spawn([t, iters](VariantEnv& wenv) {
        const std::string path = "order_bench_" + std::to_string(t);
        const int64_t fd = wenv.Open(path, VOpenFlags::kCreate | VOpenFlags::kWrite);
        for (int64_t i = 0; i < iters; ++i) {
          wenv.Lseek(fd, (i & 1023), 0 /*SEEK_SET*/);
        }
        wenv.Close(fd);
      }));
    }
    for (auto handle : handles) {
      env.Join(handle);
    }
  });

  const MveeReport& report = mvee.report();
  OrderRun run;
  run.variants = variants;
  run.threads = threads;
  run.ordered_calls = report.syscalls.ordered;
  run.seconds = report.wall_seconds;
  run.ordered_per_sec = run.seconds > 0 ? static_cast<double>(run.ordered_calls) / run.seconds : 0;
  run.domains_created = report.order_domains_created;
  run.domains_retired = report.order_domains_retired;
  run.domains_reclaimed = report.order_domains_reclaimed;
  run.ok = status.ok();
  return run;
}

void WriteOrderJson(const OrderRun& run) {
  const std::string path = mvee::bench::ResolveBenchJsonPath("BENCH_order.json");
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return;
  }
  std::fprintf(file,
               "{\n  \"order\": [\n"
               "    {\"mode\": \"sharded\", \"variants\": %u, \"threads\": %u, "
               "\"ordered_calls\": %llu, \"seconds\": %.4f, \"ordered_per_sec\": %.1f, "
               "\"domains_created\": %llu, \"domains_retired\": %llu, "
               "\"domains_reclaimed\": %llu, \"ok\": %s}\n  ]\n}\n",
               run.variants, run.threads, static_cast<unsigned long long>(run.ordered_calls),
               run.seconds, run.ordered_per_sec,
               static_cast<unsigned long long>(run.domains_created),
               static_cast<unsigned long long>(run.domains_retired),
               static_cast<unsigned long long>(run.domains_reclaimed),
               run.ok ? "true" : "false");
  std::fclose(file);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main() {
  using namespace mvee::bench;

  const auto threads = static_cast<uint32_t>(EnvInt("MVEE_BENCH_ORDER_THREADS", 8));
  const auto variants = static_cast<uint32_t>(EnvInt("MVEE_BENCH_ORDER_VARIANTS", 2));
  const int64_t iters = EnvInt("MVEE_BENCH_ORDER_ITERS", 2000);
  const int64_t reps = EnvInt("MVEE_BENCH_ORDER_REPS", 3);

  PrintHeader("Ordered-syscall throughput over per-resource domains (" +
              std::to_string(variants) + " variants, " + std::to_string(threads) +
              " threads, " + std::to_string(iters) + " lseeks/thread)");

  // Warm-up pass (thread pools, allocator, file cache) kept out of the runs.
  RunOrdered(variants, /*threads=*/2, /*iters=*/200);

  // Best of `reps` runs: on small/oversubscribed hosts a single run is
  // dominated by scheduler noise; the best run is the least-perturbed
  // measurement of the intrinsic cost.
  OrderRun run;
  for (int64_t rep = 0; rep < reps; ++rep) {
    OrderRun attempt = RunOrdered(variants, threads, iters);
    if (!attempt.ok) {
      run = attempt;
      break;
    }
    if (rep == 0 || attempt.ordered_per_sec > run.ordered_per_sec) {
      run = attempt;
    }
  }
  std::printf("  %8.3fs  %10.0f ordered/s  (%llu ordered calls%s, domains %llu/%llu/%llu)\n",
              run.seconds, run.ordered_per_sec,
              static_cast<unsigned long long>(run.ordered_calls), run.ok ? "" : ", FAILED RUN",
              static_cast<unsigned long long>(run.domains_created),
              static_cast<unsigned long long>(run.domains_retired),
              static_cast<unsigned long long>(run.domains_reclaimed));
  WriteOrderJson(run);

  if (!run.ok) {
    std::fprintf(stderr, "FAIL: the measurement run did not complete cleanly\n");
    return 1;
  }
  return 0;
}
