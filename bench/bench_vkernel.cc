// Virtual-kernel mixed-op throughput (docs/DESIGN.md §7).
//
// The workload drives the virtual kernel directly from 2 variant processes x
// 8 threads (isolating the kernel's own locks from rendezvous cost, the way
// bench_agents_micro's BM_RingPushPop isolates the ring). Each thread runs
// an nginx-style event-loop step against its partner thread:
//
//   - readiness handoff: write one byte into the outgoing pipe, poll the
//     incoming pipe (infinite timeout), read the byte. The poll parks on
//     the pipe's wait queue and is woken by the write itself.
//   - fd/VFS churn: open a per-thread path (path stripe + per-thread handle
//     cache), pread 64 bytes (lock-free leased lookup), lseek, stat, close.
//   - getrandom(64): per-thread-set counted RNG stream.
//   - futex wake on a private word (no waiter): per-shard lock.
//
// Every operation above is one kernel call; ops/second is the sum over all
// threads. Results go to BENCH_vkernel.json. Knobs:
//   MVEE_BENCH_VK_THREADS      worker threads per variant      (default 8)
//   MVEE_BENCH_VK_VARIANTS     variant processes               (default 2)
//   MVEE_BENCH_VK_ITERS        event-loop steps per thread     (default 1200)
//   MVEE_BENCH_VK_REPS         repetitions, best-of kept       (default 3)

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.h"

namespace {

using namespace mvee;
using mvee::bench::EnvInt;

struct VkernelRun {
  uint32_t variants = 0;
  uint32_t threads = 0;
  uint64_t ops = 0;
  double seconds = 0.0;
  double ops_per_sec = 0.0;
  uint64_t waitq_waits = 0;
  uint64_t waitq_wakeups = 0;
};

// One event-loop step for thread `t`: readiness handoff with the partner,
// then the fd/VFS/rng/futex batch. Returns the number of kernel calls made.
uint64_t EventLoopStep(VirtualKernel& kernel, ProcessState& process, uint32_t tid,
                       int32_t out_wfd, int32_t in_rfd, const std::string& blob_path,
                       std::vector<uint8_t>& buffer) {
  uint64_t ops = 0;
  const uint8_t token = 0x5a;

  SyscallRequest write;
  write.sysno = Sysno::kWrite;
  write.arg0 = out_wfd;
  write.in_data = {&token, 1};
  kernel.Execute(process, write);
  ++ops;

  // poll(in_rfd, kIn, infinite): the readiness primitive under test.
  uint8_t poll_payload[5];
  std::memcpy(poll_payload, &in_rfd, sizeof(in_rfd));
  poll_payload[4] = PollEvents::kIn;
  uint8_t revents = 0;
  SyscallRequest poll;
  poll.sysno = Sysno::kPoll;
  poll.arg0 = 1;
  poll.arg1 = -1;
  poll.tid = tid;
  poll.in_data = {poll_payload, sizeof(poll_payload)};
  poll.out_data = {&revents, 1};
  kernel.Execute(process, poll);
  ++ops;

  SyscallRequest read;
  read.sysno = Sysno::kRead;
  read.arg0 = in_rfd;
  read.out_data = {buffer.data(), 1};
  kernel.Execute(process, read);
  ++ops;

  // fd/VFS churn on a per-thread path.
  SyscallRequest open;
  open.sysno = Sysno::kOpen;
  open.path = blob_path;
  open.arg0 = VOpenFlags::kRead;
  const int64_t fd = kernel.Execute(process, open).retval;
  ++ops;
  if (fd >= 0) {
    SyscallRequest pread;
    pread.sysno = Sysno::kPread;
    pread.arg0 = fd;
    pread.arg1 = 0;
    pread.out_data = buffer;
    kernel.Execute(process, pread);
    ++ops;
    SyscallRequest seek;
    seek.sysno = Sysno::kLseek;
    seek.arg0 = fd;
    seek.arg1 = 8;
    seek.arg2 = 0;
    kernel.Execute(process, seek);
    ++ops;
    SyscallRequest close;
    close.sysno = Sysno::kClose;
    close.arg0 = fd;
    kernel.Execute(process, close);
    ++ops;
  }
  SyscallRequest stat;
  stat.sysno = Sysno::kStat;
  stat.path = blob_path;
  kernel.Execute(process, stat);
  ++ops;

  SyscallRequest rng;
  rng.sysno = Sysno::kGetrandom;
  rng.tid = tid;
  rng.out_data = buffer;
  kernel.Execute(process, rng);
  ++ops;

  SyscallRequest wake;
  wake.sysno = Sysno::kFutex;
  wake.arg0 = FutexOp::kWake;
  wake.arg1 = 1;
  wake.local_addr = 0x10000 + tid * 64;
  kernel.Execute(process, wake);
  ++ops;

  return ops;
}

VkernelRun RunMixed(uint32_t variants, uint32_t threads, int64_t iters) {
  VirtualKernel kernel(42);
  std::vector<std::unique_ptr<ProcessState>> processes;
  for (uint32_t v = 0; v < variants; ++v) {
    processes.push_back(std::make_unique<ProcessState>(
        /*pid=*/1000 + static_cast<int32_t>(v), 0x10000 + v * 0x1000000,
        0x100000 + v * 0x1000000));
  }

  // Per-thread blobs + per-pair pipes (threads pair up as t and t^1; an odd
  // thread count leaves the last thread self-paired through its own pipe).
  struct ThreadPlumbing {
    int32_t out_wfd = 0;
    int32_t in_rfd = 0;
    std::string blob;
  };
  std::vector<std::vector<ThreadPlumbing>> plumbing(variants);
  for (uint32_t v = 0; v < variants; ++v) {
    plumbing[v].resize(threads);
    for (uint32_t t = 0; t < threads; ++t) {
      plumbing[v][t].blob = "vk_blob_" + std::to_string(v) + "_" + std::to_string(t);
      kernel.vfs().PutFile(plumbing[v][t].blob, std::vector<uint8_t>(64, 0x42));
    }
    for (uint32_t t = 0; t < threads; t += 2) {
      SyscallRequest pipe;
      pipe.sysno = Sysno::kPipe;
      const int64_t ab = kernel.Execute(*processes[v], pipe).retval;
      const int64_t ba = kernel.Execute(*processes[v], pipe).retval;
      const auto rfd = [](int64_t packed) { return static_cast<int32_t>(packed & 0xffffffff); };
      const auto wfd = [](int64_t packed) { return static_cast<int32_t>(packed >> 32); };
      const uint32_t partner = t + 1 < threads ? t + 1 : t;
      plumbing[v][t].out_wfd = wfd(ab);
      plumbing[v][partner].in_rfd = rfd(ab);
      plumbing[v][partner].out_wfd = wfd(ba);
      plumbing[v][t].in_rfd = rfd(ba);
    }
  }

  std::atomic<uint64_t> total_ops{0};
  std::vector<std::thread> workers;
  const auto start = std::chrono::steady_clock::now();
  for (uint32_t v = 0; v < variants; ++v) {
    for (uint32_t t = 0; t < threads; ++t) {
      workers.emplace_back([&, v, t] {
        ProcessState& process = *processes[v];
        const ThreadPlumbing& pipes = plumbing[v][t];
        const uint32_t tid = v * threads + t;
        std::vector<uint8_t> buffer(64);
        uint64_t ops = 0;
        for (int64_t i = 0; i < iters; ++i) {
          ops += EventLoopStep(kernel, process, tid, pipes.out_wfd, pipes.in_rfd,
                               pipes.blob, buffer);
        }
        total_ops.fetch_add(ops, std::memory_order_relaxed);
      });
    }
  }
  for (auto& worker : workers) {
    worker.join();
  }
  const auto end = std::chrono::steady_clock::now();

  VkernelRun run;
  run.variants = variants;
  run.threads = threads;
  run.ops = total_ops.load();
  run.seconds = std::chrono::duration_cast<std::chrono::duration<double>>(end - start).count();
  run.ops_per_sec = run.seconds > 0 ? static_cast<double>(run.ops) / run.seconds : 0;
  const VKernelStatsSnapshot stats = kernel.stats();
  run.waitq_waits = stats.waitq_waits;
  run.waitq_wakeups = stats.waitq_wakeups;
  return run;
}

void WriteVkernelJson(const VkernelRun& run) {
  const std::string path = mvee::bench::ResolveBenchJsonPath("BENCH_vkernel.json");
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return;
  }
  std::fprintf(file,
               "{\n  \"vkernel_mixed\": [\n"
               "    {\"mode\": \"sharded\", \"variants\": %u, \"threads\": %u, "
               "\"ops\": %llu, \"seconds\": %.4f, \"ops_per_sec\": %.1f, "
               "\"waitq_waits\": %llu, \"waitq_wakeups\": %llu}\n  ]\n}\n",
               run.variants, run.threads, static_cast<unsigned long long>(run.ops),
               run.seconds, run.ops_per_sec, static_cast<unsigned long long>(run.waitq_waits),
               static_cast<unsigned long long>(run.waitq_wakeups));
  std::fclose(file);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main() {
  using namespace mvee::bench;

  const auto threads = static_cast<uint32_t>(EnvInt("MVEE_BENCH_VK_THREADS", 8));
  const auto variants = static_cast<uint32_t>(EnvInt("MVEE_BENCH_VK_VARIANTS", 2));
  const int64_t iters = EnvInt("MVEE_BENCH_VK_ITERS", 1200);
  const int64_t reps = EnvInt("MVEE_BENCH_VK_REPS", 3);

  PrintHeader("Virtual-kernel mixed-op throughput (" + std::to_string(variants) +
              " variant processes, " + std::to_string(threads) + " threads each, " +
              std::to_string(iters) + " event-loop steps/thread)");

  // Warm-up (allocator, file cache) kept out of the measurements.
  RunMixed(variants, /*threads=*/2, /*iters=*/100);

  // Best of `reps`: on small/oversubscribed hosts a single run is dominated
  // by scheduler noise; the best run is the least-perturbed measurement of
  // the kernel's intrinsic cost.
  VkernelRun run;
  for (int64_t rep = 0; rep < reps; ++rep) {
    VkernelRun attempt = RunMixed(variants, threads, iters);
    if (rep == 0 || attempt.ops_per_sec > run.ops_per_sec) {
      run = attempt;
    }
  }
  std::printf("  %8.3fs  %10.0f ops/s  (%llu ops, waitq waits=%llu wakeups=%llu)\n",
              run.seconds, run.ops_per_sec, static_cast<unsigned long long>(run.ops),
              static_cast<unsigned long long>(run.waitq_waits),
              static_cast<unsigned long long>(run.waitq_wakeups));
  WriteVkernelJson(run);

  // Polls must ride wait-queue wakeups, not spin-scan.
  if (run.waitq_wakeups == 0) {
    std::fprintf(stderr, "FAIL: the run recorded no wait-queue wakeups\n");
    return 1;
  }
  return 0;
}
