// Micro-benchmarks (google-benchmark) of the hot paths underneath every
// table/figure: per-sync-op record and replay costs of the three agents, the
// broadcast ring, the comparable-argument digest, one lockstep rendezvous
// round, and the instrumented primitives' uncontended fast paths.

#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>

#include "mvee/agents/agent_fleet.h"
#include "mvee/agents/context.h"
#include "mvee/monitor/mvee.h"
#include "mvee/sync/primitives.h"
#include "mvee/syscall/record.h"
#include "mvee/util/spsc_ring.h"

namespace mvee {
namespace {

// --- Agent record path (master side, single thread, no consumers) ---

// `bound` binds the variable first, so the fleet routes its ops through the
// map's migration gate; unbound ops take the ungated default route.
void AgentRecordLoop(benchmark::State& state, AgentKind kind, bool bound) {
  AgentConfig config;
  config.num_variants = 1;  // Recording only.
  config.max_threads = 1;
  std::atomic<bool> abort{false};
  AgentControl control;
  control.abort_flag = &abort;
  AgentFleet fleet(kind, config, control);
  auto agent = fleet.CreateAgent(0);
  int sync_var = 0;
  if (bound) {
    agent->BindVariable("sync_var", &sync_var);
  }
  for (auto _ : state) {
    agent->BeforeSyncOp(0, &sync_var);
    benchmark::DoNotOptimize(sync_var);
    agent->AfterSyncOp(0, &sync_var);
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_AgentRecord(benchmark::State& state, AgentKind kind) {
  AgentRecordLoop(state, kind, /*bound=*/false);
}
BENCHMARK_CAPTURE(BM_AgentRecord, null, AgentKind::kNull);
BENCHMARK_CAPTURE(BM_AgentRecord, total_order, AgentKind::kTotalOrder);
BENCHMARK_CAPTURE(BM_AgentRecord, partial_order, AgentKind::kPartialOrder);
BENCHMARK_CAPTURE(BM_AgentRecord, wall_of_clocks, AgentKind::kWallOfClocks);
BENCHMARK_CAPTURE(BM_AgentRecord, per_variable_order, AgentKind::kPerVariableOrder);

void BM_AgentRecordBound(benchmark::State& state, AgentKind kind) {
  AgentRecordLoop(state, kind, /*bound=*/true);
}
BENCHMARK_CAPTURE(BM_AgentRecordBound, total_order, AgentKind::kTotalOrder);
BENCHMARK_CAPTURE(BM_AgentRecordBound, partial_order, AgentKind::kPartialOrder);
BENCHMARK_CAPTURE(BM_AgentRecordBound, wall_of_clocks, AgentKind::kWallOfClocks);
BENCHMARK_CAPTURE(BM_AgentRecordBound, per_variable_order, AgentKind::kPerVariableOrder);

// --- Record + concurrent replay (one slave) ---

void BM_AgentRecordReplay(benchmark::State& state, AgentKind kind) {
  AgentConfig config;
  config.num_variants = 2;
  config.max_threads = 1;
  config.buffer_capacity = 1 << 12;
  std::atomic<bool> abort{false};
  AgentControl control;
  control.abort_flag = &abort;
  AgentFleet fleet(kind, config, control);
  auto master = fleet.CreateAgent(0);
  auto slave = fleet.CreateAgent(1);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> produced{0};
  std::atomic<uint64_t> consumed{0};
  int sync_var = 0;

  std::thread replayer([&] {
    int slave_var = 0;
    while (!stop.load(std::memory_order_acquire)) {
      if (consumed.load(std::memory_order_relaxed) <
          produced.load(std::memory_order_acquire)) {
        slave->BeforeSyncOp(0, &slave_var);
        slave->AfterSyncOp(0, &slave_var);
        consumed.fetch_add(1, std::memory_order_release);
      }
    }
  });

  for (auto _ : state) {
    master->BeforeSyncOp(0, &sync_var);
    master->AfterSyncOp(0, &sync_var);
    produced.fetch_add(1, std::memory_order_release);
  }
  stop.store(true);
  replayer.join();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_AgentRecordReplay, total_order, AgentKind::kTotalOrder);
BENCHMARK_CAPTURE(BM_AgentRecordReplay, partial_order, AgentKind::kPartialOrder);
BENCHMARK_CAPTURE(BM_AgentRecordReplay, wall_of_clocks, AgentKind::kWallOfClocks);
BENCHMARK_CAPTURE(BM_AgentRecordReplay, per_variable_order, AgentKind::kPerVariableOrder);

// --- Broadcast ring ---

void BM_RingPushPop(benchmark::State& state) {
  BroadcastRing<uint64_t> ring(1 << 12);
  const size_t consumer = ring.RegisterConsumer();
  uint64_t value = 0;
  for (auto _ : state) {
    ring.Push(++value);
    benchmark::DoNotOptimize(ring.Pop(consumer));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RingPushPop);

// --- Syscall argument digest ---

void BM_ComparableDigest(benchmark::State& state) {
  std::vector<uint8_t> payload(static_cast<size_t>(state.range(0)), 0xAB);
  SyscallRequest request;
  request.sysno = Sysno::kWrite;
  request.arg0 = 5;
  request.arg1 = static_cast<int64_t>(payload.size());
  request.in_data = payload;
  for (auto _ : state) {
    benchmark::DoNotOptimize(request.ComparableDigest());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ComparableDigest)->Arg(64)->Arg(512)->Arg(4096);

// What lockstep pays per master/slave pair instead: both deposits' scalar
// digests plus the opener's in-place payload compare.
void BM_LockstepCompare(benchmark::State& state) {
  std::vector<uint8_t> master_payload(static_cast<size_t>(state.range(0)), 0xAB);
  std::vector<uint8_t> slave_payload = master_payload;
  SyscallRequest master;
  master.sysno = Sysno::kWrite;
  master.arg0 = 5;
  master.arg1 = static_cast<int64_t>(master_payload.size());
  master.in_data = master_payload;
  SyscallRequest slave = master;
  slave.in_data = slave_payload;
  for (auto _ : state) {
    benchmark::DoNotOptimize(master.ScalarDigest() == slave.ScalarDigest() &&
                             slave.SamePayload(master));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_LockstepCompare)->Arg(64)->Arg(512)->Arg(4096);

// --- One lockstep round, end to end ---

// 2 variants x 1 thread, each round a 17-byte replicated write (the size
// pipeline_io writes): gather, compare, master execution, publication,
// slave completion and drain. Each benchmark iteration is one Mvee::Run;
// the manual time is variant 0's wall time over the timed writes only, so
// ns_per_round excludes setup, warmup and teardown.
void BM_LockstepRound(benchmark::State& state) {
  const int64_t rounds = state.range(0);
  constexpr int64_t kWarmup = 1000;
  const std::string line = "item 0123456789\n\n";  // 17 bytes
  double total_seconds = 0;
  for (auto _ : state) {
    MveeOptions options;
    options.num_variants = 2;
    Mvee mvee(options);
    std::atomic<int64_t> elapsed_ns{0};
    const Status status = mvee.Run([&](VariantEnv& env) {
      const bool master = env.MveeSelfAware() == 0;
      const int64_t fd =
          env.Open("rounds", VOpenFlags::kWrite | VOpenFlags::kCreate | VOpenFlags::kTruncate);
      for (int64_t i = 0; i < kWarmup; ++i) {
        env.Write(fd, line);
      }
      const auto start = std::chrono::steady_clock::now();
      for (int64_t i = 0; i < rounds; ++i) {
        env.Write(fd, line);
      }
      const auto stop = std::chrono::steady_clock::now();
      if (master) {
        elapsed_ns.store(
            std::chrono::duration_cast<std::chrono::nanoseconds>(stop - start).count());
      }
      env.Close(fd);
    });
    if (!status.ok()) {
      state.SkipWithError(status.ToString().c_str());
      break;
    }
    const double seconds = static_cast<double>(elapsed_ns.load()) * 1e-9;
    total_seconds += seconds;
    state.SetIterationTime(seconds);
  }
  const double total_rounds = static_cast<double>(state.iterations() * rounds);
  state.SetItemsProcessed(state.iterations() * rounds);
  state.counters["ns_per_round"] = total_rounds > 0 ? total_seconds * 1e9 / total_rounds : 0;
}
BENCHMARK(BM_LockstepRound)->Arg(20000)->UseManualTime()->Unit(benchmark::kMillisecond);

// --- Instrumented primitives, uncontended fast paths (NullAgent) ---

void BM_MutexUncontended(benchmark::State& state) {
  Mutex mutex;
  for (auto _ : state) {
    mutex.Lock();
    mutex.Unlock();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MutexUncontended);

void BM_SpinLockUncontended(benchmark::State& state) {
  SpinLock lock;
  for (auto _ : state) {
    lock.Lock();
    lock.Unlock();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpinLockUncontended);

void BM_InstrumentedFetchAdd(benchmark::State& state) {
  InstrumentedAtomic<int64_t> counter{0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(counter.FetchAdd(1));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_InstrumentedFetchAdd);

void BM_RawFetchAddBaseline(benchmark::State& state) {
  std::atomic<int64_t> counter{0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(counter.fetch_add(1, std::memory_order_acq_rel));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RawFetchAddBaseline);

}  // namespace
}  // namespace mvee

BENCHMARK_MAIN();
