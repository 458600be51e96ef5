// Tests for the replication agents (TO / PO / WoC) and the instrumented sync
// primitives.
//
// The core property (paper §3.2): for every pair of dependent sync ops (ops
// on the same sync variable), every slave variant replays them in the order
// the master executed them. The harness runs a master variant and S slave
// variants concurrently, each with its own copy of the program state
// (different addresses — the agents must be layout-agnostic, §4.5.1), and
// compares the per-lock acquisition orders.

#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "mvee/agents/agent_fleet.h"
#include "mvee/agents/context.h"
#include "mvee/monitor/mvee.h"
#include "mvee/monitor/native.h"
#include "mvee/sync/primitives.h"
#include "mvee/util/rng.h"
#include "mvee/util/variant_killed.h"
#include "hard_timeout.h"

namespace mvee {
namespace {

// One variant's copy of the test program state: K locks, each protecting a
// log of acquiring tids. Allocated per variant, so addresses differ.
struct VariantProgramState {
  explicit VariantProgramState(size_t lock_count)
      : locks(lock_count), logs(lock_count) {}

  std::vector<SpinLock> locks;
  std::vector<std::vector<uint32_t>> logs;  // guarded by the matching lock
};

struct ReplayHarnessResult {
  std::vector<std::unique_ptr<VariantProgramState>> states;
  bool ok = true;
};

// Runs `threads` threads in every variant; thread t performs `ops` critical
// sections on pseudo-randomly chosen locks (the per-thread choice sequence is
// seeded by tid only, so all variants run the same per-thread program).
ReplayHarnessResult RunReplayHarness(AgentKind kind, uint32_t variants, uint32_t threads,
                                     size_t lock_count, int ops, uint32_t max_threads = 0,
                                     uint32_t tid_offset = 0) {
  AgentConfig config;
  config.num_variants = variants;
  config.max_threads = max_threads == 0 ? threads + tid_offset : max_threads;
  config.buffer_capacity = 1 << 14;
  config.clock_count = 64;  // Small wall: force collisions on purpose.
  config.replay_deadline = std::chrono::milliseconds(20000);

  std::atomic<bool> abort{false};
  AgentControl control;
  control.abort_flag = &abort;

  AgentFleet fleet(kind, config, control);

  ReplayHarnessResult result;
  std::vector<std::unique_ptr<SyncAgent>> agents;
  for (uint32_t v = 0; v < variants; ++v) {
    result.states.push_back(std::make_unique<VariantProgramState>(lock_count));
    agents.push_back(fleet.CreateAgent(v));
  }

  std::vector<std::thread> workers;
  for (uint32_t v = 0; v < variants; ++v) {
    for (uint32_t logical = 0; logical < threads; ++logical) {
      const uint32_t t = logical + tid_offset;
      workers.emplace_back([&, v, t] {
        SyncContext context{agents[v].get(), nullptr, t};
        ScopedSyncContext scoped(&context);
        VariantProgramState& state = *result.states[v];
        Rng rng(1000 + t);  // Same schedule in every variant.
        try {
          for (int i = 0; i < ops; ++i) {
            const size_t lock_index = rng.NextBelow(state.locks.size());
            state.locks[lock_index].Lock();
            state.logs[lock_index].push_back(t);
            state.locks[lock_index].Unlock();
          }
        } catch (const VariantKilled&) {
          result.ok = false;
        }
      });
    }
  }
  for (auto& worker : workers) {
    worker.join();
  }
  return result;
}

// Swept over every recording agent kind.
class AgentReplayTest : public ::testing::TestWithParam<AgentKind> {
 protected:
  AgentKind kind() const { return GetParam(); }
};

TEST_P(AgentReplayTest, SlavesReproducePerLockAcquisitionOrder) {
  const auto result = RunReplayHarness(kind(), /*variants=*/2, /*threads=*/4,
                                       /*lock_count=*/8, /*ops=*/300);
  ASSERT_TRUE(result.ok);
  const auto& master = *result.states[0];
  const auto& slave = *result.states[1];
  for (size_t lock = 0; lock < master.logs.size(); ++lock) {
    EXPECT_EQ(master.logs[lock], slave.logs[lock]) << "lock " << lock;
  }
}

TEST_P(AgentReplayTest, ThreeSlavesAllMatch) {
  const auto result = RunReplayHarness(kind(), /*variants=*/4, /*threads=*/3,
                                       /*lock_count=*/4, /*ops=*/150);
  ASSERT_TRUE(result.ok);
  for (uint32_t v = 1; v < 4; ++v) {
    for (size_t lock = 0; lock < result.states[0]->logs.size(); ++lock) {
      EXPECT_EQ(result.states[0]->logs[lock], result.states[v]->logs[lock])
          << "variant " << v << " lock " << lock;
    }
  }
}

TEST_P(AgentReplayTest, SingleThreadIsTrivial) {
  const auto result = RunReplayHarness(kind(), /*variants=*/2, /*threads=*/1,
                                       /*lock_count=*/2, /*ops=*/100);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.states[0]->logs, result.states[1]->logs);
}

TEST_P(AgentReplayTest, HighContentionSingleLock) {
  const auto result = RunReplayHarness(kind(), /*variants=*/2, /*threads=*/4,
                                       /*lock_count=*/1, /*ops=*/200);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.states[0]->logs[0], result.states[1]->logs[0]);
  EXPECT_EQ(result.states[0]->logs[0].size(), 800u);
}

// The OOB regression the fixed-size pending_[256] arrays used to hit: logical
// tids near the top of a max_threads > 256 config silently overran the
// per-thread scratch (and WoC/PVO's ring array). Eight real threads carry
// tids 292..299 through a 300-thread config.
TEST_P(AgentReplayTest, MaxThreadsBeyond256) {
  const auto result = RunReplayHarness(kind(), /*variants=*/2, /*threads=*/8,
                                       /*lock_count=*/4, /*ops=*/50,
                                       /*max_threads=*/300, /*tid_offset=*/292);
  ASSERT_TRUE(result.ok);
  const auto& master = *result.states[0];
  const auto& slave = *result.states[1];
  for (size_t lock = 0; lock < master.logs.size(); ++lock) {
    EXPECT_EQ(master.logs[lock], slave.logs[lock]) << "lock " << lock;
  }
}

std::string ReplayParamName(const ::testing::TestParamInfo<AgentKind>& info) {
  switch (info.param) {
    case AgentKind::kTotalOrder:
      return "TotalOrder";
    case AgentKind::kPartialOrder:
      return "PartialOrder";
    case AgentKind::kWallOfClocks:
      return "WallOfClocks";
    case AgentKind::kPerVariableOrder:
      return "PerVariableOrder";
    default:
      return "Null";
  }
}

INSTANTIATE_TEST_SUITE_P(AllAgents, AgentReplayTest,
                         ::testing::Values(AgentKind::kTotalOrder, AgentKind::kPartialOrder,
                                           AgentKind::kWallOfClocks,
                                           AgentKind::kPerVariableOrder),
                         ReplayParamName);

TEST(AgentStatsTest, RecordedEqualsReplayedPerSlave) {
  AgentConfig config;
  config.num_variants = 2;
  config.max_threads = 2;
  std::atomic<bool> abort{false};
  AgentControl control;
  control.abort_flag = &abort;
  AgentFleet fleet(AgentKind::kWallOfClocks, config, control);
  auto master = fleet.CreateAgent(0);
  auto slave = fleet.CreateAgent(1);

  int dummy = 0;
  for (int i = 0; i < 10; ++i) {
    master->BeforeSyncOp(0, &dummy);
    master->AfterSyncOp(0, &dummy);
  }
  for (int i = 0; i < 10; ++i) {
    slave->BeforeSyncOp(0, &dummy);
    slave->AfterSyncOp(0, &dummy);
  }
  EXPECT_EQ(fleet.StatsSnapshot().ops_recorded, 10u);
  EXPECT_EQ(fleet.StatsSnapshot().ops_replayed, 10u);
}

// Every (variant, tid) pair owns its own shard. Five variants and tids 16+
// are the pairs that shared a shard under the old fixed 64-shard hash; with
// owner-only (non-atomic RMW) bumps a shared shard would lose counts.
TEST(AgentStatsTest, EveryVariantThreadPairOwnsItsShard) {
  AgentConfig config;
  config.num_variants = 5;
  config.max_threads = 20;
  AgentStats stats(ValidatedAgentConfig(config));
  std::set<const void*> shards;
  for (uint32_t v = 0; v < 5; ++v) {
    for (uint32_t t = 0; t < 20; ++t) {
      shards.insert(&stats.shard(v, t));
    }
  }
  EXPECT_EQ(shards.size(), 100u);

  std::vector<std::thread> owners;
  uint64_t expected = 0;
  for (uint32_t v = 0; v < 5; ++v) {
    for (uint32_t t : {0u, 1u, 16u, 17u, 19u}) {
      const uint64_t bumps = 20000 + v * 100 + t;
      expected += bumps;
      owners.emplace_back([&stats, v, t, bumps] {
        for (uint64_t i = 0; i < bumps; ++i) {
          stats.shard(v, t).ops_replayed.Add();
        }
      });
    }
  }
  for (auto& owner : owners) {
    owner.join();
  }
  EXPECT_EQ(stats.Aggregate().ops_replayed, expected);
}

// End to end through a fleet: five variants, logical tids 16 and 17, every
// thread of every variant running at once.
TEST(AgentStatsTest, FiveVariantFleetCountsExactlyForHighTids) {
  constexpr uint32_t kVariants = 5;
  constexpr int kOps = 3000;
  AgentConfig config;
  config.num_variants = kVariants;
  config.max_threads = 18;
  config.replay_deadline = std::chrono::milliseconds(20000);
  std::atomic<bool> abort{false};
  AgentControl control;
  control.abort_flag = &abort;
  AgentFleet fleet(AgentKind::kWallOfClocks, config, control);
  std::vector<std::unique_ptr<SyncAgent>> agents;
  for (uint32_t v = 0; v < kVariants; ++v) {
    agents.push_back(fleet.CreateAgent(v));
  }
  std::atomic<bool> killed{false};
  std::vector<std::thread> threads;
  for (uint32_t v = 0; v < kVariants; ++v) {
    for (uint32_t tid : {16u, 17u}) {
      threads.emplace_back([&, v, tid] {
        int variable = 0;  // Private per thread: no cross-thread ordering.
        try {
          for (int i = 0; i < kOps; ++i) {
            agents[v]->BeforeSyncOp(tid, &variable);
            agents[v]->AfterSyncOp(tid, &variable);
          }
        } catch (const VariantKilled&) {
          killed.store(true);
        }
      });
    }
  }
  for (auto& thread : threads) {
    thread.join();
  }
  ASSERT_FALSE(killed.load());
  const AgentStatsSnapshot snapshot = fleet.StatsSnapshot();
  EXPECT_EQ(snapshot.ops_recorded, 2u * kOps);
  EXPECT_EQ(snapshot.ops_replayed, (kVariants - 1) * 2u * kOps);
}

// Ticketed total-order replay while every per-thread ring wraps constantly:
// 64-slot rings against 20k ops per thread keep the masters parked on full
// rings (record stalls) while the slaves' sequence ratchet hands each slot
// back. A slave that read a recycled slot, or a master that overwrote an
// unconsumed one, would replay out of order and trip the deadline.
TEST(AgentReplayTest, TicketedTotalOrderSurvivesConstantRingWrap) {
  constexpr uint32_t kThreads = 8;
  constexpr int kOps = 20000;
  HardTimeout timeout(std::chrono::seconds(120),
                      "AgentReplayTest.TicketedTotalOrderSurvivesConstantRingWrap");
  AgentConfig config;
  config.num_variants = 2;
  config.max_threads = kThreads;
  config.buffer_capacity = 64;
  config.replay_deadline = std::chrono::milliseconds(20000);
  std::atomic<bool> abort{false};
  std::atomic<bool> stalled{false};
  AgentControl control;
  control.abort_flag = &abort;
  control.on_stall = [&](const std::string&) {
    stalled.store(true);
    abort.store(true);
  };
  AgentFleet fleet(AgentKind::kTotalOrder, config, control);
  auto master = fleet.CreateAgent(0);
  auto slave = fleet.CreateAgent(1);
  struct alignas(64) PaddedVar {
    int value = 0;
  };
  std::vector<PaddedVar> vars(2 * kThreads);
  std::vector<std::thread> threads;
  for (uint32_t v = 0; v < 2; ++v) {
    SyncAgent* agent = (v == 0 ? master : slave).get();
    for (uint32_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([agent, &vars, v, t] {
        int& variable = vars[v * kThreads + t].value;
        try {
          for (int i = 0; i < kOps; ++i) {
            agent->BeforeSyncOp(t, &variable);
            agent->AfterSyncOp(t, &variable);
          }
        } catch (const VariantKilled&) {
        }
      });
    }
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_FALSE(stalled.load());
  const AgentStatsSnapshot stats = fleet.StatsSnapshot();
  EXPECT_EQ(stats.ops_replayed, uint64_t{kThreads} * kOps);
  // The serialized replay cannot keep pace with eight parallel recorders,
  // so 64 slots fill up: thousands of record stalls per run on a 4-core
  // host.
  EXPECT_GT(stats.record_stalls, 0u);
}

// --- The shared replay wait (replay_wait.h), for every recording kind ---

constexpr AgentKind kRecordingKinds[] = {AgentKind::kTotalOrder, AgentKind::kPartialOrder,
                                         AgentKind::kWallOfClocks, AgentKind::kPerVariableOrder};

// A two-variant, two-thread fleet whose control keeps the last on_stall
// report and carries a live-variant mask.
struct ReplayWaitRig {
  ReplayWaitRig(AgentKind kind, std::chrono::milliseconds deadline) {
    AgentConfig config;
    config.num_variants = 2;
    config.max_threads = 2;
    config.replay_deadline = deadline;
    control.abort_flag = &abort;
    control.live_mask = &live_mask;
    control.on_stall = [this](const std::string& message) { report = message; };
    fleet = std::make_unique<AgentFleet>(kind, config, control);
    master = fleet->CreateAgent(0);
    slave = fleet->CreateAgent(1);
  }

  // Master threads 0 and then 1 record one op each on `var`, so thread 1's
  // entry waits on thread 0's replay: a clock time, a sequence or a
  // predecessor, depending on the kind.
  void RecordThreadsZeroThenOne(const void* var) {
    for (uint32_t tid : {0u, 1u}) {
      master->BeforeSyncOp(tid, var);
      master->AfterSyncOp(tid, var);
    }
  }

  std::atomic<bool> abort{false};
  std::atomic<uint32_t> live_mask{0b11};
  AgentControl control;
  std::string report;
  std::unique_ptr<AgentFleet> fleet;
  std::unique_ptr<SyncAgent> master;
  std::unique_ptr<SyncAgent> slave;
};

TEST(AgentAbortTest, AbortFlagReleasesStalledSlave) {
  for (AgentKind kind : kRecordingKinds) {
    HardTimeout timeout(std::chrono::seconds(30), "AbortFlagReleasesStalledSlave");
    ReplayWaitRig rig(kind, std::chrono::milliseconds(60000));
    std::atomic<bool> killed{false};
    std::thread stalled([&] {
      int dummy = 0;
      try {
        // No master recording: the slave has nothing to replay and must stall.
        rig.slave->BeforeSyncOp(0, &dummy);
      } catch (const VariantKilled&) {
        killed.store(true);
      }
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_FALSE(killed.load()) << AgentKindName(kind);
    rig.abort.store(true);
    stalled.join();
    EXPECT_TRUE(killed.load()) << AgentKindName(kind);
  }
}

// Excision: clearing the variant's live_mask bit unwinds a slave parked on
// an entry's turn, without a stall report.
TEST(AgentAbortTest, ClearedLiveMaskBitUnwindsParkedSlave) {
  for (AgentKind kind : kRecordingKinds) {
    HardTimeout timeout(std::chrono::seconds(30), "ClearedLiveMaskBitUnwindsParkedSlave");
    ReplayWaitRig rig(kind, std::chrono::milliseconds(60000));
    int var = 0;
    rig.RecordThreadsZeroThenOne(&var);
    std::atomic<bool> killed{false};
    std::thread parked([&] {
      try {
        rig.slave->BeforeSyncOp(1, &var);
      } catch (const VariantKilled&) {
        killed.store(true);
      }
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_FALSE(killed.load()) << AgentKindName(kind);
    rig.live_mask.fetch_and(~(uint32_t{1} << 1));
    parked.join();
    EXPECT_TRUE(killed.load()) << AgentKindName(kind);
    EXPECT_EQ(rig.report, "") << AgentKindName(kind);
  }
}

TEST(AgentStallTest, ReplayDeadlineReportsStall) {
  for (AgentKind kind : kRecordingKinds) {
    ReplayWaitRig rig(kind, std::chrono::milliseconds(100));
    int dummy = 0;
    EXPECT_THROW(rig.slave->BeforeSyncOp(0, &dummy), VariantKilled) << AgentKindName(kind);
    EXPECT_NE(rig.report.find("no entry"), std::string::npos) << rig.report;
  }
}

// An entry is present, but its turn never comes: thread 0 never replays the
// op thread 1's entry waits on.
TEST(AgentStallTest, SecondPhaseDeadlineReportsAwaitedTurn) {
  for (AgentKind kind : kRecordingKinds) {
    ReplayWaitRig rig(kind, std::chrono::milliseconds(100));
    int var = 0;
    rig.RecordThreadsZeroThenOne(&var);
    EXPECT_THROW(rig.slave->BeforeSyncOp(1, &var), VariantKilled) << AgentKindName(kind);
    EXPECT_NE(rig.report.find("tid 1)"), std::string::npos) << rig.report;
    EXPECT_EQ(rig.report.find("no entry"), std::string::npos) << rig.report;
    EXPECT_EQ(rig.fleet->StatsSnapshot().replay_stalls, 1u) << AgentKindName(kind);
  }
}

TEST(AgentStallTest, StallReportNamesKind) {
  for (AgentKind kind : kRecordingKinds) {
    ReplayWaitRig rig(kind, std::chrono::milliseconds(100));
    int dummy = 0;
    EXPECT_THROW(rig.slave->BeforeSyncOp(0, &dummy), VariantKilled);
    EXPECT_EQ(rig.report.rfind(std::string(AgentKindName(kind)) + " replay deadline (", 0), 0u)
        << rig.report;
  }
}

// One op that waits in both phases — first for its entry, then for its
// turn — counts one replay stall.
TEST(AgentStallTest, StallCountedOncePerOpAcrossPhases) {
  for (AgentKind kind : kRecordingKinds) {
    HardTimeout timeout(std::chrono::seconds(30), "StallCountedOncePerOpAcrossPhases");
    ReplayWaitRig rig(kind, std::chrono::milliseconds(20000));
    int var = 0;
    std::thread second([&] {
      rig.slave->BeforeSyncOp(1, &var);
      rig.slave->AfterSyncOp(1, &var);
    });
    while (rig.fleet->StatsSnapshot().replay_stalls == 0) {
      std::this_thread::yield();  // Thread 1 waits for its entry.
    }
    rig.RecordThreadsZeroThenOne(&var);
    // Thread 1 now has its entry and waits for thread 0's replay.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    rig.slave->BeforeSyncOp(0, &var);
    rig.slave->AfterSyncOp(0, &var);
    second.join();
    const AgentStatsSnapshot stats = rig.fleet->StatsSnapshot();
    EXPECT_EQ(stats.ops_replayed, 2u) << AgentKindName(kind);
    EXPECT_EQ(stats.replay_stalls, 1u) << AgentKindName(kind);
  }
}

TEST(WallOfClocksTest, AdjacentWordsShareAClock) {
  HashedClockMap map(4096);
  alignas(8) int32_t words[2] = {0, 0};
  EXPECT_EQ(map.ClockOf(&words[0]), map.ClockOf(&words[1]));
}

TEST(WallOfClocksTest, ClockAssignmentIsDeterministic) {
  HashedClockMap map_a(AgentConfig{}.clock_count);
  HashedClockMap map_b(AgentConfig{}.clock_count);
  int x = 0;
  EXPECT_EQ(map_a.ClockOf(&x), map_b.ClockOf(&x));
}

TEST(NullAgentTest, IsPureNoOp) {
  NullAgent* agent = NullAgent::Instance();
  int dummy = 0;
  agent->BeforeSyncOp(0, &dummy);
  agent->AfterSyncOp(0, &dummy);
  EXPECT_STREQ(agent->name(), "null");
}

// --- Instrumented primitives (native, NullAgent) ---

TEST(PrimitivesTest, MutexMutualExclusion) {
  Mutex mutex;
  int counter = 0;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 5000; ++i) {
        LockGuard<Mutex> guard(mutex);
        ++counter;
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(counter, 20000);
}

TEST(PrimitivesTest, SpinLockMutualExclusion) {
  SpinLock lock;
  int counter = 0;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 2000; ++i) {
        lock.Lock();
        ++counter;
        lock.Unlock();
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(counter, 8000);
}

TEST(PrimitivesTest, TicketLockIsFifoUnderSingleThread) {
  TicketLock lock;
  lock.Lock();
  lock.Unlock();
  lock.Lock();
  lock.Unlock();
  SUCCEED();
}

TEST(PrimitivesTest, TicketLockMutualExclusion) {
  TicketLock lock;
  int counter = 0;
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 2000; ++i) {
        lock.Lock();
        ++counter;
        lock.Unlock();
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(counter, 6000);
}

TEST(PrimitivesTest, TryLockContract) {
  Mutex mutex;
  EXPECT_TRUE(mutex.TryLock());
  EXPECT_FALSE(mutex.TryLock());
  mutex.Unlock();
  EXPECT_TRUE(mutex.TryLock());
  mutex.Unlock();
}

// Futex hook whose waits block until the test opens the gate, so a sleeper
// stays registered in the futex word for as long as the test needs.
class GatedFutexHook final : public FutexHook {
 public:
  int64_t FutexWait(const std::atomic<int32_t>* word, int32_t expected) override {
    if (word->load() != expected) {
      return -EAGAIN;
    }
    waiting.store(true);
    while (!open.load()) {
      std::this_thread::yield();
    }
    return 0;
  }
  int64_t FutexWake(const std::atomic<int32_t>*, int32_t) override { return 0; }

  std::atomic<bool> waiting{false};
  std::atomic<bool> open{false};
};

TEST(PrimitivesTest, TryLockTakesUnlockedMutexWithRegisteredSleeper) {
  constexpr int32_t kLocked = 1;
  constexpr int32_t kOneSleeper = 2;
  Mutex mutex;
  mutex.Lock();
  GatedFutexHook hook;
  std::thread sleeper([&] {
    SyncContext context{NullAgent::Instance(), &hook, 1};
    ScopedSyncContext scoped(&context);
    mutex.Lock();
    mutex.Unlock();
  });
  while (!hook.waiting.load()) {
    std::this_thread::yield();
  }
  EXPECT_EQ(mutex.state().raw()->load(), kLocked + kOneSleeper);
  mutex.Unlock();
  EXPECT_EQ(mutex.state().raw()->load(), kOneSleeper);
  EXPECT_TRUE(mutex.TryLock());
  EXPECT_FALSE(mutex.TryLock());
  mutex.Unlock();
  hook.open.store(true);
  sleeper.join();
  EXPECT_EQ(mutex.state().raw()->load(), 0);
}

TEST(PrimitivesTest, BarrierPhases) {
  constexpr int kThreads = 4;
  Barrier barrier(kThreads);
  std::atomic<int> phase_counter{0};
  std::atomic<int> serial_count{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < 10; ++round) {
        phase_counter.fetch_add(1);
        if (barrier.Arrive()) {
          serial_count.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(phase_counter.load(), kThreads * 10);
  EXPECT_EQ(serial_count.load(), 10);  // Exactly one serial thread per phase.
}

TEST(PrimitivesTest, SemaphoreBoundsConcurrency) {
  Semaphore semaphore(2);
  std::atomic<int> active{0};
  std::atomic<int> max_active{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 200; ++i) {
        semaphore.Acquire();
        const int now = active.fetch_add(1) + 1;
        int expected = max_active.load();
        while (now > expected && !max_active.compare_exchange_weak(expected, now)) {
        }
        active.fetch_sub(1);
        semaphore.Release();
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_LE(max_active.load(), 2);
}

TEST(PrimitivesTest, SemaphoreTryAcquire) {
  Semaphore semaphore(1);
  EXPECT_TRUE(semaphore.TryAcquire());
  EXPECT_FALSE(semaphore.TryAcquire());
  semaphore.Release();
  EXPECT_TRUE(semaphore.TryAcquire());
}

TEST(PrimitivesTest, CondVarSignalsWaiter) {
  Mutex mutex;
  CondVar cv;
  bool ready = false;
  std::thread waiter([&] {
    mutex.Lock();
    while (!ready) {
      cv.Wait(mutex);
    }
    mutex.Unlock();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  mutex.Lock();
  ready = true;
  mutex.Unlock();
  cv.Signal();
  waiter.join();
  SUCCEED();
}

TEST(PrimitivesTest, CondVarBroadcastReleasesAll) {
  Mutex mutex;
  CondVar cv;
  bool go = false;
  std::atomic<int> released{0};
  std::vector<std::thread> waiters;
  for (int t = 0; t < 3; ++t) {
    waiters.emplace_back([&] {
      mutex.Lock();
      while (!go) {
        cv.Wait(mutex);
      }
      mutex.Unlock();
      released.fetch_add(1);
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  mutex.Lock();
  go = true;
  mutex.Unlock();
  cv.Broadcast();
  for (auto& waiter : waiters) {
    waiter.join();
  }
  EXPECT_EQ(released.load(), 3);
}

TEST(PrimitivesTest, RwLockAllowsConcurrentReaders) {
  RwLock lock;
  lock.ReadLock();
  lock.ReadLock();  // Second reader does not deadlock.
  lock.ReadUnlock();
  lock.ReadUnlock();
  lock.WriteLock();
  lock.WriteUnlock();
}

TEST(PrimitivesTest, RwLockWriterExcludesReaders) {
  RwLock lock;
  std::atomic<bool> writer_in{false};
  std::atomic<bool> violation{false};
  std::thread writer([&] {
    for (int i = 0; i < 500; ++i) {
      lock.WriteLock();
      writer_in.store(true);
      std::this_thread::yield();
      writer_in.store(false);
      lock.WriteUnlock();
    }
  });
  std::thread reader([&] {
    for (int i = 0; i < 500; ++i) {
      lock.ReadLock();
      if (writer_in.load()) {
        violation.store(true);
      }
      lock.ReadUnlock();
    }
  });
  writer.join();
  reader.join();
  EXPECT_FALSE(violation.load());
}

// Regression: ReadLock used to back off with FetchAdd/FetchSub, briefly
// turning a writer's -1 into 0. A second writer could enter in that window,
// and a WriteUnlock landing in it left -1 with no holder, hanging everyone.
TEST(PrimitivesTest, RwLockTwoWritersTwoReadersStayExclusive) {
  HardTimeout timeout(std::chrono::seconds(60), "PrimitivesTest.RwLockTwoWritersTwoReadersStayExclusive");
  RwLock lock;
  std::atomic<int> writers_in{0};
  std::atomic<int> readers_in{0};
  std::atomic<bool> violation{false};
  std::vector<std::thread> threads;
  for (int w = 0; w < 2; ++w) {
    threads.emplace_back([&] {
      for (int i = 0; i < 2000; ++i) {
        lock.WriteLock();
        if (writers_in.fetch_add(1) != 0 || readers_in.load() != 0) {
          violation.store(true);
        }
        std::this_thread::yield();
        writers_in.fetch_sub(1);
        lock.WriteUnlock();
      }
    });
  }
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&] {
      for (int i = 0; i < 2000; ++i) {
        lock.ReadLock();
        readers_in.fetch_add(1);
        if (writers_in.load() != 0) {
          violation.store(true);
        }
        readers_in.fetch_sub(1);
        lock.ReadUnlock();
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_FALSE(violation.load());
  EXPECT_EQ(lock.state().raw()->load(), 0);
}

TEST(PrimitivesTest, OnceFlagRunsExactlyOnce) {
  OnceFlag once;
  std::atomic<int> runs{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] { once.CallOnce([&] { runs.fetch_add(1); }); });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(runs.load(), 1);
}

TEST(PrimitivesTest, WaitGroupWaitsForAll) {
  WaitGroup group;
  std::atomic<int> done{0};
  group.Add(3);
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      done.fetch_add(1);
      group.Done();
    });
  }
  group.Wait();
  EXPECT_EQ(done.load(), 3);
  for (auto& thread : threads) {
    thread.join();
  }
}

// A recording agent that counts before/after pairing; validates that every
// primitive brackets its atomics correctly.
class CountingAgent final : public SyncAgent {
 public:
  void BeforeSyncOp(uint32_t, const void*) override {
    EXPECT_FALSE(in_op_.exchange(true));
    before_.fetch_add(1);
  }
  void AfterSyncOp(uint32_t, const void*) override {
    EXPECT_TRUE(in_op_.exchange(false));
    after_.fetch_add(1);
  }
  AgentRole role() const override { return AgentRole::kMaster; }
  const char* name() const override { return "counting"; }

  uint64_t before() const { return before_.load(); }
  uint64_t after() const { return after_.load(); }

 private:
  std::atomic<uint64_t> before_{0};
  std::atomic<uint64_t> after_{0};
  std::atomic<bool> in_op_{false};
};

TEST(InstrumentationTest, EveryAtomicIsBracketed) {
  CountingAgent agent;
  SyncContext context{&agent, nullptr, 0};
  ScopedSyncContext scoped(&context);

  Mutex mutex;
  mutex.Lock();
  mutex.Unlock();
  SpinLock spin;
  spin.Lock();
  spin.Unlock();
  Semaphore sem(1);
  sem.Acquire();
  sem.Release();

  EXPECT_GT(agent.before(), 0u);
  EXPECT_EQ(agent.before(), agent.after());
}

TEST(InstrumentationTest, InstrumentedAtomicOps) {
  CountingAgent agent;
  SyncContext context{&agent, nullptr, 0};
  ScopedSyncContext scoped(&context);

  InstrumentedAtomic<int32_t> value(5);
  EXPECT_EQ(value.Load(), 5);
  value.Store(7);
  EXPECT_EQ(value.Exchange(9), 7);
  int32_t expected = 9;
  EXPECT_TRUE(value.CompareExchange(expected, 11));
  expected = 100;
  EXPECT_FALSE(value.CompareExchange(expected, 0));
  EXPECT_EQ(expected, 11);  // Updated with the observed value.
  EXPECT_EQ(value.FetchAdd(3), 11);
  EXPECT_EQ(value.FetchSub(4), 14);
  EXPECT_EQ(value.FetchOr(0x20), 10);
  EXPECT_EQ(value.Load(), 0x2a);
  // 9 instrumented ops: Load, Store, Exchange, 2x CompareExchange, FetchAdd,
  // FetchSub, FetchOr, Load.
  EXPECT_EQ(agent.before(), 9u);
  EXPECT_EQ(agent.before(), agent.after());
}

// --- Per-variable-order address table ---

TEST(PerVariableTableTest, DistinctVariablesGetDistinctClocks) {
  ExactClockMap map(/*clock_count=*/1024);  // Table capacity = 8192 slots.

  std::vector<int64_t> variables(500);
  std::set<uint32_t> clocks;
  for (const auto& v : variables) {
    clocks.insert(map.ClockOf(&v));
  }
  // int64_t variables occupy distinct 8-byte buckets, so each must get its
  // own clock: the collision-free property WoC gives up by hashing.
  EXPECT_EQ(clocks.size(), variables.size());
  EXPECT_EQ(map.VariablesMapped(), variables.size());
  EXPECT_EQ(map.TableOverflows(), 0u);
}

TEST(PerVariableTableTest, SameVariableAlwaysSameClock) {
  ExactClockMap map(AgentConfig{}.clock_count);

  int64_t variable = 0;
  const uint32_t first = map.ClockOf(&variable);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(map.ClockOf(&variable), first);
  }
  EXPECT_EQ(map.VariablesMapped(), 1u);
}

TEST(PerVariableTableTest, AdjacentWordsShareAnEightByteBucket) {
  ExactClockMap map(AgentConfig{}.clock_count);

  // Two 32-bit variables in one 64-bit line map to one clock — the paper's
  // deliberate CMPXCHG8B bucketing (§4.5) is preserved in the PVO table.
  alignas(8) int32_t pair[2] = {0, 0};
  EXPECT_EQ(map.ClockOf(&pair[0]), map.ClockOf(&pair[1]));
  EXPECT_EQ(map.VariablesMapped(), 1u);
}

TEST(PerVariableTableTest, SaturatedTableDegradesToSharedClocks) {
  ExactClockMap map(/*clock_count=*/1);  // Table capacity clamps to 8 slots.
  ASSERT_EQ(map.clock_count(), 8u);

  std::vector<int64_t> variables(64);
  for (const auto& v : variables) {
    const uint32_t clock = map.ClockOf(&v);
    EXPECT_LT(clock, map.clock_count());
  }
  // More variables than slots: the table must have overflowed, and the
  // fallback keeps returning valid (shared) clock ids rather than failing.
  EXPECT_GT(map.TableOverflows(), 0u);
  EXPECT_LE(map.VariablesMapped(), map.clock_count());
}

TEST(PerVariableTableTest, OverflowCountsVariablesNotLookups) {
  ExactClockMap map(/*clock_count=*/1);  // Table capacity clamps to 8 slots.

  // Fill the table, then find one address that overflows.
  std::vector<int64_t> variables(64);
  const int64_t* overflowed = nullptr;
  for (const auto& v : variables) {
    const uint64_t before = map.TableOverflows();
    map.ClockOf(&v);
    if (map.TableOverflows() > before) {
      overflowed = &v;
      break;
    }
  }
  ASSERT_NE(overflowed, nullptr);

  // Hammering the same saturated variable must not inflate the counter: it
  // reports variables, not calls (the old behaviour counted every lookup).
  const uint64_t after_first = map.TableOverflows();
  const uint32_t clock = map.ClockOf(overflowed);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(map.ClockOf(overflowed), clock);
  }
  EXPECT_EQ(map.TableOverflows(), after_first);
}

TEST(PerVariableTableTest, HugeClockCountClampsInsteadOfOverflowing) {
  // Small sizes behave as before: next power of two >= 8x clocks.
  EXPECT_EQ(ExactClockMap::TableCapacityFor(1), 8u);
  EXPECT_EQ(ExactClockMap::TableCapacityFor(1024), 8192u);
  EXPECT_EQ(ExactClockMap::TableCapacityFor(1000), 8192u);
  // clock_count * 8 would wrap size_t here; the capacity must clamp to the
  // max table size (a power of two), not wrap to a tiny table with an
  // all-wrong mask (and NextPow2 must not loop forever on it).
  const size_t huge = ExactClockMap::TableCapacityFor(SIZE_MAX / 2);
  ASSERT_GT(huge, 0u);
  EXPECT_EQ(huge & (huge - 1), 0u);
  EXPECT_EQ(huge, ExactClockMap::TableCapacityFor(SIZE_MAX));
  EXPECT_LE(huge, size_t{1} << 28);
}

// --- Ticketed recording (docs/DESIGN.md §8) ---

TEST(ShardedRecordingTest, TicketCounterMatchesOpsRecorded) {
  AgentConfig config;
  config.num_variants = 2;
  config.max_threads = 2;
  std::atomic<bool> abort{false};
  AgentControl control;
  control.abort_flag = &abort;

  TotalOrderRuntime to_runtime(config, control);
  auto to_master = to_runtime.CreateAgent(0);
  auto to_slave = to_runtime.CreateAgent(1);
  int var_a = 0;
  int var_b = 0;
  for (int i = 0; i < 10; ++i) {
    to_master->BeforeSyncOp(0, &var_a);
    to_master->AfterSyncOp(0, &var_a);
    to_master->BeforeSyncOp(1, &var_b);
    to_master->AfterSyncOp(1, &var_b);
  }
  // Every recorded op drew exactly one ticket; sequences are dense.
  EXPECT_EQ(to_runtime.SequencesIssued(), 20u);
  EXPECT_EQ(to_runtime.OpsRecorded(), 20u);
  // Replay drains both per-thread rings in ticket order.
  for (int i = 0; i < 10; ++i) {
    to_slave->BeforeSyncOp(0, &var_a);
    to_slave->AfterSyncOp(0, &var_a);
    to_slave->BeforeSyncOp(1, &var_b);
    to_slave->AfterSyncOp(1, &var_b);
  }
  EXPECT_EQ(to_runtime.stats().Aggregate().ops_replayed, 20u);

  PartialOrderRuntime po_runtime(config, control);
  auto po_master = po_runtime.CreateAgent(0);
  for (int i = 0; i < 7; ++i) {
    po_master->BeforeSyncOp(0, &var_a);
    po_master->AfterSyncOp(0, &var_a);
  }
  EXPECT_EQ(po_runtime.SequencesIssued(), 7u);
}

// Verdict and program output of a full MVEE run of two workers alternating
// between two mutexes, under TO or PO recording.
std::string RecordingRunResult(AgentKind kind) {
  MveeOptions options;
  options.num_variants = 2;
  options.agent = kind;
  options.enable_aslr = false;
  options.rendezvous_timeout = std::chrono::milliseconds(20000);
  options.agent_config.replay_deadline = std::chrono::milliseconds(20000);
  Mvee mvee(options);
  const Status status = mvee.Run([](VariantEnv& env) {
    auto mutex_a = std::make_shared<Mutex>();
    auto mutex_b = std::make_shared<Mutex>();
    auto counter_a = std::make_shared<int>(0);
    auto counter_b = std::make_shared<int>(0);
    auto worker = [&](int which) {
      return [mutex_a, mutex_b, counter_a, counter_b, which](VariantEnv& wenv) {
        for (int i = 0; i < 40; ++i) {
          if ((i + which) % 2 == 0) {
            LockGuard<Mutex> guard(*mutex_a);
            ++*counter_a;
          } else {
            LockGuard<Mutex> guard(*mutex_b);
            ++*counter_b;
          }
        }
        wenv.Gettid();
      };
    };
    ThreadHandle a = env.Spawn(worker(0));
    ThreadHandle b = env.Spawn(worker(1));
    env.Join(a);
    env.Join(b);
    const int64_t fd = env.Open("recording_sweep", VOpenFlags::kCreate | VOpenFlags::kWrite);
    env.Write(fd, std::to_string(*counter_a) + "," + std::to_string(*counter_b));
    env.Close(fd);
  });
  EXPECT_TRUE(status.ok()) << AgentKindName(kind) << ": " << status.ToString();
  if (!status.ok()) {
    return "<failed>";
  }
  auto file = mvee.kernel().vfs().Open("recording_sweep", false);
  if (file == nullptr) {
    return "<missing>";
  }
  const auto contents = file->Contents();
  return std::string(contents.begin(), contents.end());
}

// A logical tid past max_threads must kill the variant with a reported
// configuration failure, not index past the tid-sized per-thread state
// (the monitor allocates tids from an unbounded counter).
TEST(ShardedRecordingTest, TidBeyondMaxThreadsKillsVariantLoudly) {
  for (AgentKind kind : {AgentKind::kTotalOrder, AgentKind::kPartialOrder,
                         AgentKind::kWallOfClocks, AgentKind::kPerVariableOrder}) {
    AgentConfig config;
    config.num_variants = 2;
    config.max_threads = 2;
    config.buffer_capacity = 1 << 8;
    std::atomic<bool> abort{false};
    std::atomic<bool> reported{false};
    AgentControl control;
    control.abort_flag = &abort;
    control.on_stall = [&](const std::string&) { reported.store(true); };
    AgentFleet fleet(kind, config, control);
    auto master = fleet.CreateAgent(0);
    int var = 0;
    EXPECT_THROW(master->BeforeSyncOp(/*tid=*/2, &var), VariantKilled) << AgentKindName(kind);
    EXPECT_TRUE(reported.load()) << AgentKindName(kind);
  }
}

// A variant count past BroadcastRing's consumer limit must clamp coherently
// everywhere (agent runtimes AND the monitor's variant loop) instead of
// indexing past the runtimes' per-slave state.
TEST(ShardedRecordingTest, ExcessiveVariantCountClampsCoherently) {
  for (AgentKind kind : {AgentKind::kTotalOrder, AgentKind::kPartialOrder}) {
    MveeOptions options;
    options.num_variants = 20;  // > 16 (1 master + kMaxConsumers slaves)
    options.agent = kind;
    options.enable_aslr = false;
    Mvee mvee(options);
    const Status status = mvee.Run([](VariantEnv& env) { env.Gettid(); });
    EXPECT_TRUE(status.ok()) << AgentKindName(kind) << ": " << status.ToString();
  }
}

TEST(ShardedRecordingTest, VerdictAndOutputMatchOracleUnderMvee) {
  for (AgentKind kind : {AgentKind::kTotalOrder, AgentKind::kPartialOrder}) {
    EXPECT_EQ(RecordingRunResult(kind), "40,40") << AgentKindName(kind);
  }
}

// --- Sleeper-counted futex words (docs/DESIGN.md §13) ---

// Runs `cycles` uncontended rounds of every sleeper-counted primitive on one
// thread under a 2-variant MVEE; returns the replicated-trap count.
uint64_t ReplicatedTrapsForUncontendedCycles(int cycles) {
  MveeOptions options;
  options.num_variants = 2;
  options.enable_aslr = false;
  Mvee mvee(options);
  const Status status = mvee.Run([cycles](VariantEnv& env) {
    Mutex mutex;
    CondVar cv;
    Semaphore semaphore(1);
    for (int i = 0; i < cycles; ++i) {
      mutex.Lock();
      cv.Signal();
      cv.Broadcast();
      mutex.Unlock();
      if (mutex.TryLock()) {
        mutex.Unlock();
      }
      semaphore.Release();
      semaphore.Acquire();
      semaphore.Acquire();
      semaphore.Release();
      OnceFlag once;
      once.CallOnce([] {});
      once.CallOnce([] {});
    }
    env.Gettid();
  });
  EXPECT_TRUE(status.ok()) << status.ToString();
  return mvee.report().syscalls.replicated;
}

TEST(SleeperCountedWordsTest, NoSleeperNoTrap) {
  EXPECT_EQ(ReplicatedTrapsForUncontendedCycles(10), ReplicatedTrapsForUncontendedCycles(1000));
}

std::string DigestFile(VirtualKernel& kernel) {
  auto file = kernel.vfs().Open("result/digest", false);
  if (file == nullptr) {
    return "<missing>";
  }
  const auto bytes = file->Contents();
  return std::string(bytes.begin(), bytes.end());
}

void WriteDigest(VariantEnv& env, uint64_t digest) {
  const int64_t fd =
      env.Open("result/digest", VOpenFlags::kWrite | VOpenFlags::kCreate | VOpenFlags::kTruncate);
  env.Write(fd, std::to_string(digest));
  env.Close(fd);
}

// Runs `program` 20 times natively and 20 times under a 2-variant MVEE (a
// new seed each time); every run must be OK and write the same digest. The
// programs' digests do not depend on the schedule, so a mismatch or a hang
// is a lost or misdirected wakeup.
void ExpectSameDigestNativeAndMvee(const std::string& name, const Program& program) {
  HardTimeout timeout(std::chrono::seconds(60), "SleeperCountedWordsTest." + name);
  std::string reference;
  for (uint64_t round = 1; round <= 20; ++round) {
    NativeRunner runner(nullptr, round);
    ASSERT_TRUE(runner.Run(program).ok()) << name << " native round " << round;
    const std::string native = DigestFile(runner.kernel());
    if (reference.empty()) {
      reference = native;
    }
    EXPECT_EQ(native, reference) << name << " native round " << round;

    MveeOptions options;
    options.num_variants = 2;
    options.seed = round;
    options.rendezvous_timeout = std::chrono::milliseconds(60000);
    options.agent_config.replay_deadline = std::chrono::milliseconds(60000);
    Mvee mvee(options);
    const Status status = mvee.Run(program);
    ASSERT_TRUE(status.ok()) << name << " MVEE round " << round << ": " << status.ToString();
    EXPECT_EQ(DigestFile(mvee.kernel()), reference) << name << " MVEE round " << round;
  }
}

// Capacity-1 queue: every push after the first waits for a pop and every pop
// waits for a push, so each item crosses a sleeper on both condvars.
TEST(SleeperCountedWordsTest, CapacityOneQueueTwoProducersTwoConsumers) {
  ExpectSameDigestNativeAndMvee("CapacityOneQueue", [](VariantEnv& env) {
    constexpr uint64_t kItemsPerProducer = 150;
    struct Queue {
      Mutex mutex;
      CondVar not_empty;
      CondVar not_full;
      bool full = false;
      uint64_t slot = 0;
      uint64_t produced = 0;
      uint64_t sum = 0;
      uint64_t popped = 0;
    };
    auto queue = std::make_shared<Queue>();
    std::vector<ThreadHandle> threads;
    for (uint64_t p = 0; p < 2; ++p) {
      threads.push_back(env.Spawn([queue, p](VariantEnv&) {
        for (uint64_t i = 1; i <= kItemsPerProducer; ++i) {
          LockGuard<Mutex> guard(queue->mutex);
          while (queue->full) {
            queue->not_full.Wait(queue->mutex);
          }
          queue->slot = p * 1000 + i;
          queue->full = true;
          queue->not_empty.Signal();
        }
      }));
    }
    for (int c = 0; c < 2; ++c) {
      threads.push_back(env.Spawn([queue](VariantEnv&) {
        for (uint64_t i = 0; i < kItemsPerProducer; ++i) {
          LockGuard<Mutex> guard(queue->mutex);
          while (!queue->full) {
            queue->not_empty.Wait(queue->mutex);
          }
          queue->sum += queue->slot;
          ++queue->popped;
          queue->full = false;
          queue->not_full.Signal();
        }
      }));
    }
    for (ThreadHandle& thread : threads) {
      env.Join(thread);
    }
    WriteDigest(env, queue->sum * 1000003 + queue->popped);
  });
}

// Three waiters register on the condvar (the caller sees them counted under
// the mutex) before one Broadcast must release all of them.
TEST(SleeperCountedWordsTest, BroadcastReleasesThreeSleepers) {
  ExpectSameDigestNativeAndMvee("BroadcastReleasesThreeSleepers", [](VariantEnv& env) {
    constexpr int kWaiters = 3;
    struct State {
      Mutex mutex;
      CondVar cv;
      CondVar all_waiting;
      int waiting = 0;
      bool go = false;
      int released = 0;
    };
    auto state = std::make_shared<State>();
    std::vector<ThreadHandle> threads;
    for (int w = 0; w < kWaiters; ++w) {
      threads.push_back(env.Spawn([state](VariantEnv&) {
        LockGuard<Mutex> guard(state->mutex);
        ++state->waiting;
        state->all_waiting.Signal();
        while (!state->go) {
          state->cv.Wait(state->mutex);
        }
        ++state->released;
      }));
    }
    {
      LockGuard<Mutex> guard(state->mutex);
      while (state->waiting < kWaiters) {
        state->all_waiting.Wait(state->mutex);
      }
      state->go = true;
    }
    state->cv.Broadcast();
    for (ThreadHandle& thread : threads) {
      env.Join(thread);
    }
    WriteDigest(env, static_cast<uint64_t>(state->released));
  });
}

// Four contenders hand one mutex back and forth, half of their acquisitions
// through a TryLock that falls back to Lock.
TEST(SleeperCountedWordsTest, MutexHandoffWithTryLock) {
  ExpectSameDigestNativeAndMvee("MutexHandoffWithTryLock", [](VariantEnv& env) {
    constexpr int kRounds = 300;
    struct State {
      Mutex mutex;
      uint64_t counter = 0;
      uint64_t sum = 0;
    };
    auto state = std::make_shared<State>();
    std::vector<ThreadHandle> threads;
    for (uint64_t t = 0; t < 4; ++t) {
      threads.push_back(env.Spawn([state, t](VariantEnv&) {
        for (int i = 0; i < kRounds; ++i) {
          if (i % 2 != 0 || !state->mutex.TryLock()) {
            state->mutex.Lock();
          }
          ++state->counter;
          state->sum += t + 1;
          state->mutex.Unlock();
        }
      }));
    }
    for (ThreadHandle& thread : threads) {
      env.Join(thread);
    }
    WriteDigest(env, state->counter * 1000003 + state->sum);
  });
}

TEST(PerVariableTableTest, ConcurrentInsertsAgreeOnMapping) {
  ExactClockMap map(/*clock_count=*/2048);

  constexpr size_t kVars = 256;
  std::vector<int64_t> variables(kVars);
  std::vector<std::vector<uint32_t>> seen(4, std::vector<uint32_t>(kVars));
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = 0; i < kVars; ++i) {
        // Threads race to insert the same addresses in different orders.
        const size_t index = (t % 2 == 0) ? i : kVars - 1 - i;
        seen[t][index] = map.ClockOf(&variables[index]);
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  for (int t = 1; t < 4; ++t) {
    EXPECT_EQ(seen[t], seen[0]) << "thread " << t;
  }
  EXPECT_EQ(map.VariablesMapped(), kVars);
}

}  // namespace
}  // namespace mvee
