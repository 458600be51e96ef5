// Figure 4, executed: the paper's worked example of the three replication
// strategies distilled into deterministic tests.
//
// Master history (recorded on its own thread, starting before any slave
// thread runs):
//   m1: enter_sec(&A), leave_sec(&A)      (thread 0, lock A)
//   m2: enter_sec(&B), leave_sec(&B)      (thread 1, lock B)
// Slave schedule: s2 (thread 1) reaches its critical section on B first,
// while s1 (thread 0) has not executed anything yet.
//
//   Figure 4(a) total-order:   s2 MUST STALL — the next sequence in the
//                              recorded total order is thread 0's (the red
//                              bar).
//   Figure 4(b) partial-order: s2 proceeds — its op depends on no earlier
//                              op touching B.
//   Figure 4(c) wall-of-clocks: s2 proceeds — clock cB is at its recorded
//                              time; buffers are per-thread anyway.
//
// The tests run the literal scenario: record the master history, then run
// only s2 and observe whether it completes or hits the replay deadline.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "mvee/agents/agent_fleet.h"
#include "mvee/agents/context.h"
#include "mvee/sync/primitives.h"
#include "mvee/util/variant_killed.h"

namespace mvee {
namespace {

struct Figure4Harness {
  explicit Figure4Harness(AgentKind kind, std::chrono::milliseconds deadline,
                          size_t po_window = 1 << 12) {
    config.num_variants = 2;
    config.max_threads = 2;
    config.replay_deadline = deadline;
    config.po_window = po_window;
    control.abort_flag = &abort_flag;
    control.on_stall = [this](const std::string&) { stalled.store(true); };
    fleet = std::make_unique<AgentFleet>(kind, config, control);
    master = fleet->CreateAgent(0);
    slave = fleet->CreateAgent(1);
  }

  // Records the master history of Figure 4: thread 0 locks/unlocks A, then
  // thread 1 locks/unlocks B. (Each Lock/Unlock is one sync op on the lock
  // word — enter_sec/leave_sec in the figure.)
  void RecordMasterHistory() {
    SyncContext context0{master.get(), nullptr, 0};
    {
      ScopedSyncContext scoped(&context0);
      master_a.Lock();
      master_a.Unlock();
    }
    SyncContext context1{master.get(), nullptr, 1};
    {
      ScopedSyncContext scoped(&context1);
      master_b.Lock();
      master_b.Unlock();
    }
  }

  // The whole scenario: record the master history on its own thread, run s2
  // alone, then s1, then stop the recorder. Returns true if s2 completed,
  // false if it was stalled until the replay deadline.
  //
  // The recorder runs on its own thread because the partial-order master
  // may not record all four ops up front: it enforces po_window against the
  // slave's replayed prefix (GateOnReplayWindow), so with po_window = 1 it
  // parks at the gate right after ticket 0 until s1 replays it. The slaves
  // start once the master has either recorded all four ops or taken a
  // record stall; s1 then drains whatever the master goes on to record, and
  // the abort flag unparks a master still gated after that (its
  // VariantKilled is caught here).
  bool RunScenario() {
    recorder = std::thread([this] {
      try {
        RecordMasterHistory();
      } catch (const VariantKilled&) {
      }
    });
    for (;;) {
      const AgentStatsSnapshot stats = fleet->StatsSnapshot();
      if (stats.ops_recorded >= 4 || stats.record_stalls > 0) {
        break;
      }
      std::this_thread::yield();
    }
    const bool s2_completed = RunSlaveS2Alone();
    RunSlaveS1();
    abort_flag.store(true);
    recorder.join();
    return s2_completed;
  }

  // Runs only slave thread s2 (logical thread 1) attempting its critical
  // section on B. Returns true if it completed, false if it was stalled
  // until the replay deadline.
  bool RunSlaveS2Alone() {
    std::atomic<bool> completed{false};
    std::thread s2([&] {
      SyncContext context{slave.get(), nullptr, 1};
      ScopedSyncContext scoped(&context);
      try {
        slave_b.Lock();
        slave_b.Unlock();
        completed.store(true);
      } catch (const VariantKilled&) {
      }
    });
    s2.join();
    return completed.load();
  }

  // Afterwards, s1 replays thread 0's history (drains the buffers for the
  // strategies where s2 already completed, and releases a gated PO master).
  void RunSlaveS1() {
    std::thread s1([&] {
      SyncContext context{slave.get(), nullptr, 0};
      ScopedSyncContext scoped(&context);
      try {
        slave_a.Lock();
        slave_a.Unlock();
      } catch (const VariantKilled&) {
      }
    });
    s1.join();
  }

  AgentConfig config;
  std::atomic<bool> abort_flag{false};
  std::atomic<bool> stalled{false};
  AgentControl control;
  std::unique_ptr<AgentFleet> fleet;
  std::unique_ptr<SyncAgent> master;
  std::unique_ptr<SyncAgent> slave;
  std::thread recorder;
  // Distinct lock objects per variant: the agents must not rely on shared
  // addresses (§4.5.1). Each lock gets its own cache line — two adjacent
  // 32-bit lock words share an 8-byte clock bucket by design (the CMPXCHG8B
  // rationale, §4.5), which would merge cA and cB and reintroduce the very
  // serialization this test asserts away.
  struct alignas(64) PaddedLock {
    SpinLock lock;
    void Lock() { lock.Lock(); }
    void Unlock() { lock.Unlock(); }
  };
  PaddedLock master_a, master_b;
  PaddedLock slave_a, slave_b;
};

// A partial-order harness whose locks A and B land in distinct record
// shards. A shard collision merges their dependence chains, which is correct
// but reintroduces exactly the serialization the PO tests assert away (the
// same caveat as WoC's clock collisions above), and would fail them about 1
// time in 512. Lock addresses shift run to run, so harnesses are
// re-allocated (keeping the rejects alive in `tries` so the addresses
// actually move) until the two locks provably land in distinct shards.
Figure4Harness* DistinctShardPartialOrderHarness(
    std::vector<std::unique_ptr<Figure4Harness>>& tries, std::chrono::milliseconds deadline,
    size_t po_window) {
  for (int attempt = 0; attempt < 16; ++attempt) {
    tries.push_back(
        std::make_unique<Figure4Harness>(AgentKind::kPartialOrder, deadline, po_window));
    Figure4Harness& candidate = *tries.back();
    // The instrumented sync variable sits at offset 0 of the lock (the
    // InstrumentedAtomic's value is its first member), so the lock address
    // is the recorded address.
    if (PartialOrderRuntime::RecordShardIndex(&candidate.master_a) !=
        PartialOrderRuntime::RecordShardIndex(&candidate.master_b)) {
      return &candidate;
    }
  }
  return nullptr;
}

// The sequence ratchet only admits the globally next ticket, so s2 may not
// run before s1 consumed thread 0's entries.
TEST(Figure4Test, TotalOrderStallsUnrelatedSection) {
  // Short deadline: the expected outcome IS the stall (the figure's red bar);
  // waiting longer would only slow the test down.
  Figure4Harness harness(AgentKind::kTotalOrder, std::chrono::milliseconds(300));
  EXPECT_FALSE(harness.RunScenario())
      << "TO replay must not let s2 run before s1 consumed thread 0's entries";
  EXPECT_TRUE(harness.stalled.load());
}

// s2's entries sit in its own per-thread ring, and its recorded dependence
// edge points at no entry of thread 0.
TEST(Figure4Test, PartialOrderLetsIndependentSectionProceed) {
  std::vector<std::unique_ptr<Figure4Harness>> tries;
  Figure4Harness* harness = DistinctShardPartialOrderHarness(
      tries, std::chrono::milliseconds(20000), /*po_window=*/1 << 12);
  ASSERT_NE(harness, nullptr) << "16 consecutive shard collisions (p ~ 512^-16)";
  EXPECT_TRUE(harness->RunScenario())
      << "PO replay orders only dependent ops; s2's section on B is independent";
  EXPECT_FALSE(harness->stalled.load());
}

// With a lookahead window of 1 the PO master may not record past the oldest
// unreplayed op — thread 0's — so PO degenerates to total-order behaviour
// and stalls s2 exactly like Figure 4(a): the master parks at the window
// gate after ticket 0, so s2's entries are not recorded before s1 has
// replayed thread 0's.
TEST(Figure4Test, PartialOrderWindowOneDegeneratesToTotalOrder) {
  std::vector<std::unique_ptr<Figure4Harness>> tries;
  Figure4Harness* harness = DistinctShardPartialOrderHarness(
      tries, std::chrono::milliseconds(300), /*po_window=*/1);
  ASSERT_NE(harness, nullptr) << "16 consecutive shard collisions (p ~ 512^-16)";
  EXPECT_FALSE(harness->RunScenario());
  EXPECT_TRUE(harness->stalled.load());
}

// A window of 4 is just wide enough for the master to record both of s2's
// entries (the lock CAS, ticket 2, and the unlock store, ticket 3) before
// any op is replayed, so the independent section proceeds again.
TEST(Figure4Test, PartialOrderWindowFourSuffices) {
  std::vector<std::unique_ptr<Figure4Harness>> tries;
  Figure4Harness* harness = DistinctShardPartialOrderHarness(
      tries, std::chrono::milliseconds(20000), /*po_window=*/4);
  ASSERT_NE(harness, nullptr) << "16 consecutive shard collisions (p ~ 512^-16)";
  EXPECT_TRUE(harness->RunScenario());
}

TEST(Figure4Test, WallOfClocksLetsIndependentSectionProceed) {
  Figure4Harness harness(AgentKind::kWallOfClocks, std::chrono::milliseconds(20000));
  EXPECT_TRUE(harness.RunScenario())
      << "WoC: buffer 2 only holds clock-cB entries at their current times";
  EXPECT_FALSE(harness.stalled.load());
}

TEST(Figure4Test, PerVariableOrderLetsIndependentSectionProceed) {
  Figure4Harness harness(AgentKind::kPerVariableOrder, std::chrono::milliseconds(20000));
  EXPECT_TRUE(harness.RunScenario());
  EXPECT_FALSE(harness.stalled.load());
}

// The second half of Figure 4(c): thread m1's third section is protected by
// lock B (clock cB, time 2). Slave thread s1 must wait until s2 has brought
// its local copy of cB to 2 — cross-thread clock waits work.
TEST(Figure4Test, WallOfClocksCrossThreadClockWait) {
  Figure4Harness harness(AgentKind::kWallOfClocks, std::chrono::milliseconds(20000));

  // Master: m1 A-section; m2 B-section; m1 B-section (the t4 event).
  {
    SyncContext context0{harness.master.get(), nullptr, 0};
    ScopedSyncContext scoped(&context0);
    harness.master_a.Lock();
    harness.master_a.Unlock();
  }
  {
    SyncContext context1{harness.master.get(), nullptr, 1};
    ScopedSyncContext scoped(&context1);
    harness.master_b.Lock();
    harness.master_b.Unlock();
  }
  {
    SyncContext context0{harness.master.get(), nullptr, 0};
    ScopedSyncContext scoped(&context0);
    harness.master_b.Lock();
    harness.master_b.Unlock();
  }

  // Slave: s1 runs its whole history (A-section then B-section). Its
  // B-section needs cB == 2, which only s2's replay can provide — so run s1
  // concurrently with a deliberately delayed s2 and require both to finish.
  std::atomic<bool> s1_done{false};
  std::atomic<bool> s2_done{false};
  std::thread s1([&] {
    SyncContext context{harness.slave.get(), nullptr, 0};
    ScopedSyncContext scoped(&context);
    try {
      harness.slave_a.Lock();
      harness.slave_a.Unlock();
      harness.slave_b.Lock();  // Must wait for s2's increments.
      harness.slave_b.Unlock();
      s1_done.store(true);
    } catch (const VariantKilled&) {
    }
  });
  std::thread s2([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));  // The figure's late s2.
    SyncContext context{harness.slave.get(), nullptr, 1};
    ScopedSyncContext scoped(&context);
    try {
      harness.slave_b.Lock();
      harness.slave_b.Unlock();
      s2_done.store(true);
    } catch (const VariantKilled&) {
    }
  });
  s1.join();
  s2.join();
  EXPECT_TRUE(s1_done.load());
  EXPECT_TRUE(s2_done.load());
}

}  // namespace
}  // namespace mvee
