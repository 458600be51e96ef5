// Tests for the offline record/replay facility (RecPlay-style, §6): record a
// multi-threaded schedule once, replay a later execution through the same
// schedule, round-trip the trace through serialization.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "mvee/agents/offline_trace.h"
#include "mvee/sync/primitives.h"
#include "mvee/util/rng.h"
#include "mvee/util/variant_killed.h"
#include "hard_timeout.h"

namespace mvee {
namespace {

// Runs `threads` workers with the given agent; thread t executes a seeded
// pseudo-random sequence of critical sections and logs acquisition orders.
std::vector<std::vector<uint32_t>> RunScheduledProgram(SyncAgent* agent, uint32_t threads,
                                                       size_t lock_count, int ops) {
  std::vector<SpinLock> locks(lock_count);
  std::vector<std::vector<uint32_t>> logs(lock_count);
  std::vector<std::thread> workers;
  for (uint32_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      SyncContext context{agent, nullptr, t};
      ScopedSyncContext scoped(&context);
      Rng rng(4000 + t);
      try {
        for (int i = 0; i < ops; ++i) {
          const size_t lock_index = rng.NextBelow(lock_count);
          locks[lock_index].Lock();
          logs[lock_index].push_back(t);
          locks[lock_index].Unlock();
        }
      } catch (const VariantKilled&) {
      }
    });
  }
  for (auto& worker : workers) {
    worker.join();
  }
  return logs;
}

TEST(OfflineTraceTest, RecordThenReplayReproducesSchedule) {
  OfflineRecorderAgent recorder(/*max_threads=*/4, /*clock_count=*/256);
  const auto recorded_logs = RunScheduledProgram(&recorder, 4, 6, 120);
  auto trace = recorder.TakeTrace();
  ASSERT_GT(trace->TotalEvents(), 0u);

  OfflineReplayAgent replayer(trace.get());
  const auto replayed_logs = RunScheduledProgram(&replayer, 4, 6, 120);
  EXPECT_EQ(recorded_logs, replayed_logs);
  EXPECT_EQ(replayer.EventsReplayed(), trace->TotalEvents());
}

TEST(OfflineTraceTest, SerializationRoundTrip) {
  OfflineRecorderAgent recorder(4, 128);
  RunScheduledProgram(&recorder, 3, 4, 50);
  auto trace = recorder.TakeTrace();

  const std::vector<uint8_t> bytes = trace->Serialize();
  auto restored = SyncTrace::Deserialize(bytes);
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->clock_count(), trace->clock_count());
  EXPECT_EQ(restored->TotalEvents(), trace->TotalEvents());
  for (uint32_t t = 0; t < trace->max_threads(); ++t) {
    ASSERT_EQ(restored->ThreadEvents(t).size(), trace->ThreadEvents(t).size());
    for (size_t i = 0; i < trace->ThreadEvents(t).size(); ++i) {
      EXPECT_EQ(restored->ThreadEvents(t)[i].clock_id, trace->ThreadEvents(t)[i].clock_id);
      EXPECT_EQ(restored->ThreadEvents(t)[i].time, trace->ThreadEvents(t)[i].time);
    }
  }
}

TEST(OfflineTraceTest, ReplayFromDeserializedTrace) {
  OfflineRecorderAgent recorder(4, 256);
  const auto recorded_logs = RunScheduledProgram(&recorder, 4, 3, 80);
  const std::vector<uint8_t> bytes = recorder.TakeTrace()->Serialize();

  auto restored = SyncTrace::Deserialize(bytes);
  ASSERT_NE(restored, nullptr);
  OfflineReplayAgent replayer(restored.get());
  const auto replayed_logs = RunScheduledProgram(&replayer, 4, 3, 80);
  EXPECT_EQ(recorded_logs, replayed_logs);
}

TEST(OfflineTraceTest, DeserializeRejectsGarbage) {
  EXPECT_EQ(SyncTrace::Deserialize({}), nullptr);
  EXPECT_EQ(SyncTrace::Deserialize({1, 2, 3, 4}), nullptr);
  std::vector<uint8_t> truncated = [] {
    OfflineRecorderAgent recorder(2, 64);
    RunScheduledProgram(&recorder, 2, 2, 10);
    auto bytes = recorder.TakeTrace()->Serialize();
    bytes.resize(bytes.size() / 2);
    return bytes;
  }();
  EXPECT_EQ(SyncTrace::Deserialize(truncated), nullptr);
}

TEST(OfflineTraceTest, ExhaustedTraceKillsExtraOps) {
  OfflineRecorderAgent recorder(1, 64);
  RunScheduledProgram(&recorder, 1, 1, 5);
  auto trace = recorder.TakeTrace();

  bool stalled = false;
  AgentControl control;
  std::atomic<bool> abort{false};
  control.abort_flag = &abort;
  control.on_stall = [&](const std::string&) { stalled = true; };
  OfflineReplayAgent replayer(trace.get(), control);

  SyncContext context{&replayer, nullptr, 0};
  ScopedSyncContext scoped(&context);
  SpinLock lock;
  // 5 recorded critical sections = 10 events (uncontended CAS + unlock
  // store); replay them, then one extra op must throw.
  for (int i = 0; i < 5; ++i) {
    lock.Lock();
    lock.Unlock();
  }
  EXPECT_THROW(lock.Lock(), VariantKilled);
  EXPECT_TRUE(stalled);
}

// Thread 1's recorded op follows thread 0's on the same lock. A replay in
// which thread 0 skips that op must not park thread 1 forever: the wait ends
// at the default replay deadline with an on_stall report.
TEST(OfflineTraceTest, SkippedPredecessorOpEndsAtReplayDeadline) {
  HardTimeout timeout(AgentConfig{}.replay_deadline * 6,
                      "OfflineTraceTest.SkippedPredecessorOpEndsAtReplayDeadline");
  int lock_word = 0;
  OfflineRecorderAgent recorder(/*max_threads=*/2, /*clock_count=*/64);
  for (uint32_t tid : {0u, 1u}) {
    recorder.BeforeSyncOp(tid, &lock_word);
    recorder.AfterSyncOp(tid, &lock_word);
  }
  auto trace = recorder.TakeTrace();
  ASSERT_EQ(trace->ThreadEvents(1).at(0).time, 1u);

  std::string report;
  std::atomic<bool> abort{false};
  AgentControl control;
  control.abort_flag = &abort;
  control.on_stall = [&](const std::string& message) { report = message; };
  OfflineReplayAgent replayer(trace.get(), control);
  EXPECT_THROW(replayer.BeforeSyncOp(/*tid=*/1, &lock_word), VariantKilled);
  EXPECT_NE(report.find("offline-replayer replay deadline"), std::string::npos) << report;
  EXPECT_EQ(replayer.EventsReplayed(), 0u);
}

TEST(OfflineTraceTest, EmptyTraceSerializationIsStable) {
  SyncTrace trace(8, 32);
  const auto bytes = trace.Serialize();
  auto restored = SyncTrace::Deserialize(bytes);
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->TotalEvents(), 0u);
  EXPECT_EQ(restored->max_threads(), 8u);
}

}  // namespace
}  // namespace mvee
