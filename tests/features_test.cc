// Tests for the extension features: the VARAN-style loose synchronization
// model, disjoint code layouts (DCL), the Andersen points-to alternative,
// the futex FIFO-wake regression, and the monitor's diagnostic dump.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "mvee/analysis/andersen.h"
#include "mvee/analysis/corpus.h"
#include "mvee/analysis/points_to.h"
#include "mvee/analysis/syncop_analysis.h"
#include "mvee/monitor/mvee.h"
#include "mvee/sync/primitives.h"
#include "mvee/vkernel/futex.h"
#include "mvee/workloads/workload.h"

namespace mvee {
namespace {

MveeOptions LooseOptions(uint32_t variants = 2) {
  MveeOptions options;
  options.num_variants = variants;
  options.sync_model = SyncModel::kLoose;
  options.agent = AgentKind::kWallOfClocks;
  options.rendezvous_timeout = std::chrono::milliseconds(30000);
  options.agent_config.replay_deadline = std::chrono::milliseconds(30000);
  return options;
}

std::string FileText(VirtualKernel& kernel, const std::string& path) {
  auto file = kernel.vfs().Open(path, false);
  if (file == nullptr) {
    return "";
  }
  const auto bytes = file->Contents();
  return std::string(bytes.begin(), bytes.end());
}

TEST(LooseModeTest, BasicProgramRuns) {
  Mvee mvee(LooseOptions(2));
  const Status status = mvee.Run([](VariantEnv& env) {
    const int64_t fd = env.Open("loose.txt", VOpenFlags::kWrite | VOpenFlags::kCreate);
    env.Write(fd, std::string("loose mode"));
    env.Close(fd);
  });
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(FileText(mvee.kernel(), "loose.txt"), "loose mode");
}

TEST(LooseModeTest, ReplicationStillWorks) {
  Mvee mvee(LooseOptions(3));
  mvee.kernel().vfs().PutFile("in", {'x', 'y', 'z'});
  std::atomic<int> consistent{0};
  const Status status = mvee.Run([&](VariantEnv& env) {
    const int64_t fd = env.Open("in", VOpenFlags::kRead);
    std::vector<uint8_t> buffer(3);
    if (env.Read(fd, buffer) == 3 && std::string(buffer.begin(), buffer.end()) == "xyz") {
      consistent.fetch_add(1);
    }
    env.Close(fd);
  });
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(consistent.load(), 3);
}

TEST(LooseModeTest, SelfAwareAndCloneWork) {
  Mvee mvee(LooseOptions(2));
  std::atomic<int> sum{0};
  const Status status = mvee.Run([&](VariantEnv& env) {
    sum.fetch_add(static_cast<int>(env.MveeSelfAware()));
    ThreadHandle worker = env.Spawn([](VariantEnv& wenv) { wenv.Gettid(); });
    env.Join(worker);
  });
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(sum.load(), 1);  // 0 + 1.
}

TEST(LooseModeTest, DivergenceStillDetectedAsynchronously) {
  Mvee mvee(LooseOptions(2));
  const Status status = mvee.Run([](VariantEnv& env) {
    const int64_t which = env.MveeSelfAware();
    const int64_t fd = env.Open("o", VOpenFlags::kWrite | VOpenFlags::kCreate);
    env.Write(fd, which == 0 ? std::string("good") : std::string("evil"));
    env.Close(fd);
  });
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kDivergence);
}

TEST(LooseModeTest, LeaderRunsAheadOfFollowers) {
  // With a deep ring, the leader should be able to retire many syscalls
  // before any follower consumes them; the run must still end consistent.
  MveeOptions options = LooseOptions(2);
  options.loose_buffer_depth = 1024;
  Mvee mvee(options);
  const Status status = mvee.Run([](VariantEnv& env) {
    for (int i = 0; i < 200; ++i) {
      env.ClockGettimeNanos();
    }
  });
  EXPECT_TRUE(status.ok()) << status.ToString();
}

// An ordered open with kTruncate truncates the one shared file once, on the
// master's execution; a slave's replay of the open only installs its
// descriptor. The follower here opens long after the leader wrote, so a
// slave-side truncate would wipe the leader's bytes.
void TruncatingOpenKeepsMasterWrites(const MveeOptions& options) {
  Mvee mvee(options);
  mvee.kernel().vfs().PutFile("trunc.txt", {'s', 't', 'a', 'l', 'e', '!', '!'});
  const Status status = mvee.Run([](VariantEnv& env) {
    if (env.MveeSelfAware() != 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    const int64_t fd =
        env.Open("trunc.txt", VOpenFlags::kWrite | VOpenFlags::kCreate | VOpenFlags::kTruncate);
    env.Write(fd, std::string("abc"));
    env.Close(fd);
  });
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(FileText(mvee.kernel(), "trunc.txt"), "abc");
}

TEST(LooseModeTest, SlaveOpenDoesNotRetruncate) {
  TruncatingOpenKeepsMasterWrites(LooseOptions(2));
}

TEST(LockstepOpenTest, SlaveOpenDoesNotRetruncate) {
  MveeOptions options = LooseOptions(2);
  options.sync_model = SyncModel::kLockstep;
  TruncatingOpenKeepsMasterWrites(options);
}

TEST(LooseModeTest, WorkloadUnderLooseModel) {
  const WorkloadConfig* config = FindWorkload("ferret");
  ASSERT_NE(config, nullptr);
  Mvee mvee(LooseOptions(2));
  const Status status = mvee.Run(MakeWorkloadProgram(*config, 0.01));
  EXPECT_TRUE(status.ok()) << status.ToString();
}

TEST(DclTest, VariantBandsAreDisjoint) {
  const DiversityMap v0(0, 42, /*enable_aslr=*/true, /*enable_dcl=*/true);
  const DiversityMap v1(1, 42, true, true);
  const DiversityMap v2(2, 42, true, true);
  // Each band is 64 GiB; the ASLR slide is < 1 GiB, so bands cannot overlap.
  EXPECT_LT(v0.map_base(), v1.map_base());
  EXPECT_LT(v1.map_base(), v2.map_base());
  EXPECT_GT(v1.map_base() - v0.map_base(), (1ULL << 30));
  EXPECT_GT(v2.map_base() - v1.map_base(), (1ULL << 30));
}

TEST(DclTest, MveeRunsWithDclEnabled) {
  MveeOptions options;
  options.num_variants = 2;
  options.enable_aslr = true;
  options.enable_dcl = true;
  options.rendezvous_timeout = std::chrono::milliseconds(30000);
  options.agent_config.replay_deadline = std::chrono::milliseconds(30000);
  Mvee mvee(options);
  std::vector<int64_t> addresses(2, 0);
  std::mutex mutex;
  const Status status = mvee.Run([&](VariantEnv& env) {
    const int64_t which = env.MveeSelfAware();
    const int64_t addr = env.Mmap(4096, VProt::kRead | VProt::kWrite);
    std::lock_guard<std::mutex> lock(mutex);
    addresses[which] = addr;
  });
  EXPECT_TRUE(status.ok()) << status.ToString();
  // Under DCL the two variants' mapping addresses live in disjoint bands.
  EXPECT_GT(std::llabs(addresses[0] - addresses[1]),
            static_cast<long long>(1ULL << 30));
}

// --- Andersen points-to ---

TEST(AndersenTest, SubsetSemanticsKeepPrecision) {
  // p = &x; p = &y; q = &y  — Andersen: pts(q) = {y} only (no alias with x),
  // Steensgaard unifies {x,y}. This is exactly the precision difference the
  // paper describes between SVF and DSA (§4.3.1).
  MirBuilder builder("precision");
  const int32_t x = builder.Object("x");
  const int32_t y = builder.Object("y");
  const int32_t p = builder.Reg();
  const int32_t q = builder.Reg();
  builder.AddrOf(p, x).AddrOf(p, y).AddrOf(q, y);
  const MirModule module = builder.Build();

  AndersenAnalysis andersen(module);
  EXPECT_EQ(andersen.PointsTo(p).size(), 2u);
  EXPECT_EQ(andersen.PointsTo(q).size(), 1u);
  EXPECT_EQ(*andersen.PointsTo(q).begin(), y);

  PointsToAnalysis steensgaard(module);
  EXPECT_EQ(steensgaard.PointsTo(q).size(), 2u);  // Over-approximated.
}

TEST(AndersenTest, CopyChainsPropagate) {
  MirBuilder builder("chain");
  const int32_t x = builder.Object("x");
  const int32_t a = builder.Reg();
  const int32_t b = builder.Reg();
  const int32_t c = builder.Reg();
  builder.AddrOf(a, x).Mov(b, a).Gep(c, b);
  AndersenAnalysis analysis(builder.Build());
  EXPECT_TRUE(analysis.MayAlias(a, c));
  EXPECT_EQ(analysis.PointsTo(c), std::set<int32_t>{x});
}

TEST(AndersenTest, DirectionalityNotSymmetric) {
  // p = q flows q's targets into p, not vice versa.
  MirBuilder builder("dir");
  const int32_t x = builder.Object("x");
  const int32_t y = builder.Object("y");
  const int32_t p = builder.Reg();
  const int32_t q = builder.Reg();
  builder.AddrOf(q, x).Mov(p, q).AddrOf(p, y);
  AndersenAnalysis analysis(builder.Build());
  EXPECT_EQ(analysis.PointsTo(p).size(), 2u);
  EXPECT_EQ(analysis.PointsTo(q).size(), 1u);  // y did NOT flow back into q.
}

TEST(AndersenTest, SyncOpPipelineMatchesTable3) {
  // On the corpus (no unification-confusable structures) both analyses
  // produce the same Table 3 counts.
  for (const auto& spec : Table3Specs()) {
    const MirModule module = BuildSyntheticModule(spec);
    const SyncOpReport report = IdentifySyncOpsAndersen(module);
    EXPECT_EQ(report.type_i.size(), spec.type_i) << spec.module_name;
    EXPECT_EQ(report.type_iii.size(), spec.type_iii) << spec.module_name;
    EXPECT_EQ(report.unmarked_memops, spec.noise_memops) << spec.module_name;
  }
}

TEST(AndersenTest, MorePreciseThanSteensgaardOnUnificationTrap) {
  // A module where one pointer reuses slots for a sync var and a private
  // var: Steensgaard merges them and marks the private store spuriously;
  // Andersen keeps them separate.
  MirBuilder builder("trap");
  const int32_t lock = builder.Object("lock");
  const int32_t priv = builder.Object("private");
  const int32_t reused = builder.Reg();
  const int32_t lock_ptr = builder.Reg();
  const int32_t priv_ptr = builder.Reg();
  builder.AddrOf(lock_ptr, lock).LockRmw(lock_ptr);
  builder.AddrOf(reused, lock).AddrOf(reused, priv);  // Slot reuse.
  builder.AddrOf(priv_ptr, priv).Store(priv_ptr, "private.c:1");
  const MirModule module = builder.Build();

  const SyncOpReport steensgaard = IdentifySyncOps(module);
  const SyncOpReport andersen = IdentifySyncOpsAndersen(module);
  EXPECT_EQ(andersen.type_iii.size(), 0u);     // Private store not marked.
  EXPECT_GE(steensgaard.type_iii.size(), 1u);  // Unification marks it.
}

// --- Futex FIFO-wake regression ---

TEST(FutexFifoTest, LateRegistrantCannotStealEarlierWake) {
  // Regression for the lost-wakeup deadlock found via the streamcluster
  // stand-in: W registers, a wake is issued for it, then a second waiter
  // registers — the second waiter must NOT consume W's wake.
  FutexTable futexes;
  std::atomic<int32_t> word{1};
  std::atomic<bool> first_woke{false};
  std::atomic<bool> second_woke{false};

  std::thread first([&] {
    futexes.Wait(0x1, &word, 1);
    first_woke.store(true);
  });
  while (futexes.WaiterCount() < 1) {
    std::this_thread::yield();
  }
  EXPECT_EQ(futexes.Wake(0x1, 1), 1);  // Targeted at `first`.

  std::thread second([&] {
    futexes.Wait(0x1, &word, 1);
    second_woke.store(true);
  });
  first.join();  // Must complete: its wake cannot be stolen.
  EXPECT_TRUE(first_woke.load());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(second_woke.load());  // No credit left for the latecomer.
  futexes.Wake(0x1, 1);
  second.join();
  EXPECT_TRUE(second_woke.load());
}

TEST(FutexFifoTest, WakeOnEmptyQueueIsLost) {
  // Futex semantics: wakes do not accumulate for future waiters.
  FutexTable futexes;
  EXPECT_EQ(futexes.Wake(0x2, 5), 0);
  std::atomic<int32_t> word{3};
  std::atomic<bool> woke{false};
  std::thread waiter([&] {
    futexes.Wait(0x2, &word, 3);
    woke.store(true);
  });
  while (futexes.WaiterCount() < 1) {
    std::this_thread::yield();
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(woke.load());  // The earlier wake did not linger.
  futexes.Wake(0x2, 1);
  waiter.join();
}

TEST(FutexFifoTest, BarrierStressNoLostWakeups) {
  // Direct stress of the pattern that deadlocked: repeated barrier phases
  // over one futex word.
  Barrier barrier(4);
  std::atomic<int> phases_done{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int phase = 0; phase < 500; ++phase) {
        if (barrier.Arrive()) {
          phases_done.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(phases_done.load(), 500);
}

TEST(DiagnosticsTest, DumpStateListsThreadSets) {
  Mvee mvee(LooseOptions(2));
  mvee.Run([](VariantEnv& env) { env.Stat("nothing"); });
  const std::string dump = mvee.DumpState();
  EXPECT_NE(dump.find("kernel futex waiters"), std::string::npos);
  EXPECT_NE(dump.find("tid=0"), std::string::npos);
}

}  // namespace
}  // namespace mvee
