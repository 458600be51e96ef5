// Chaos tests for the robustness layer (docs/DESIGN.md §9,
// docs/fault_injection.md): deterministic fault plans, variant excision with
// graceful degradation, the min_survivors floor, and the blocked-call
// watchdog's escalation ladder.
//
// The sweep philosophy: for every fault site, run a real multithreaded
// workload with a seeded fault plan, and assert that (a) the run completes,
// (b) the survivors' externally visible output is byte-identical to a
// fault-free run (verdict equivalence), and (c) the report names the excised
// victim and the failure site.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "mvee/monitor/mvee.h"
#include "mvee/server/http_server.h"
#include "mvee/server/wrk.h"
#include "mvee/sync/primitives.h"
#include "mvee/util/fault_injection.h"
#include "hard_timeout.h"

namespace mvee {
namespace {

MveeOptions ChaosOptions(uint32_t variants, const std::string& plan) {
  MveeOptions options;
  options.num_variants = variants;
  options.agent = AgentKind::kWallOfClocks;
  options.on_variant_failure = VariantFailurePolicy::kExcise;
  options.min_survivors = 2;
  options.fault_plan = plan;
  // Short enough that a missing variant is reaped quickly, long enough that
  // healthy rounds never trip on a loaded CI host.
  options.rendezvous_timeout = std::chrono::milliseconds(2000);
  options.agent_config.replay_deadline = std::chrono::milliseconds(20000);
  options.blocked_call_timeout = std::chrono::milliseconds(20000);
  return options;
}

// The chaos workload: `threads` workers increment a shared counter under an
// instrumented mutex (sync-op traffic for the agents) and make periodic
// syscalls (rendezvous traffic); the main thread joins them and writes the
// final count. Deterministic output: any surviving variant set must produce
// byte-identical result.txt, which is the verdict-equivalence oracle.
Program CounterProgram(uint32_t threads, int iters) {
  return [threads, iters](VariantEnv& env) {
    struct Shared {
      Mutex mutex;
      int64_t counter = 0;
    };
    auto shared = std::make_shared<Shared>();
    std::vector<ThreadHandle> workers;
    for (uint32_t t = 0; t < threads; ++t) {
      workers.push_back(env.Spawn([shared, iters](VariantEnv& wenv) {
        for (int i = 0; i < iters; ++i) {
          {
            LockGuard<Mutex> guard(shared->mutex);
            shared->counter += 1;
          }
          if (i % 4 == 0) {
            wenv.SchedYield();
          }
        }
      }));
    }
    for (ThreadHandle& handle : workers) {
      env.Join(handle);
    }
    const int64_t fd =
        env.Open("result.txt", VOpenFlags::kWrite | VOpenFlags::kCreate);
    env.Write(fd, "count=" + std::to_string(shared->counter) + "\n");
    env.Close(fd);
  };
}

std::string FileText(VirtualKernel& kernel, const std::string& path) {
  auto file = kernel.vfs().Open(path, /*create=*/false);
  if (file == nullptr) {
    return "";
  }
  auto bytes = file->Contents();
  return std::string(bytes.begin(), bytes.end());
}

// Reference output of a fault-free run with the same shape.
std::string FaultFreeReference(MveeOptions options, uint32_t threads, int iters) {
  options.fault_plan.clear();
  Mvee mvee(options);
  const Status status = mvee.Run(CounterProgram(threads, iters));
  EXPECT_TRUE(status.ok()) << "fault-free reference failed: " << status.ToString();
  return FileText(mvee.kernel(), "result.txt");
}

// --- Plan parsing ------------------------------------------------------------

TEST(FaultPlanTest, ParsesEntries) {
  FaultPlan plan;
  std::string error;
  ASSERT_TRUE(
      FaultPlan::Parse("crash@2:5;stall@*:3:250;drop-futex-wake:1", &plan, &error))
      << error;
  ASSERT_EQ(plan.entries.size(), 3u);
  EXPECT_EQ(plan.entries[0].site, FaultSite::kCrashAtSyscall);
  EXPECT_EQ(plan.entries[0].variant, 2u);
  EXPECT_EQ(plan.entries[0].nth, 5u);
  EXPECT_EQ(plan.entries[1].site, FaultSite::kStallArrival);
  EXPECT_EQ(plan.entries[1].variant, kFaultSeededVariant);
  EXPECT_EQ(plan.entries[1].param, 250u);
  EXPECT_EQ(plan.entries[2].site, FaultSite::kDropFutexWake);
  EXPECT_EQ(plan.entries[2].variant, kFaultAnyVariant);
}

TEST(FaultPlanTest, RejectsMalformedPlans) {
  FaultPlan plan;
  std::string error;
  EXPECT_FALSE(FaultPlan::Parse("explode@1:1", &plan, &error));
  EXPECT_FALSE(FaultPlan::Parse("crash", &plan, &error));
  EXPECT_FALSE(FaultPlan::Parse("crash@1:zero", &plan, &error));
}

TEST(FaultPlanTest, BadPlanFailsTheRunUpFront) {
  MveeOptions options = ChaosOptions(2, "no-such-site:1");
  Mvee mvee(options);
  const Status status = mvee.Run([](VariantEnv& env) { env.Gettid(); });
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(FaultInjectorTest, SeededVictimIsNeverTheMaster) {
  FaultPlan plan;
  std::string error;
  ASSERT_TRUE(FaultPlan::Parse("crash@*:1", &plan, &error)) << error;
  for (uint64_t seed = 0; seed < 64; ++seed) {
    FaultInjector injector;
    ASSERT_TRUE(injector.Arm(plan, /*num_variants=*/4, seed));
    const uint32_t victim = injector.ResolvedVictim(FaultSite::kCrashAtSyscall);
    EXPECT_GE(victim, 1u);
    EXPECT_LT(victim, 4u);
  }
}

TEST(FaultInjectorTest, FiresOnTheNthEligibleEventOnly) {
  FaultPlan plan;
  std::string error;
  ASSERT_TRUE(FaultPlan::Parse("stall@1:3:99", &plan, &error)) << error;
  FaultInjector injector;
  ASSERT_TRUE(injector.Arm(plan, /*num_variants=*/2, /*seed=*/7));
  uint64_t param = 0;
  // Variant 0 events are ineligible and must not advance the count.
  EXPECT_FALSE(injector.ShouldFire(FaultSite::kStallArrival, 0, &param));
  EXPECT_FALSE(injector.ShouldFire(FaultSite::kStallArrival, 1, &param));
  EXPECT_FALSE(injector.ShouldFire(FaultSite::kStallArrival, 1, &param));
  EXPECT_TRUE(injector.ShouldFire(FaultSite::kStallArrival, 1, &param));
  EXPECT_EQ(param, 99u);
  EXPECT_FALSE(injector.ShouldFire(FaultSite::kStallArrival, 1, &param));
  EXPECT_EQ(injector.FiredCount(FaultSite::kStallArrival), 1u);
  injector.Disarm();
  EXPECT_FALSE(injector.ShouldFire(FaultSite::kStallArrival, 1, &param));
}

// --- Excision sweep ----------------------------------------------------------

struct ChaosCase {
  const char* plan;
  FaultSite site;
  StatusCode expected_code;
};

void RunExcisionCase(uint32_t variants, AgentKind agent, const ChaosCase& chaos) {
  constexpr uint32_t kThreads = 3;
  constexpr int kIters = 40;
  MveeOptions options = ChaosOptions(variants, chaos.plan);
  options.agent = agent;
  const std::string reference = FaultFreeReference(options, kThreads, kIters);
  ASSERT_FALSE(reference.empty());

  Mvee mvee(options);
  const Status status = mvee.Run(CounterProgram(kThreads, kIters));
  const std::string label = std::string(AgentKindName(agent)) + "/" + chaos.plan;
  ASSERT_TRUE(status.ok()) << label << ": " << status.ToString();

  // Graceful degradation: the survivors produced verdict-equivalent output.
  EXPECT_EQ(FileText(mvee.kernel(), "result.txt"), reference) << label;

  // The report names the victim and the failure site.
  const auto& excised = mvee.report().excised_variants;
  ASSERT_EQ(excised.size(), 1u) << label;
  EXPECT_EQ(excised[0].variant, 2u) << label;
  EXPECT_EQ(excised[0].code, chaos.expected_code) << label;
  EXPECT_FALSE(excised[0].detail.empty()) << label;
}

// Kill a variant thread mid-round under every agent kind: the siblings reap
// it through the rendezvous timeout and the survivors finish.
TEST(ChaosSweepTest, CrashedVariantIsExcisedUnderEveryAgent) {
  const ChaosCase chaos{"crash@2:6", FaultSite::kCrashAtSyscall, StatusCode::kTimeout};
  for (AgentKind agent : {AgentKind::kTotalOrder, AgentKind::kPartialOrder,
                          AgentKind::kWallOfClocks, AgentKind::kPerVariableOrder}) {
    RunExcisionCase(/*variants=*/3, agent, chaos);
  }
}

// A thread stalled through the arrival window looks exactly like a crash to
// the siblings (it never arrives); when it finally wakes it must observe its
// own excision and unwind instead of corrupting a recycled round.
TEST(ChaosSweepTest, StalledVariantIsExcised) {
  // Default stall length = 2x rendezvous_timeout, so the siblings' deadline
  // always expires first.
  const ChaosCase chaos{"stall@2:5", FaultSite::kStallArrival, StatusCode::kTimeout};
  RunExcisionCase(/*variants=*/3, AgentKind::kWallOfClocks, chaos);
}

// A corrupted digest is a single-outlier divergence: excised immediately at
// round open, no timeout involved.
TEST(ChaosSweepTest, DigestOutlierIsExcisedUnderEveryAgent) {
  const ChaosCase chaos{"digest@2:7", FaultSite::kCorruptDigest, StatusCode::kDivergence};
  for (AgentKind agent : {AgentKind::kTotalOrder, AgentKind::kPartialOrder,
                          AgentKind::kWallOfClocks, AgentKind::kPerVariableOrder}) {
    RunExcisionCase(/*variants=*/3, agent, chaos);
  }
}

// Four variants degrade to three and keep the N-1 lockstep guarantees.
TEST(ChaosSweepTest, FourVariantsDegradeToThree) {
  for (const ChaosCase& chaos :
       {ChaosCase{"crash@2:6", FaultSite::kCrashAtSyscall, StatusCode::kTimeout},
        ChaosCase{"digest@2:7", FaultSite::kCorruptDigest, StatusCode::kDivergence}}) {
    RunExcisionCase(/*variants=*/4, AgentKind::kTotalOrder, chaos);
  }
}

// Seeded victim selection: '*' picks a slave, and the excision report names
// whichever variant the seed resolved.
TEST(ChaosSweepTest, SeededVictimIsExcisedAndNamed) {
  constexpr uint32_t kThreads = 2;
  constexpr int kIters = 30;
  MveeOptions options = ChaosOptions(3, "digest@*:5");
  options.seed = 0xC0FFEEull;
  const std::string reference = FaultFreeReference(options, kThreads, kIters);

  Mvee mvee(options);
  const Status status = mvee.Run(CounterProgram(kThreads, kIters));
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(FileText(mvee.kernel(), "result.txt"), reference);
  const auto& excised = mvee.report().excised_variants;
  ASSERT_EQ(excised.size(), 1u);
  EXPECT_GE(excised[0].variant, 1u);
  EXPECT_LT(excised[0].variant, 3u);
}

// --- Policy boundaries -------------------------------------------------------

// Below the min_survivors floor the same failure degrades to the classic
// whole-MVEE shutdown with the seed's status codes.
TEST(ChaosPolicyTest, MinSurvivorsFloorForcesShutdown) {
  MveeOptions options = ChaosOptions(2, "crash@1:6");
  options.rendezvous_timeout = std::chrono::milliseconds(400);
  Mvee mvee(options);
  const Status status = mvee.Run(CounterProgram(2, 40));
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kTimeout) << status.ToString();
  EXPECT_TRUE(mvee.report().excised_variants.empty());
}

// The master is never excisable, whatever the policy says.
TEST(ChaosPolicyTest, MasterFailureForcesShutdown) {
  MveeOptions options = ChaosOptions(3, "digest@0:7");
  Mvee mvee(options);
  const Status status = mvee.Run(CounterProgram(2, 40));
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kDivergence) << status.ToString();
  EXPECT_TRUE(mvee.report().excised_variants.empty());
}

// Under kShutdown (the paper's posture, the default) a slave failure is
// fatal — the robustness layer must not change the default behavior.
TEST(ChaosPolicyTest, ShutdownPolicyStaysFatal) {
  MveeOptions options = ChaosOptions(3, "digest@2:7");
  options.on_variant_failure = VariantFailurePolicy::kShutdown;
  Mvee mvee(options);
  const Status status = mvee.Run(CounterProgram(2, 40));
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kDivergence) << status.ToString();
  EXPECT_TRUE(mvee.report().excised_variants.empty());
}

// Regression: both shutdown cases hung in most runs on a loaded 4-core host.
// Two arrivals of one round unwound on the tripped shutdown; the first
// poisoned the round's open claim, and the second spun forever in the frame
// hold waiting for an opener that could never exist.
TEST(ChaosPolicyTest, ShutdownCasesTerminateRepeatedly) {
  HardTimeout timeout(std::chrono::seconds(120), "ChaosPolicyTest.ShutdownCasesTerminateRepeatedly");
  for (int i = 0; i < 20; ++i) {
    for (const bool master_fails : {true, false}) {
      MveeOptions options = ChaosOptions(3, master_fails ? "digest@0:7" : "digest@2:7");
      if (!master_fails) {
        options.on_variant_failure = VariantFailurePolicy::kShutdown;
      }
      Mvee mvee(options);
      const Status status = mvee.Run(CounterProgram(2, 40));
      ASSERT_EQ(status.code(), StatusCode::kDivergence)
          << "iteration " << i << (master_fails ? " (master)" : " (slave)") << ": "
          << status.ToString();
      ASSERT_TRUE(mvee.report().excised_variants.empty());
    }
  }
}

// --- Kernel fault sites + watchdog -------------------------------------------

// A dropped futex wake is the classic lost-wakeup hang: the waiter stays
// queued with nothing left to wake it. The watchdog's stage-2 nudge (a legal
// spurious WakeAll) recovers the run without excising anyone.
TEST(WatchdogTest, DroppedFutexWakeIsRecoveredByNudge) {
  MveeOptions options = ChaosOptions(2, "drop-futex-wake:1");
  options.blocked_call_timeout = std::chrono::milliseconds(250);
  Mvee mvee(options);
  const Status status = mvee.Run([](VariantEnv& env) {
    auto word = std::make_shared<std::atomic<int32_t>>(0);
    ThreadHandle waker = env.Spawn([word](VariantEnv& wenv) {
      wenv.NanosleepNanos(50'000'000);  // let the waiter park first
      word->store(1, std::memory_order_release);
      wenv.FutexWake(word.get(), 1);  // swallowed by the fault
    });
    env.FutexWait(word.get(), 0);  // blocks until the watchdog nudge
    env.Join(waker);
  });
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_TRUE(mvee.report().excised_variants.empty());
  EXPECT_GE(mvee.report().watchdog_nudges, 1u);
  EXPECT_GE(mvee.report().watchdog_dumps, 1u);
}

// A dropped wait-queue notify self-heals: readiness waiters re-scan on a
// bounded slice precisely so a missed edge degrades to polling latency, not
// a hang. The watchdog never needs to fire.
TEST(WatchdogTest, DroppedWaitqNotifySelfHeals) {
  MveeOptions options = ChaosOptions(2, "drop-waitq-wake:1");
  Mvee mvee(options);
  const Status status = mvee.Run([](VariantEnv& env) {
    auto [read_fd, write_fd] = env.Pipe();
    ASSERT_GE(read_fd, 0);
    ThreadHandle writer = env.Spawn([write_fd](VariantEnv& wenv) {
      wenv.NanosleepNanos(20'000'000);
      wenv.Write(write_fd, std::string("ping"));
    });
    std::vector<uint8_t> buf(4);
    const int64_t n = env.Read(read_fd, buf);  // blocks across the dropped notify
    EXPECT_EQ(n, 4);
    env.Join(writer);
    env.Close(read_fd);
    env.Close(write_fd);
  });
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_TRUE(mvee.report().excised_variants.empty());
}

// A leaked reader lease wedges the eventual Close in its reader drain; the
// watchdog's nudge releases abandoned leases and the close completes.
TEST(WatchdogTest, LeakedFdLeaseIsRepairedByNudge) {
  MveeOptions options = ChaosOptions(2, "leak-fd-lease:1");
  options.blocked_call_timeout = std::chrono::milliseconds(250);
  Mvee mvee(options);
  const Status status = mvee.Run([](VariantEnv& env) {
    const int64_t fd =
        env.Open("leaky.txt", VOpenFlags::kWrite | VOpenFlags::kCreate);
    ASSERT_GE(fd, 0);
    env.Write(fd, std::string("abcd"));
    env.Lseek(fd, 0, 0);
    std::vector<uint8_t> buf(4);
    EXPECT_EQ(env.Read(fd, buf), 4);  // the lease on this read is leaked
    EXPECT_EQ(env.Close(fd), 0);      // wedges until the nudge repairs it
    env.Gettid();
  });
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_GE(mvee.report().watchdog_nudges, 1u);
}

// --- Loose (VARAN) mode ------------------------------------------------------

// A stalled loose-mode follower back-pressures the leader through the ring;
// the leader's deadline names the laggard and excises it, and its detached
// cursor stops gating pushes.
TEST(LooseModeChaosTest, StalledFollowerIsExcised) {
  MveeOptions options = ChaosOptions(3, "stall@2:4:3000");
  options.sync_model = SyncModel::kLoose;
  options.loose_buffer_depth = 4;  // small ring: backpressure bites quickly
  options.rendezvous_timeout = std::chrono::milliseconds(500);
  Mvee mvee(options);
  const Status status = mvee.Run([](VariantEnv& env) {
    for (int i = 0; i < 24; ++i) {
      env.Gettid();
    }
    const int64_t fd =
        env.Open("loose.txt", VOpenFlags::kWrite | VOpenFlags::kCreate);
    env.Write(fd, std::string("done"));
    env.Close(fd);
  });
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(FileText(mvee.kernel(), "loose.txt"), "done");
  const auto& excised = mvee.report().excised_variants;
  ASSERT_EQ(excised.size(), 1u);
  EXPECT_EQ(excised[0].variant, 2u);
  EXPECT_EQ(excised[0].code, StatusCode::kTimeout);
}

// A delayed ring publication is absorbed by the followers' deadline.
TEST(LooseModeChaosTest, DelayedPublishIsAbsorbed) {
  MveeOptions options = ChaosOptions(2, "delay-publish@0:3:30");
  options.sync_model = SyncModel::kLoose;
  Mvee mvee(options);
  const Status status = mvee.Run([](VariantEnv& env) {
    for (int i = 0; i < 8; ++i) {
      env.Gettid();
    }
  });
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_TRUE(mvee.report().excised_variants.empty());
}

// --- Post-excision liveness --------------------------------------------------

// After an excision the survivors must keep full service: new threads spawn,
// futexes block and wake, the dead variant's thread sets never wedge a
// round. This is the "graceful" half of graceful degradation.
TEST(ChaosLivenessTest, SurvivorsSpawnThreadsAfterExcision) {
  MveeOptions options = ChaosOptions(3, "crash@2:4");
  const std::string reference = [&] {
    MveeOptions clean = options;
    clean.fault_plan.clear();
    Mvee mvee(clean);
    EXPECT_TRUE(mvee.Run(CounterProgram(2, 20)).ok());
    return FileText(mvee.kernel(), "result.txt");
  }();

  Mvee mvee(options);
  const Status status = mvee.Run([](VariantEnv& env) {
    // Phase 1: enough syscalls that the victim dies here.
    for (int i = 0; i < 8; ++i) {
      env.Gettid();
    }
    // Phase 2: full workload started after the excision window.
    CounterProgram(2, 20)(env);
  });
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(FileText(mvee.kernel(), "result.txt"), reference);
  ASSERT_EQ(mvee.report().excised_variants.size(), 1u);
  EXPECT_EQ(mvee.report().excised_variants[0].variant, 2u);
  // The excision latency probe measured excise-to-next-round-open.
  EXPECT_GT(mvee.report().excision_latency_ns, 0u);
}

// --- Excision under server traffic (docs/DESIGN.md §10) ----------------------

// A variant dies mid-traffic under the event-loop server; the survivors must
// finish the whole open-loop run with byte-identical responses (every sent
// response passed the survivors' lockstep send() comparison; the request ids
// prove nothing was dropped or doubled) and the report must name the victim.
TEST(ChaosServerTest, ServerSurvivesVariantExcisionMidTraffic) {
  constexpr uint16_t kPort = 8300;
  constexpr uint32_t kConnections = 12;
  constexpr uint32_t kRequestsPerConn = 5;

  // digest@2:45 corrupts variant 2's 45th syscall digest — startup (socket/
  // bind/listen/pipes/spawns) takes ~15 calls, so the divergence lands while
  // connections are in flight.
  MveeOptions options = ChaosOptions(3, "digest@2:45");
  options.rendezvous_timeout = std::chrono::milliseconds(20000);
  options.agent_config.replay_deadline = std::chrono::milliseconds(60000);
  options.blocked_call_timeout = std::chrono::milliseconds(60000);

  ServerConfig config;
  config.port = kPort;
  config.pool_threads = 4;
  config.page_bytes = 256;
  config.connection_budget = kConnections + 1;  // + readiness probe.

  OpenLoopOptions load;
  load.port = kPort;
  load.connections = kConnections;
  load.requests_per_conn = kRequestsPerConn;
  load.pipeline_depth = 2;
  load.arrival_rate = 4000.0;
  load.client_threads = 2;
  load.collect_request_ids = true;

  const auto serve_and_measure = [&](Mvee& mvee, OpenLoopResult* result) {
    Status status;
    std::thread client([&] {
      VRef<VConnection> probe;
      while ((probe = mvee.kernel().network().Connect(kPort)) == nullptr) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      probe->CloseClientSide();
      *result = RunWrkOpenLoop(mvee.kernel(), load);
    });
    status = mvee.Run(MakeServerProgram(config));
    client.join();
    return status;
  };

  // Fault-free reference: the survivors' stats must match it byte for byte.
  std::string reference_stats;
  {
    MveeOptions clean = options;
    clean.fault_plan.clear();
    Mvee mvee(clean);
    OpenLoopResult result;
    ASSERT_TRUE(serve_and_measure(mvee, &result).ok());
    reference_stats = FileText(mvee.kernel(), "result/http_stats");
    ASSERT_FALSE(reference_stats.empty());
  }

  Mvee mvee(options);
  OpenLoopResult result;
  const Status status = serve_and_measure(mvee, &result);
  ASSERT_TRUE(status.ok()) << status.ToString();

  // The load run finished completely despite the mid-traffic excision.
  EXPECT_EQ(result.responses_ok, kConnections * kRequestsPerConn);
  EXPECT_EQ(result.responses_non2xx, 0u);
  EXPECT_EQ(result.responses_truncated, 0u);
  std::vector<uint64_t> ids = result.request_ids;
  std::sort(ids.begin(), ids.end());
  ASSERT_EQ(ids.size(), static_cast<size_t>(kConnections) * kRequestsPerConn);
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(ids[i], i + 1) << "request ids are not a permutation of 1..N";
  }

  // Survivors' externally visible accounting matches the fault-free run.
  EXPECT_EQ(FileText(mvee.kernel(), "result/http_stats"), reference_stats);

  // The report names the victim and the failure site.
  const auto& excised = mvee.report().excised_variants;
  ASSERT_EQ(excised.size(), 1u);
  EXPECT_EQ(excised[0].variant, 2u);
  EXPECT_EQ(excised[0].code, StatusCode::kDivergence);
  EXPECT_FALSE(excised[0].detail.empty());
}

}  // namespace
}  // namespace mvee
