// Integration tests for the MVEE monitor: lockstep execution, result
// replication, syscall ordering, divergence detection, policies, and the
// covert-channel building blocks.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "mvee/monitor/mvee.h"
#include "mvee/monitor/native.h"
#include "mvee/sync/primitives.h"

namespace mvee {
namespace {

MveeOptions DefaultOptions(uint32_t variants = 2) {
  MveeOptions options;
  options.num_variants = variants;
  options.agent = AgentKind::kWallOfClocks;
  options.rendezvous_timeout = std::chrono::milliseconds(20000);
  options.agent_config.replay_deadline = std::chrono::milliseconds(20000);
  return options;
}

std::string FileText(VirtualKernel& kernel, const std::string& path) {
  auto file = kernel.vfs().Open(path, /*create=*/false);
  if (file == nullptr) {
    return "";
  }
  auto bytes = file->Contents();
  return std::string(bytes.begin(), bytes.end());
}

TEST(MveeBasicTest, HelloWorldTwoVariants) {
  Mvee mvee(DefaultOptions(2));
  const Status status = mvee.Run([](VariantEnv& env) {
    const int64_t fd = env.Open("out.txt",
                                VOpenFlags::kWrite | VOpenFlags::kCreate);
    ASSERT_GE(fd, 0);
    env.Write(fd, std::string("hello mvee\n"));
    env.Close(fd);
  });
  EXPECT_TRUE(status.ok()) << status.ToString();
  // The write executed exactly once (master), deduplicated for the slaves.
  EXPECT_EQ(FileText(mvee.kernel(), "out.txt"), "hello mvee\n");
  EXPECT_GE(mvee.report().syscalls.total, 3u);
}

TEST(MveeBasicTest, RunsWithEveryAgentKind) {
  for (AgentKind kind : {AgentKind::kNull, AgentKind::kTotalOrder, AgentKind::kPartialOrder,
                         AgentKind::kWallOfClocks}) {
    MveeOptions options = DefaultOptions(2);
    options.agent = kind;
    Mvee mvee(options);
    const Status status = mvee.Run([](VariantEnv& env) {
      const int64_t fd = env.Open("x", VOpenFlags::kWrite | VOpenFlags::kCreate);
      env.Write(fd, std::string("ok"));
      env.Close(fd);
    });
    EXPECT_TRUE(status.ok()) << AgentKindName(kind) << ": " << status.ToString();
  }
}

TEST(MveeBasicTest, ThreeAndFourVariants) {
  for (uint32_t n : {3u, 4u}) {
    Mvee mvee(DefaultOptions(n));
    const Status status = mvee.Run([](VariantEnv& env) {
      const int64_t fd = env.Open("f", VOpenFlags::kWrite | VOpenFlags::kCreate);
      env.Write(fd, std::string("abc"));
      env.Close(fd);
    });
    EXPECT_TRUE(status.ok()) << n << " variants: " << status.ToString();
  }
}

TEST(MveeReplicationTest, ReadResultsAreReplicatedToSlaves) {
  Mvee mvee(DefaultOptions(3));
  mvee.kernel().vfs().PutFile("input", {'d', 'a', 't', 'a'});
  std::atomic<int> consistent{0};
  const Status status = mvee.Run([&](VariantEnv& env) {
    const int64_t fd = env.Open("input", VOpenFlags::kRead);
    std::vector<uint8_t> buffer(4);
    const int64_t n = env.Read(fd, buffer);
    // Every variant (slaves included) must observe the same bytes.
    if (n == 4 && std::string(buffer.begin(), buffer.end()) == "data") {
      consistent.fetch_add(1);
    }
    env.Close(fd);
  });
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(consistent.load(), 3);
}

TEST(MveeReplicationTest, GetrandomIdenticalAcrossVariants) {
  Mvee mvee(DefaultOptions(2));
  std::vector<std::vector<uint8_t>> observed(2);
  std::mutex mutex;
  const Status status = mvee.Run([&](VariantEnv& env) {
    std::vector<uint8_t> buffer(16);
    env.Getrandom(buffer);
    const int64_t which = env.MveeSelfAware();
    std::lock_guard<std::mutex> lock(mutex);
    observed[which] = buffer;
  });
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(observed[0], observed[1]);
}

TEST(MveeReplicationTest, TimeIsReplicatedNotResampled) {
  Mvee mvee(DefaultOptions(2));
  std::vector<int64_t> times(2, -1);
  std::mutex mutex;
  const Status status = mvee.Run([&](VariantEnv& env) {
    const int64_t t = env.GettimeofdayMicros();
    const int64_t which = env.MveeSelfAware();
    std::lock_guard<std::mutex> lock(mutex);
    times[which] = t;
  });
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(times[0], times[1]);
}

TEST(MveeControlTest, SelfAwareReturnsVariantIndex) {
  Mvee mvee(DefaultOptions(3));
  std::atomic<int> sum{0};
  const Status status = mvee.Run([&](VariantEnv& env) {
    sum.fetch_add(static_cast<int>(env.MveeSelfAware()));
  });
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(sum.load(), 0 + 1 + 2);
}

TEST(MveeControlTest, GetpidGettidConsistent) {
  Mvee mvee(DefaultOptions(2));
  const Status status = mvee.Run([](VariantEnv& env) {
    EXPECT_EQ(env.Getpid(), 1000);
    EXPECT_EQ(env.Gettid(), 0);
  });
  EXPECT_TRUE(status.ok());
}

TEST(MveeThreadTest, SpawnJoinTwoWorkers) {
  Mvee mvee(DefaultOptions(2));
  std::atomic<int> work_done{0};
  const Status status = mvee.Run([&](VariantEnv& env) {
    auto worker = [&](VariantEnv& wenv) {
      wenv.Gettid();  // One syscall so the thread set rendezvouses.
      work_done.fetch_add(1);
    };
    ThreadHandle a = env.Spawn(worker);
    ThreadHandle b = env.Spawn(worker);
    env.Join(a);
    env.Join(b);
  });
  EXPECT_TRUE(status.ok()) << status.ToString();
  // 2 workers x 2 variants.
  EXPECT_EQ(work_done.load(), 4);
}

TEST(MveeThreadTest, SpawnedThreadsGetConsistentTids) {
  Mvee mvee(DefaultOptions(2));
  std::mutex mutex;
  std::vector<std::vector<int64_t>> tids(2);
  const Status status = mvee.Run([&](VariantEnv& env) {
    const int64_t which = env.MveeSelfAware();
    std::vector<ThreadHandle> handles;
    for (int i = 0; i < 3; ++i) {
      handles.push_back(env.Spawn([&, which](VariantEnv& wenv) {
        const int64_t tid = wenv.Gettid();
        std::lock_guard<std::mutex> lock(mutex);
        tids[which].push_back(tid);
      }));
    }
    for (auto handle : handles) {
      env.Join(handle);
    }
  });
  EXPECT_TRUE(status.ok()) << status.ToString();
  ASSERT_EQ(tids[0].size(), 3u);
  std::sort(tids[0].begin(), tids[0].end());
  std::sort(tids[1].begin(), tids[1].end());
  EXPECT_EQ(tids[0], tids[1]);
}

// The paper's §3.1 motivating example: two threads open files concurrently;
// with the syscall ordering clock the fd<->file assignment is identical in
// all variants.
TEST(MveeOrderingTest, ConcurrentOpensYieldConsistentFds) {
  for (int round = 0; round < 5; ++round) {
    MveeOptions options = DefaultOptions(2);
    options.seed = 100 + round;
    Mvee mvee(options);
    std::mutex mutex;
    // (variant, path) -> fd
    std::map<std::pair<int64_t, std::string>, int64_t> fds;
    const Status status = mvee.Run([&](VariantEnv& env) {
      const int64_t which = env.MveeSelfAware();
      auto open_worker = [&, which](const std::string& path) {
        return [&, which, path](VariantEnv& wenv) {
          const int64_t fd = wenv.Open(path, VOpenFlags::kCreate | VOpenFlags::kWrite);
          std::lock_guard<std::mutex> lock(mutex);
          fds[{which, path}] = fd;
        };
      };
      ThreadHandle a = env.Spawn(open_worker("file_a"));
      ThreadHandle b = env.Spawn(open_worker("file_b"));
      env.Join(a);
      env.Join(b);
    });
    ASSERT_TRUE(status.ok()) << status.ToString();
    const int64_t fd_a0 = fds[{0, "file_a"}];
    const int64_t fd_a1 = fds[{1, "file_a"}];
    const int64_t fd_b0 = fds[{0, "file_b"}];
    const int64_t fd_b1 = fds[{1, "file_b"}];
    EXPECT_EQ(fd_a0, fd_a1);
    EXPECT_EQ(fd_b0, fd_b1);
  }
}

TEST(MveeDivergenceTest, ArgumentMismatchIsDetected) {
  Mvee mvee(DefaultOptions(2));
  const Status status = mvee.Run([](VariantEnv& env) {
    const int64_t which = env.MveeSelfAware();
    const int64_t fd = env.Open("out", VOpenFlags::kCreate | VOpenFlags::kWrite);
    // A memory-corruption attack succeeds in one variant only: the variants
    // write different payloads and the monitor must catch it.
    env.Write(fd, which == 0 ? std::string("benign") : std::string("pwned!"));
    env.Close(fd);
  });
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kDivergence);
}

TEST(MveeDivergenceTest, SyscallNumberMismatchIsDetected) {
  Mvee mvee(DefaultOptions(2));
  const Status status = mvee.Run([](VariantEnv& env) {
    const int64_t which = env.MveeSelfAware();
    if (which == 0) {
      env.Stat("somewhere");
    } else {
      env.Unlink("somewhere");
    }
  });
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kDivergence);
}

TEST(MveeDivergenceTest, MissingSyscallTimesOut) {
  MveeOptions options = DefaultOptions(2);
  options.rendezvous_timeout = std::chrono::milliseconds(300);
  Mvee mvee(options);
  const Status status = mvee.Run([](VariantEnv& env) {
    const int64_t which = env.MveeSelfAware();
    if (which == 0) {
      env.Stat("x");  // The slave never arrives at this call...
    } else {
      // ... because it silently stalls without making any syscall (a hung
      // variant, not a mismatched one).
      std::this_thread::sleep_for(std::chrono::milliseconds(800));
    }
  });
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kTimeout);
}

TEST(MveeDivergenceTest, DivergenceWinsOverLaterCalls) {
  Mvee mvee(DefaultOptions(2));
  std::atomic<int> after_divergence{0};
  const Status status = mvee.Run([&](VariantEnv& env) {
    const int64_t which = env.MveeSelfAware();
    const int64_t fd = env.Open("o", VOpenFlags::kCreate | VOpenFlags::kWrite);
    env.Write(fd, which == 0 ? std::string("a") : std::string("b"));
    after_divergence.fetch_add(1);  // Unreachable: variants are killed.
    env.Close(fd);
  });
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(after_divergence.load(), 0);
}

TEST(MveePolicyTest, SensitivePolicySkipsBenignComparison) {
  MveeOptions options = DefaultOptions(2);
  options.policy = MonitorPolicy::kLockstepSensitive;
  Mvee mvee(options);
  const Status status = mvee.Run([](VariantEnv& env) {
    const int64_t which = env.MveeSelfAware();
    // stat is benign: different paths tolerated under the relaxed policy.
    env.Stat(which == 0 ? "p" : "q");
  });
  EXPECT_TRUE(status.ok()) << status.ToString();
}

TEST(MveePolicyTest, SensitivePolicyStillCatchesWrites) {
  MveeOptions options = DefaultOptions(2);
  options.policy = MonitorPolicy::kLockstepSensitive;
  Mvee mvee(options);
  const Status status = mvee.Run([](VariantEnv& env) {
    const int64_t which = env.MveeSelfAware();
    const int64_t fd = env.Open("o", VOpenFlags::kCreate | VOpenFlags::kWrite);
    env.Write(fd, which == 0 ? std::string("x") : std::string("y"));
    env.Close(fd);
  });
  EXPECT_FALSE(status.ok());
}

TEST(MveeMemoryTest, MmapReturnsDiversifiedAddressesButComparableCalls) {
  MveeOptions options = DefaultOptions(2);
  options.enable_aslr = true;
  Mvee mvee(options);
  std::vector<int64_t> addresses(2, 0);
  std::mutex mutex;
  const Status status = mvee.Run([&](VariantEnv& env) {
    const int64_t which = env.MveeSelfAware();
    const int64_t addr = env.Mmap(8192, VProt::kRead | VProt::kWrite);
    ASSERT_GT(addr, 0);
    {
      std::lock_guard<std::mutex> lock(mutex);
      addresses[which] = addr;
    }
    EXPECT_EQ(env.Mprotect(addr, 8192, VProt::kRead), 0);
    EXPECT_EQ(env.Munmap(addr, 8192), 0);
  });
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_NE(addresses[0], addresses[1]);  // ASLR made them differ.
}

TEST(MveeMemoryTest, BrkConsistentGrowth) {
  Mvee mvee(DefaultOptions(2));
  const Status status = mvee.Run([](VariantEnv& env) {
    const int64_t initial = env.Brk(0);
    const int64_t grown = env.Brk(4096);
    EXPECT_EQ(grown, initial + 4096);
  });
  EXPECT_TRUE(status.ok()) << status.ToString();
}

TEST(MveeSyncTest, MutexUnderMveeProducesConsistentResult) {
  for (AgentKind kind :
       {AgentKind::kTotalOrder, AgentKind::kPartialOrder, AgentKind::kWallOfClocks}) {
    MveeOptions options = DefaultOptions(2);
    options.agent = kind;
    Mvee mvee(options);
    const Status status = mvee.Run([](VariantEnv& env) {
      // Per-variant shared state: a counter guarded by an instrumented mutex.
      auto mutex = std::make_shared<Mutex>();
      auto counter = std::make_shared<int>(0);
      auto worker = [mutex, counter](VariantEnv& wenv) {
        for (int i = 0; i < 50; ++i) {
          LockGuard<Mutex> guard(*mutex);
          ++*counter;
        }
        wenv.Gettid();
      };
      ThreadHandle a = env.Spawn(worker);
      ThreadHandle b = env.Spawn(worker);
      env.Join(a);
      env.Join(b);
      // Every variant writes its result: lockstep compare verifies equality.
      const int64_t fd = env.Open("result", VOpenFlags::kCreate | VOpenFlags::kWrite);
      env.Write(fd, std::to_string(*counter));
      env.Close(fd);
    });
    EXPECT_TRUE(status.ok()) << AgentKindName(kind) << ": " << status.ToString();
    EXPECT_EQ(FileText(mvee.kernel(), "result"), "100");
  }
}

// Without sync-op replication, racing critical sections produce divergent
// outputs that the monitor detects — the claim motivating the whole paper
// (§1, §5.5's uninstrumented-nginx run).
TEST(MveeSyncTest, UninstrumentedRacyOrderEventuallyDiverges) {
  int divergences = 0;
  // Racy interleavings are timing-dependent; 24 independently-seeded rounds
  // make a no-divergence run astronomically unlikely even on a loaded host,
  // and the loop exits on the first divergence (usually round one).
  for (int round = 0; round < 24 && divergences == 0; ++round) {
    MveeOptions options = DefaultOptions(2);
    options.agent = AgentKind::kNull;  // No replication.
    options.rendezvous_timeout = std::chrono::milliseconds(5000);
    options.seed = round;
    Mvee mvee(options);
    const Status status = mvee.Run([](VariantEnv& env) {
      auto order = std::make_shared<std::vector<int>>();
      auto mutex = std::make_shared<Mutex>();
      auto started = std::make_shared<std::atomic<int>>(0);
      auto worker = [order, mutex, started](int id) {
        return [order, mutex, started, id](VariantEnv& wenv) {
          // Widen the race window. Under a slow build (TSan) the first
          // worker could finish all its rounds before the second one
          // exists, and both variants would record the same uncontended
          // order. So both workers start the loop together, and each one
          // gives up its CPU while it holds the lock, letting the other
          // queue behind it.
          started->fetch_add(1);
          while (started->load() < 2) {
            std::this_thread::yield();
          }
          for (int i = 0; i < 40; ++i) {
            mutex->Lock();
            order->push_back(id);
            std::this_thread::yield();
            mutex->Unlock();
            if (i % 8 == 0) {
              wenv.SchedYield();  // Perturb the schedule.
            }
          }
          wenv.Gettid();
        };
      };
      ThreadHandle a = env.Spawn(worker(1));
      ThreadHandle b = env.Spawn(worker(2));
      env.Join(a);
      env.Join(b);
      std::string serialized;
      for (int id : *order) {
        serialized += static_cast<char>('0' + id);
      }
      const int64_t fd = env.Open("trace", VOpenFlags::kCreate | VOpenFlags::kWrite);
      env.Write(fd, serialized);
      env.Close(fd);
    });
    if (!status.ok()) {
      ++divergences;
    }
  }
  EXPECT_GT(divergences, 0);
}

TEST(MveeCovertChannelTest, TrylockOutcomeIsReplicated) {
  // §5.4: whether a trylock succeeds is decided by the master and replayed
  // in the slaves, so a data-dependent pattern of trylock outcomes is a
  // cross-variant channel. Here we only verify the replication property:
  // all variants observe the same outcome sequence.
  Mvee mvee(DefaultOptions(2));
  std::mutex mutex;
  std::map<int64_t, std::string> outcomes;
  const Status status = mvee.Run([&](VariantEnv& env) {
    auto lock = std::make_shared<Mutex>();
    auto pattern = std::make_shared<std::string>();
    auto holder = [lock](VariantEnv& wenv) {
      lock->Lock();
      wenv.NanosleepNanos(2000000);  // Hold for 2ms.
      lock->Unlock();
      wenv.Gettid();
    };
    auto prober = [lock, pattern](VariantEnv& wenv) {
      for (int i = 0; i < 20; ++i) {
        *pattern += lock->TryLock() ? '1' : '0';
        if (pattern->back() == '1') {
          lock->Unlock();
        }
        wenv.NanosleepNanos(200000);
      }
    };
    ThreadHandle h = env.Spawn(holder);
    ThreadHandle p = env.Spawn(prober);
    env.Join(h);
    env.Join(p);
    const int64_t which = env.MveeSelfAware();
    std::lock_guard<std::mutex> guard(mutex);
    outcomes[which] = *pattern;
  });
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(outcomes[0], outcomes[1]);
}

TEST(NativeRunnerTest, RunsProgramDirectly) {
  NativeRunner runner;
  const Status status = runner.Run([](VariantEnv& env) {
    const int64_t fd = env.Open("n", VOpenFlags::kCreate | VOpenFlags::kWrite);
    env.Write(fd, std::string("native"));
    env.Close(fd);
    EXPECT_EQ(env.MveeSelfAware(), -1);  // Not under an MVEE.
  });
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(runner.counters().total, 4u);
}

TEST(NativeRunnerTest, ThreadsAndMutexesWork) {
  NativeRunner runner;
  std::atomic<int> total{0};
  const Status status = runner.Run([&](VariantEnv& env) {
    auto mutex = std::make_shared<Mutex>();
    auto counter = std::make_shared<int>(0);
    std::vector<ThreadHandle> handles;
    for (int i = 0; i < 4; ++i) {
      handles.push_back(env.Spawn([mutex, counter](VariantEnv&) {
        for (int j = 0; j < 100; ++j) {
          LockGuard<Mutex> guard(*mutex);
          ++*counter;
        }
      }));
    }
    for (auto handle : handles) {
      env.Join(handle);
    }
    total.store(*counter);
  });
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(total.load(), 400);
}

// --- Syscall-ordering domains (docs/syscall_ordering.md) -------------------

// Descriptor-scoped ordered ops on disjoint fds replay without a shared
// clock; every variant must still land on identical per-fd offsets.
TEST(OrderDomainTest, PerFdOpsStayConsistentAcrossVariants) {
  MveeOptions options = DefaultOptions(3);
  Mvee mvee(options);
  std::mutex mutex;
  // (variant, worker) -> final offset
  std::map<std::pair<int64_t, int>, int64_t> offsets;
  const Status status = mvee.Run([&](VariantEnv& env) {
    const int64_t which = env.MveeSelfAware();
    std::vector<ThreadHandle> handles;
    for (int t = 0; t < 4; ++t) {
      handles.push_back(env.Spawn([&, which, t](VariantEnv& wenv) {
        const int64_t fd =
            wenv.Open("pfd_" + std::to_string(t), VOpenFlags::kCreate | VOpenFlags::kWrite);
        ASSERT_GE(fd, 0);
        for (int i = 1; i <= 50; ++i) {
          wenv.Lseek(fd, t + 1, 1 /*SEEK_CUR*/);
        }
        const int64_t offset = wenv.Lseek(fd, 0, 1 /*SEEK_CUR*/);
        wenv.Close(fd);
        std::lock_guard<std::mutex> lock(mutex);
        offsets[{which, t}] = offset;
      }));
    }
    for (auto handle : handles) {
      env.Join(handle);
    }
  });
  ASSERT_TRUE(status.ok()) << status.ToString();
  for (int t = 0; t < 4; ++t) {
    const int64_t master_offset = offsets[{0, t}];
    EXPECT_EQ(master_offset, 50 * (t + 1));
    EXPECT_EQ((offsets[{1, t}]), master_offset) << "worker " << t;
    EXPECT_EQ((offsets[{2, t}]), master_offset) << "worker " << t;
  }
  // 4 per-fd domains were stamped (one per worker file) and retired at close.
  const MveeReport& report = mvee.report();
  EXPECT_GE(report.order_domains_created, 4u);
  EXPECT_GE(report.order_domains_retired, 4u);
}

// A reopened descriptor number must get a FRESH domain: replay clocks of the
// torn-down descriptor cannot leak into its successor, and the run must
// reclaim every retired domain once replays drain.
TEST(OrderDomainTest, FdReuseAcrossDomainTeardown) {
  MveeOptions options = DefaultOptions(2);
  Mvee mvee(options);
  std::mutex mutex;
  std::map<int64_t, std::vector<int64_t>> fds_by_variant;
  const Status status = mvee.Run([&](VariantEnv& env) {
    const int64_t which = env.MveeSelfAware();
    for (int cycle = 0; cycle < 6; ++cycle) {
      const int64_t fd = env.Open("reuse.txt", VOpenFlags::kCreate | VOpenFlags::kWrite);
      ASSERT_GE(fd, 0);
      // Stamp the per-fd domain so teardown has something to tear down.
      EXPECT_EQ(env.Lseek(fd, cycle, 0 /*SEEK_SET*/), cycle);
      EXPECT_EQ(env.Close(fd), 0);
      std::lock_guard<std::mutex> lock(mutex);
      fds_by_variant[which].push_back(fd);
    }
  });
  ASSERT_TRUE(status.ok()) << status.ToString();
  // The same fd number was reused each cycle, identically across variants.
  ASSERT_EQ(fds_by_variant[0].size(), 6u);
  EXPECT_EQ(fds_by_variant[0], fds_by_variant[1]);
  EXPECT_EQ(fds_by_variant[0].front(), fds_by_variant[0].back());
  const MveeReport& report = mvee.report();
  // One fresh per-fd domain per cycle (+ the stamped process-wide domains).
  EXPECT_GE(report.order_domains_created, 6u);
  EXPECT_EQ(report.order_domains_retired, 6u);
  // Quiescent teardown reclaimed every retired domain.
  EXPECT_EQ(report.order_domains_reclaimed, report.order_domains_retired);
}

// Two-phase accept: the allocation half of sys_accept must stay ordered
// against concurrent fd-namespace churn (open/close/dup), or slave shadow-fd
// numbering drifts — the monitor's shadow-fd check turns any drift into a
// divergence verdict, so a clean verdict is the assertion.
TEST(OrderDomainTest, TwoPhaseAcceptVsConcurrentClose) {
  for (int round = 0; round < 3; ++round) {
    MveeOptions options = DefaultOptions(2);
    options.seed = 7000 + round;
    Mvee mvee(options);
    std::mutex mutex;
    std::map<int64_t, int64_t> conn_fds;
    const Status status = mvee.Run([&](VariantEnv& env) {
      const int64_t which = env.MveeSelfAware();
      const int64_t listen_fd = env.Socket();
      ASSERT_EQ(env.Bind(listen_fd, static_cast<uint16_t>(9100 + round)), 0);
      ASSERT_EQ(env.Listen(listen_fd, 4), 0);

      // Namespace churn racing the accept's allocation half.
      ThreadHandle churn = env.Spawn([](VariantEnv& wenv) {
        for (int i = 0; i < 12; ++i) {
          const int64_t fd = wenv.Open("churn", VOpenFlags::kCreate | VOpenFlags::kWrite);
          const int64_t dup_fd = wenv.Dup(fd);
          wenv.Close(dup_fd);
          wenv.Close(fd);
        }
      });
      ThreadHandle client = env.Spawn([round](VariantEnv& wenv) {
        const int64_t fd = wenv.Socket();
        ASSERT_EQ(wenv.Connect(fd, static_cast<uint16_t>(9100 + round)), 0);
        wenv.Send(fd, std::string("hi"));
        wenv.Shutdown(fd);
        wenv.Close(fd);
      });

      const int64_t conn_fd = env.Accept(listen_fd);
      ASSERT_GE(conn_fd, 0);
      std::vector<uint8_t> buffer(4);
      env.Recv(conn_fd, buffer);

      env.Join(churn);
      env.Join(client);
      env.Close(conn_fd);
      env.Close(listen_fd);
      std::lock_guard<std::mutex> lock(mutex);
      conn_fds[which] = conn_fd;
    });
    ASSERT_TRUE(status.ok()) << "round " << round << ": " << status.ToString();
    EXPECT_EQ(conn_fds[0], conn_fds[1]) << "round " << round;
  }
}

// Per-resource domains are a performance relaxation, not a policy change: a
// clean workload stays clean (and stamps its per-fd ops in per-fd domains),
// a divergent one is still caught.
TEST(OrderDomainTest, CleanAndDivergentVerdicts) {
  auto clean_workload = [](VariantEnv& env) {
    auto worker = [](const std::string& path) {
      return [path](VariantEnv& wenv) {
        const int64_t fd = wenv.Open(path, VOpenFlags::kCreate | VOpenFlags::kWrite);
        wenv.Lseek(fd, 8, 0 /*SEEK_SET*/);
        wenv.Close(fd);
      };
    };
    ThreadHandle a = env.Spawn(worker("eq_a"));
    ThreadHandle b = env.Spawn(worker("eq_b"));
    env.Join(a);
    env.Join(b);
  };
  auto divergent_workload = [](VariantEnv& env) {
    const int64_t which = env.MveeSelfAware();
    const int64_t fd = env.Open("eq_d", VOpenFlags::kCreate | VOpenFlags::kWrite);
    env.Write(fd, which == 0 ? std::string("good") : std::string("evil"));
    env.Close(fd);
  };

  const MveeOptions options = DefaultOptions(2);
  {
    Mvee mvee(options);
    const Status status = mvee.Run(clean_workload);
    EXPECT_TRUE(status.ok()) << status.ToString();
    EXPECT_GT(mvee.report().order_domains_created, 0u);
  }
  {
    Mvee mvee(options);
    const Status status = mvee.Run(divergent_workload);
    EXPECT_EQ(status.code(), StatusCode::kDivergence);
  }
}

TEST(MveeReportTest, CountersPopulated) {
  Mvee mvee(DefaultOptions(2));
  const Status status = mvee.Run([](VariantEnv& env) {
    auto mutex = std::make_shared<Mutex>();
    mutex->Lock();
    mutex->Unlock();
    env.GettimeofdayMicros();
    env.Stat("nothing");
  });
  EXPECT_TRUE(status.ok());
  const MveeReport& report = mvee.report();
  EXPECT_GT(report.syscalls.total, 0u);
  EXPECT_GT(report.syscalls.replicated, 0u);  // gettimeofday
  EXPECT_GT(report.syscalls.ordered, 0u);     // stat
  EXPECT_GT(report.sync_ops_recorded, 0u);    // mutex ops
  EXPECT_EQ(report.sync_ops_recorded, report.sync_ops_replayed);
  EXPECT_GT(report.wall_seconds, 0.0);
}

}  // namespace
}  // namespace mvee
