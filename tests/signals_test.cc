// Deterministic signal delivery tests.
//
// Asynchronous signals are a classic source of benign divergence in MVEEs:
// if the kernel delivers a signal to variant A between syscalls 17 and 18
// but to variant B between 23 and 24, the handlers' effects interleave
// differently and the variants diverge. GHUMVEE-style monitors solve this by
// deferring delivery to a synchronization point; here that point is the
// lockstep rendezvous — every variant's copy of the target thread runs the
// handler after the same syscall. These tests pin that contract.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "mvee/monitor/mvee.h"
#include "mvee/monitor/native.h"
#include "mvee/sync/primitives.h"

namespace mvee {
namespace {

constexpr int32_t kSigUsr1 = 10;
constexpr int32_t kSigUsr2 = 12;

MveeOptions TestOptions(uint32_t variants = 2) {
  MveeOptions options;
  options.num_variants = variants;
  options.rendezvous_timeout = std::chrono::milliseconds(60000);
  options.agent_config.replay_deadline = std::chrono::milliseconds(60000);
  return options;
}

std::string ResultOf(VirtualKernel& kernel, const std::string& name) {
  auto file = kernel.vfs().Open(name, false);
  if (file == nullptr) {
    return "";
  }
  const auto bytes = file->Contents();
  return std::string(bytes.begin(), bytes.end());
}

TEST(SignalTest, SelfKillDeliversHandlerOnce) {
  Mvee mvee(TestOptions(2));
  const Status status = mvee.Run([](VariantEnv& env) {
    auto hits = std::make_shared<int>(0);
    env.Sigaction(kSigUsr1, [hits](VariantEnv&) { ++*hits; });
    env.Kill(/*tid=*/0, kSigUsr1);
    // The kill rendezvous itself is the delivery point for a self-signal.
    const int64_t fd = env.Open("result/selfkill",
                                VOpenFlags::kWrite | VOpenFlags::kCreate);
    env.Write(fd, std::to_string(*hits));
    env.Close(fd);
  });
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(ResultOf(mvee.kernel(), "result/selfkill"), "1");
}

TEST(SignalTest, UnhandledSignalIsIgnored) {
  Mvee mvee(TestOptions(2));
  const Status status = mvee.Run([](VariantEnv& env) {
    env.Kill(0, kSigUsr2);  // Nobody registered a handler.
    env.Gettid();
  });
  EXPECT_TRUE(status.ok()) << status.ToString();
}

TEST(SignalTest, CrossThreadKillDeliversToTargetThread) {
  Mvee mvee(TestOptions(2));
  const Status status = mvee.Run([](VariantEnv& env) {
    struct State {
      InstrumentedAtomic<int32_t> handled{0};
      InstrumentedAtomic<int32_t> handler_tid{-1};
    };
    auto state = std::make_shared<State>();
    env.Sigaction(kSigUsr1, [state](VariantEnv& senv) {
      state->handler_tid.Store(static_cast<int32_t>(senv.tid()));
      state->handled.Store(1);
    });

    ThreadHandle worker = env.Spawn([state](VariantEnv& wenv) {
      wenv.Kill(/*tid=*/0, kSigUsr1);  // Target the main thread.
    });
    env.Join(worker);

    // Delivery happens at the main thread's next rendezvous; pump syscalls
    // until the handler ran (bounded).
    int spins = 0;
    while (state->handled.Load() == 0 && spins++ < 100) {
      env.Gettid();
    }
    const int64_t fd = env.Open("result/crosskill",
                                VOpenFlags::kWrite | VOpenFlags::kCreate);
    env.Write(fd, std::to_string(state->handler_tid.Load()));
    env.Close(fd);
  });
  ASSERT_TRUE(status.ok()) << status.ToString();
  // The handler ran on logical thread 0 — the kill's target — in every
  // variant (the lockstep write comparison proves cross-variant equality).
  EXPECT_EQ(ResultOf(mvee.kernel(), "result/crosskill"), "0");
}

TEST(SignalTest, ExternallyRaisedSignalIsDeliveredToAllVariants) {
  Mvee mvee(TestOptions(3));
  mvee.RaiseSignal(/*tid=*/0, kSigUsr1);  // Async source: queued before Run.
  const Status status = mvee.Run([](VariantEnv& env) {
    auto hits = std::make_shared<int>(0);
    env.Sigaction(kSigUsr1, [hits](VariantEnv&) { ++*hits; });
    int spins = 0;
    while (*hits == 0 && spins++ < 100) {
      env.Gettid();
    }
    const int64_t fd = env.Open("result/external",
                                VOpenFlags::kWrite | VOpenFlags::kCreate);
    env.Write(fd, std::to_string(*hits));
    env.Close(fd);
  });
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(ResultOf(mvee.kernel(), "result/external"), "1");
}

TEST(SignalTest, HandlerMayMakeSyscalls) {
  Mvee mvee(TestOptions(2));
  const Status status = mvee.Run([](VariantEnv& env) {
    env.Sigaction(kSigUsr1, [](VariantEnv& senv) {
      // The handler's own syscalls rendezvous like any other: every variant
      // runs the same handler at the same point.
      const int64_t fd = senv.Open("result/from_handler",
                                   VOpenFlags::kWrite | VOpenFlags::kCreate);
      senv.Write(fd, std::string("handled"));
      senv.Close(fd);
    });
    env.Kill(0, kSigUsr1);
    env.Gettid();
  });
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(ResultOf(mvee.kernel(), "result/from_handler"), "handled");
}

TEST(SignalTest, QueuedSignalsDeliverInOrder) {
  Mvee mvee(TestOptions(2));
  const Status status = mvee.Run([](VariantEnv& env) {
    auto log = std::make_shared<std::string>();
    env.Sigaction(kSigUsr1, [log](VariantEnv&) { *log += "1"; });
    env.Sigaction(kSigUsr2, [log](VariantEnv&) { *log += "2"; });
    env.Kill(0, kSigUsr1);
    env.Kill(0, kSigUsr2);
    env.Kill(0, kSigUsr1);
    int spins = 0;
    while (log->size() < 3 && spins++ < 100) {
      env.Gettid();
    }
    const int64_t fd = env.Open("result/order",
                                VOpenFlags::kWrite | VOpenFlags::kCreate);
    env.Write(fd, *log);
    env.Close(fd);
  });
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(ResultOf(mvee.kernel(), "result/order"), "121");
}

TEST(SignalTest, DivergentRegistrationIsDetected) {
  Mvee mvee(TestOptions(2));
  const Status status = mvee.Run([](VariantEnv& env) {
    // A compromised variant registering a different handler signature is
    // caught at the sigaction rendezvous (the call is security-sensitive).
    const int32_t sig = env.MveeSelfAware() == 0 ? kSigUsr1 : kSigUsr2;
    env.Sigaction(sig, [](VariantEnv&) {});
    env.Gettid();
  });
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kDivergence);
}

TEST(SignalTest, LooseModeDeliversAtSameRecordIndex) {
  MveeOptions options = TestOptions(2);
  options.sync_model = SyncModel::kLoose;
  Mvee mvee(options);
  const Status status = mvee.Run([](VariantEnv& env) {
    auto hits = std::make_shared<int>(0);
    env.Sigaction(kSigUsr1, [hits](VariantEnv&) { ++*hits; });
    env.Kill(0, kSigUsr1);
    int spins = 0;
    while (*hits == 0 && spins++ < 100) {
      env.Gettid();
    }
    const int64_t fd = env.Open("result/loose_signal",
                                VOpenFlags::kWrite | VOpenFlags::kCreate);
    env.Write(fd, std::to_string(*hits));
    env.Close(fd);
  });
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(ResultOf(mvee.kernel(), "result/loose_signal"), "1");
}

TEST(SignalTest, DeliveryIsDeterministicAcrossManyVariants) {
  // The strongest property: with 4 variants and a worker thread pumping
  // syscalls concurrently, the handler still interleaves identically in all
  // variants — the lockstep comparison of the final digest would trip
  // otherwise.
  Mvee mvee(TestOptions(4));
  const Status status = mvee.Run([](VariantEnv& env) {
    struct State {
      Mutex lock;
      std::vector<int32_t> log;
      InstrumentedAtomic<int32_t> done{0};
    };
    auto state = std::make_shared<State>();
    env.Sigaction(kSigUsr1, [state](VariantEnv&) {
      LockGuard<Mutex> guard(state->lock);
      state->log.push_back(-1);  // Handler marker.
    });

    ThreadHandle worker = env.Spawn([state](VariantEnv& wenv) {
      for (int i = 0; i < 20; ++i) {
        {
          LockGuard<Mutex> guard(state->lock);
          state->log.push_back(i);
        }
        wenv.Gettid();
        if (i == 5) {
          wenv.Kill(/*tid=*/0, kSigUsr1);
        }
      }
      state->done.Store(1);
    });

    // Spin until the worker is done (its Kill comes first), then until the
    // handler ran. The cap bounds only the wait for a delivery that never
    // comes, not the worker's progress, which a loaded host can delay
    // arbitrarily.
    int spins = 0;
    bool handled = false;
    while (state->done.Load() == 0 || (!handled && spins++ < 500)) {
      env.Gettid();
      LockGuard<Mutex> guard(state->lock);
      for (int32_t entry : state->log) {
        handled = handled || entry == -1;
      }
    }
    env.Join(worker);

    std::string digest;
    {
      LockGuard<Mutex> guard(state->lock);
      for (int32_t entry : state->log) {
        digest += std::to_string(entry) + ",";
      }
    }
    const int64_t fd = env.Open("result/det_signal",
                                VOpenFlags::kWrite | VOpenFlags::kCreate);
    env.Write(fd, digest);
    env.Close(fd);
  });
  ASSERT_TRUE(status.ok()) << status.ToString();
  const std::string digest = ResultOf(mvee.kernel(), "result/det_signal");
  EXPECT_NE(digest.find("-1"), std::string::npos) << "handler marker present: " << digest;
}

TEST(SignalTest, NativeRunnerParity) {
  NativeRunner runner;
  int hits = 0;
  const Status status = runner.Run([&hits](VariantEnv& env) {
    env.Sigaction(kSigUsr1, [&hits](VariantEnv&) { ++hits; });
    env.Kill(0, kSigUsr1);
    env.Gettid();  // Delivery point.
  });
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(hits, 1);
}

}  // namespace
}  // namespace mvee
