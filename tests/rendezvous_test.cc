// Wait-free rendezvous tests: the round-slab protocol under many thread sets
// and variant counts, failure paths under the slab
// (timeouts with parked waiters, digest divergence), deterministic signal
// latching, the in-place payload compare, and — via a binary-wide operator
// new override — the zero-allocation guarantee on the replicated hot path
// (pooled payload arena + pooled loose records).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "mvee/monitor/mvee.h"
#include "mvee/sync/primitives.h"
#include "mvee/util/fault_injection.h"
#include "mvee/util/park.h"

// --- Binary-wide heap allocation counter ------------------------------------
//
// Every operator new in this binary bumps g_heap_allocs. The allocation tests
// snapshot the counter inside a steady-state syscall loop: any heap traffic
// from the rendezvous, the payload replication, or the loose ring shows up as
// a nonzero delta. Deletes are not tracked (only allocation matters).

namespace {
std::atomic<uint64_t> g_heap_allocs{0};

void* CountedAlloc(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* ptr = std::malloc(size == 0 ? 1 : size)) {
    return ptr;
  }
  throw std::bad_alloc{};
}

void* CountedAlignedAlloc(std::size_t size, std::size_t align) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  void* ptr = nullptr;
  if (posix_memalign(&ptr, align < sizeof(void*) ? sizeof(void*) : align,
                     size == 0 ? 1 : size) != 0) {
    throw std::bad_alloc{};
  }
  return ptr;
}
}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::align_val_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::align_val_t) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t, std::align_val_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t, std::align_val_t) noexcept { std::free(ptr); }

namespace mvee {
namespace {

constexpr int32_t kSigUsr1 = 10;

MveeOptions Opts(uint32_t variants = 2) {
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

// --- Protocol equivalence ----------------------------------------------------

// Many thread sets, many rounds, all four syscall classes in the mix. The run
// must return a clean verdict AND open exactly one round per call the
// program makes — no round lost, none opened twice.
TEST(RendezvousStressTest, ManyThreadSetsMixedClasses) {
  MveeOptions options = Opts(2);
  Mvee mvee(options);
  mvee.kernel().vfs().PutFile("stress_in", std::vector<uint8_t>(128, 0x5a));
  const Status status = mvee.Run([](VariantEnv& env) {
    std::vector<ThreadHandle> handles;
    for (int t = 0; t < 6; ++t) {
      handles.push_back(env.Spawn([t](VariantEnv& wenv) {
        std::vector<uint8_t> buffer(64);
        const int64_t in_fd = wenv.Open("stress_in", VOpenFlags::kRead);
        const int64_t out_fd = wenv.Open("stress_out_" + std::to_string(t),
                                         VOpenFlags::kCreate | VOpenFlags::kWrite);
        for (int i = 0; i < 30; ++i) {
          wenv.Read(in_fd, buffer);            // replicated (payload)
          wenv.Lseek(in_fd, 0, 0 /*SEEK_SET*/);  // ordered
          wenv.Gettid();                       // local
          wenv.MveeSelfAware();                // control
          wenv.GettimeofdayMicros();           // replicated (no payload)
        }
        wenv.Write(out_fd, std::string("done ") + std::to_string(t));
        wenv.Close(out_fd);
        wenv.Close(in_fd);
      }));
    }
    for (auto handle : handles) {
      env.Join(handle);
    }
  });
  ASSERT_TRUE(status.ok()) << status.ToString();
  for (int t = 0; t < 6; ++t) {
    EXPECT_EQ(FileText(mvee.kernel(), "stress_out_" + std::to_string(t)),
              "done " + std::to_string(t));
  }
  // Each worker: 2 opens, 30 x 5 loop calls, 1 write, 2 closes, 1 exit.
  // The main thread: 6 clones and its exit (Join is not a syscall).
  constexpr uint64_t kWorkerCalls = 2 + 30 * 5 + 1 + 2 + 1;
  EXPECT_EQ(mvee.report().syscalls.total, 6 * kWorkerCalls + 6 + 1);
}

// The failure side: a workload whose variants write different bytes must be
// killed as a divergence.
TEST(RendezvousStressTest, DivergentWorkloadKilled) {
  Mvee mvee(Opts());
  const Status status = mvee.Run([](VariantEnv& env) {
    const int64_t which = env.MveeSelfAware();
    const int64_t fd = env.Open("d", VOpenFlags::kCreate | VOpenFlags::kWrite);
    env.Write(fd, which == 0 ? std::string("benign") : std::string("pwned!"));
    env.Close(fd);
  });
  EXPECT_EQ(status.code(), StatusCode::kDivergence);
}

TEST(RendezvousStressTest, ThreeAndFourVariantsUnderSlab) {
  for (uint32_t n : {3u, 4u}) {
    Mvee mvee(Opts(n));
    mvee.kernel().vfs().PutFile("multi_in", std::vector<uint8_t>(32, 0x17));
    std::atomic<int> consistent{0};
    const Status status = mvee.Run([&](VariantEnv& env) {
      std::vector<uint8_t> buffer(32);
      const int64_t fd = env.Open("multi_in", VOpenFlags::kRead);
      if (env.Read(fd, buffer) == 32 && buffer[7] == 0x17) {
        consistent.fetch_add(1);
      }
      env.Close(fd);
    });
    EXPECT_TRUE(status.ok()) << n << " variants: " << status.ToString();
    EXPECT_EQ(consistent.load(), static_cast<int>(n));
  }
}

// --- Signal latching under the slab -------------------------------------------

// Deferred signals must land exactly once per round: the round's last arriver
// latches them into the slab, every variant copies the latch at drain.
TEST(RendezvousSignalTest, SignalLatchedExactlyOncePerRound) {
  Mvee mvee(Opts());
  const Status status = mvee.Run([](VariantEnv& env) {
    auto hits = std::make_shared<int>(0);
    env.Sigaction(kSigUsr1, [hits](VariantEnv&) { ++*hits; });
    env.Kill(/*tid=*/0, kSigUsr1);
    // Pump many more rounds: a latch bug (signal re-delivered from a stale
    // slab, or dropped by a reset) would change the count.
    for (int i = 0; i < 50; ++i) {
      env.Gettid();
    }
    const int64_t fd = env.Open("sig_once", VOpenFlags::kCreate | VOpenFlags::kWrite);
    env.Write(fd, std::to_string(*hits));
    env.Close(fd);
  });
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(FileText(mvee.kernel(), "sig_once"), "1");
}

// Cross-thread kill with concurrent thread sets active: the signal reaches
// the target set's next round exactly once, in every variant, while other
// sets churn rounds through the same slabs.
TEST(RendezvousSignalTest, CrossThreadKillUnderConcurrentRounds) {
  Mvee mvee(Opts());
  const Status status = mvee.Run([](VariantEnv& env) {
    struct State {
      InstrumentedAtomic<int32_t> hits{0};
    };
    auto state = std::make_shared<State>();
    env.Sigaction(kSigUsr1, [state](VariantEnv&) {
      state->hits.Store(state->hits.Load() + 1);
    });
    ThreadHandle noise = env.Spawn([](VariantEnv& wenv) {
      for (int i = 0; i < 40; ++i) {
        wenv.Gettid();
      }
    });
    ThreadHandle killer = env.Spawn([](VariantEnv& wenv) {
      wenv.Kill(/*tid=*/0, kSigUsr1);
    });
    env.Join(killer);
    int spins = 0;
    while (state->hits.Load() == 0 && spins++ < 200) {
      env.Gettid();
    }
    env.Join(noise);
    const int64_t fd = env.Open("sig_cross", VOpenFlags::kCreate | VOpenFlags::kWrite);
    env.Write(fd, std::to_string(state->hits.Load()));
    env.Close(fd);
  });
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(FileText(mvee.kernel(), "sig_cross"), "1");
}

// A kill aimed at a thread set that already ran its exit round must be
// dropped — not parked in the pending queue forever, where it would hold
// pending_signal_count above zero and silently disable every thread set's
// lock-free signal-latch fast path for the rest of the run.
TEST(RendezvousSignalTest, KillAfterTargetExitedIsDropped) {
  Mvee mvee(Opts());
  const Status status = mvee.Run([](VariantEnv& env) {
    struct State {
      InstrumentedAtomic<int32_t> worker_tid{-1};
      InstrumentedAtomic<int32_t> hits{0};
    };
    auto state = std::make_shared<State>();
    env.Sigaction(kSigUsr1, [state](VariantEnv&) {
      state->hits.Store(state->hits.Load() + 1);
    });
    ThreadHandle worker = env.Spawn([state](VariantEnv& wenv) {
      state->worker_tid.Store(static_cast<int32_t>(wenv.Gettid()));
    });
    env.Join(worker);  // Worker ran its exit round; its tid is gone.
    env.Kill(static_cast<uint32_t>(state->worker_tid.Load()), kSigUsr1);
    for (int i = 0; i < 20; ++i) {
      env.Gettid();
    }
    const int64_t fd = env.Open("sig_dead", VOpenFlags::kCreate | VOpenFlags::kWrite);
    env.Write(fd, std::to_string(state->hits.Load()));
    env.Close(fd);
  });
  ASSERT_TRUE(status.ok()) << status.ToString();
  // Nobody latched it, nobody ever will: the handler must not have run.
  EXPECT_EQ(FileText(mvee.kernel(), "sig_dead"), "0");
}

// --- Failure paths under the slab ---------------------------------------------

// A variant that never arrives must trip the rendezvous timeout even though
// the waiting sibling has long since exhausted its spin budget and parked —
// the parked wait still polls the deadline.
TEST(RendezvousFailureTest, MissingVariantTripsTimeoutWhileParked) {
  MveeOptions options = Opts();
  options.rendezvous_timeout = std::chrono::milliseconds(300);
  Mvee mvee(options);
  const auto start = std::chrono::steady_clock::now();
  const Status status = mvee.Run([](VariantEnv& env) {
    if (env.MveeSelfAware() == 0) {
      env.Stat("x");  // The sibling never arrives at this call...
    } else {
      // ... because it stalls without making any syscall.
      std::this_thread::sleep_for(std::chrono::milliseconds(1200));
    }
  });
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(status.code(), StatusCode::kTimeout);
  EXPECT_NE(mvee.report().divergence_detail.find("rendezvous timeout"), std::string::npos)
      << mvee.report().divergence_detail;
  // The timeout fired from the parked wait, not from the 20s default.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count(), 5000);
}

// A mismatched digest kills the MVEE with an actionable report naming the
// mismatching call.
TEST(RendezvousFailureTest, DigestMismatchKillsWithUsefulReport) {
  Mvee mvee(Opts());
  const Status status = mvee.Run([](VariantEnv& env) {
    const int64_t which = env.MveeSelfAware();
    const int64_t fd = env.Open("m", VOpenFlags::kCreate | VOpenFlags::kWrite);
    env.Write(fd, which == 0 ? std::string("aaaa") : std::string("bbbb"));
    env.Close(fd);
  });
  EXPECT_EQ(status.code(), StatusCode::kDivergence);
  const std::string& detail = mvee.report().divergence_detail;
  EXPECT_NE(detail.find("argument mismatch"), std::string::npos) << detail;
  EXPECT_NE(detail.find("sys_write"), std::string::npos) << detail;
}

// No lost wakeups with parked waiters: one variant repeatedly arrives late
// enough that the other exhausts its spin budget and parks, and every round
// still completes (a dropped wake would surface as a rendezvous timeout).
TEST(RendezvousFailureTest, ParkedWaiterWakesWhenLatePeerArrives) {
  Mvee mvee(Opts());
  const Status status = mvee.Run([](VariantEnv& env) {
    const bool laggard = env.MveeSelfAware() == 1;
    for (int i = 0; i < 5; ++i) {
      if (laggard) {
        std::this_thread::sleep_for(std::chrono::milliseconds(120));
      }
      env.Gettid();
    }
  });
  EXPECT_TRUE(status.ok()) << status.ToString();
}

// Same discipline on the master-publication edge: the master blocks inside
// the kernel (nanosleep) long past the slaves' spin budget; the parked
// slaves must pick up the published result promptly, not via slice polling
// of a stale ticket (which a lost wake would degrade to).
TEST(RendezvousFailureTest, ParkedSlaveSeesLateMasterResult) {
  Mvee mvee(Opts(3));
  std::atomic<int> agreed{0};
  const Status status = mvee.Run([&](VariantEnv& env) {
    for (int i = 0; i < 3; ++i) {
      env.NanosleepNanos(120 * 1000 * 1000);  // Master executes; slaves park.
    }
    if (env.Gettid() == 0) {
      agreed.fetch_add(1);
    }
  });
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(agreed.load(), 3);
}

// The waiters' rendezvous deadline covers the gather only: once the round
// is claimed, a master call that blocks in the kernel far past
// rendezvous_timeout (a futex wait, woken by a sibling thread after twice
// the budget) must not turn into a timeout verdict for the member waiting
// on its result.
TEST(RendezvousFailureTest, BlockedMasterCallIsNoRendezvousTimeout) {
  MveeOptions options = Opts();
  options.rendezvous_timeout = std::chrono::milliseconds(150);
  Mvee mvee(options);
  const Status status = mvee.Run([&](VariantEnv& env) {
    std::atomic<int32_t> word{0};
    ThreadHandle waker = env.Spawn([&word](VariantEnv& wenv) {
      std::this_thread::sleep_for(std::chrono::milliseconds(300));
      word.store(1, std::memory_order_release);
      wenv.FutexWake(&word, 1);
    });
    while (word.load(std::memory_order_acquire) == 0) {
      env.FutexWait(&word, 0);
    }
    env.Join(waker);
  });
  EXPECT_TRUE(status.ok()) << status.ToString() << " " << mvee.report().divergence_detail;
  EXPECT_TRUE(mvee.report().excised_variants.empty());
}

// --- Lockstep payload compare ------------------------------------------------

// Writes a 4096-byte body and then a short trailer. With `corrupt_last_byte`
// set, variant 2's body differs from the others' in its last byte only.
Program PayloadProgram(bool corrupt_last_byte) {
  return [corrupt_last_byte](VariantEnv& env) {
    const int64_t which = env.MveeSelfAware();
    std::vector<uint8_t> body(4096);
    for (size_t i = 0; i < body.size(); ++i) {
      body[i] = static_cast<uint8_t>(i * 7 + 3);
    }
    if (corrupt_last_byte && which == 2) {
      body.back() ^= 0x01;
    }
    const int64_t fd = env.Open("body", VOpenFlags::kCreate | VOpenFlags::kWrite);
    env.Write(fd, body);
    env.Write(fd, std::string("done\n"));
    env.Close(fd);
  };
}

// The opener compares in_data bytes in place: a difference in the very last
// byte of a 4 KiB payload is a single-outlier divergence, excised at round
// open, and the report names the byte.
TEST(LockstepPayloadCompareTest, LastByteOutlierIsExcisedAndNamed) {
  MveeOptions options = Opts(3);
  options.on_variant_failure = VariantFailurePolicy::kExcise;
  options.min_survivors = 2;
  std::string reference;
  {
    Mvee mvee(options);
    const Status status = mvee.Run(PayloadProgram(/*corrupt_last_byte=*/false));
    ASSERT_TRUE(status.ok()) << status.ToString();
    EXPECT_TRUE(mvee.report().excised_variants.empty());
    reference = FileText(mvee.kernel(), "body");
    ASSERT_EQ(reference.size(), 4096u + 5u);
  }
  Mvee mvee(options);
  const Status status = mvee.Run(PayloadProgram(/*corrupt_last_byte=*/true));
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(FileText(mvee.kernel(), "body"), reference);
  const auto& excised = mvee.report().excised_variants;
  ASSERT_EQ(excised.size(), 1u);
  EXPECT_EQ(excised[0].variant, 2u);
  EXPECT_EQ(excised[0].code, StatusCode::kDivergence);
  EXPECT_NE(excised[0].detail.find("argument mismatch (in_data byte 4095)"),
            std::string::npos)
      << excised[0].detail;
}

// Equal scalars, payload sizes that differ while sharing a prefix: a
// divergence, and the report names the size. Under ASan this also shows
// that no buffer is read past its end.
TEST(LockstepPayloadCompareTest, PayloadSizeMismatchDiverges) {
  Mvee mvee(Opts(2));
  const Status status = mvee.Run([](VariantEnv& env) {
    const int64_t which = env.MveeSelfAware();
    const std::vector<uint8_t> body(which == 0 ? 64 : 65, 0x5a);
    const int64_t fd = env.Open("sized", VOpenFlags::kCreate | VOpenFlags::kWrite);
    SyscallRequest request;
    request.sysno = Sysno::kWrite;
    request.arg0 = fd;
    request.arg1 = 64;  // The scalars agree; only in_data's size does not.
    request.in_data = body;
    env.Syscall(request);
    env.Close(fd);
  });
  EXPECT_EQ(status.code(), StatusCode::kDivergence);
  const std::string& detail = mvee.report().divergence_detail;
  EXPECT_NE(detail.find("argument mismatch (in_data size)"), std::string::npos) << detail;
}

// The size check comes before the memcmp, whatever the digests say: two
// exactly-sized heap buffers with a shared prefix compare unequal in either
// order without reading past the shorter one (ASan would flag the read).
TEST(LockstepPayloadCompareTest, SizeIsCheckedBeforeBytes) {
  auto shorter = std::make_unique<uint8_t[]>(64);
  auto longer = std::make_unique<uint8_t[]>(65);
  std::fill_n(shorter.get(), 64, 0x5a);
  std::fill_n(longer.get(), 65, 0x5a);
  SyscallRequest a;
  a.sysno = Sysno::kSend;
  a.arg0 = 5;
  a.in_data = std::span<const uint8_t>(shorter.get(), 64);
  SyscallRequest b = a;
  b.in_data = std::span<const uint8_t>(longer.get(), 65);
  EXPECT_FALSE(a.SamePayload(b));
  EXPECT_FALSE(b.SamePayload(a));
  EXPECT_EQ(a.FirstComparedDifference(b), "in_data size");
  b.in_data = std::span<const uint8_t>(longer.get(), 64);
  EXPECT_TRUE(a.SamePayload(b));
  EXPECT_EQ(a.FirstComparedDifference(b), "");
}

// --- Zero allocations on the hot path --------------------------------------------

// Lockstep + slab: after warmup (slab payload pools sized, fd table built),
// a replicated-read storm must not allocate at all — the payload lives in
// the slab's pooled arena and slaves copy spans, not vectors.
TEST(RendezvousAllocationTest, LockstepReplicatedReadHotPathIsAllocationFree) {
  MveeOptions options = Opts();
  Mvee mvee(options);
  mvee.kernel().vfs().PutFile("blob", std::vector<uint8_t>(64, 0xab));
  std::atomic<uint64_t> allocations{0};
  const Status status = mvee.Run([&](VariantEnv& env) {
    std::vector<uint8_t> buffer(64);
    const int64_t fd = env.Open("blob", VOpenFlags::kRead);
    // Warmup: touch every slab in the ring (payload pools grow once) and
    // settle lazy monitor state.
    for (int i = 0; i < 64; ++i) {
      env.Read(fd, buffer);
      env.Lseek(fd, 0, 0 /*SEEK_SET*/);
    }
    const uint64_t before = g_heap_allocs.load(std::memory_order_relaxed);
    for (int i = 0; i < 256; ++i) {
      env.Read(fd, buffer);
      env.Lseek(fd, 0, 0 /*SEEK_SET*/);
    }
    const uint64_t after = g_heap_allocs.load(std::memory_order_relaxed);
    allocations.fetch_add(after - before);
    env.Close(fd);
  });
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(allocations.load(), 0u)
      << "heap allocations leaked into the lockstep replicated-read hot path";
}

// The fault-injection sites woven through RunSyscall and the vkernel
// (docs/fault_injection.md) ride the same hot paths the storms above measure:
// since fault_plan is empty here, both lockstep storms already prove the
// DISARMED sites allocation-free. This pins the per-check cost down
// explicitly: a disarmed ShouldFire is one relaxed load and a predicted
// branch, so a multi-million-call storm must stay allocation-free and far
// under the cost of even an uncontended mutex round-trip.
TEST(RendezvousAllocationTest, DisarmedFaultSitesAreFree) {
  FaultInjector injector;  // never armed
  const uint64_t before = g_heap_allocs.load(std::memory_order_relaxed);
  const auto start = std::chrono::steady_clock::now();
  constexpr uint64_t kCalls = 4'000'000;
  uint64_t fired = 0;
  for (uint64_t i = 0; i < kCalls; ++i) {
    // Rotate sites/variants so the branch predictor sees the real mix.
    const auto site = static_cast<FaultSite>(i % kFaultSiteCount);
    fired += injector.ShouldFire(site, static_cast<uint32_t>(i % 4)) ? 1 : 0;
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  const uint64_t after = g_heap_allocs.load(std::memory_order_relaxed);
  EXPECT_EQ(fired, 0u);
  EXPECT_EQ(after - before, 0u)
      << "a disarmed fault site allocated on the hot path";
  const double ns_per_call =
      static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count()) /
      static_cast<double>(kCalls);
  // Generous bound (a CI-shared core still does a relaxed load + branch in
  // single-digit ns); catches any regression that puts a lock, a map lookup,
  // or a string build on the disarmed path.
  EXPECT_LT(ns_per_call, 50.0) << "disarmed ShouldFire cost " << ns_per_call << " ns/call";
}

// Loose mode: the ring's pooled records (no shared_ptr churn) and pooled
// payloads make the leader/follower steady state allocation-free too.
TEST(RendezvousAllocationTest, LooseHotPathIsAllocationFree) {
  MveeOptions options = Opts();
  options.sync_model = SyncModel::kLoose;
  options.loose_buffer_depth = 8;  // Small pool: warmup touches every record.
  Mvee mvee(options);
  mvee.kernel().vfs().PutFile("blob", std::vector<uint8_t>(64, 0xcd));
  std::atomic<uint64_t> allocations{0};
  const Status status = mvee.Run([&](VariantEnv& env) {
    // Loose mode has no lockstep alignment: the leader runs up to the ring
    // depth ahead, so a follower-side window would catch the leader's
    // POST-window syscalls (close teardown, the once-per-thread exit-round
    // bookkeeping). Measure on the leader; the lagging follower's replay of
    // the same storm falls inside the leader's window anyway, so its
    // allocations would still be caught.
    const bool leader = env.MveeSelfAware() == 0;
    std::vector<uint8_t> buffer(64);
    const int64_t fd = env.Open("blob", VOpenFlags::kRead);
    for (int i = 0; i < 64; ++i) {
      env.Read(fd, buffer);
      env.Lseek(fd, 0, 0 /*SEEK_SET*/);
    }
    const uint64_t before = g_heap_allocs.load(std::memory_order_relaxed);
    for (int i = 0; i < 256; ++i) {
      env.Read(fd, buffer);
      env.Lseek(fd, 0, 0 /*SEEK_SET*/);
    }
    const uint64_t after = g_heap_allocs.load(std::memory_order_relaxed);
    if (leader) {
      allocations.fetch_add(after - before);
    }
    env.Close(fd);
  });
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(allocations.load(), 0u)
      << "heap allocations leaked into the loose-mode hot path";
}

// --- ParkingSpot ------------------------------------------------------------------

TEST(ParkingSpotTest, WakeLiftsParkedWaiterPromptly) {
  ParkingSpot spot;
  std::atomic<bool> flag{false};
  std::atomic<bool> observed{false};
  std::thread waiter([&] {
    while (!flag.load(std::memory_order_acquire)) {
      spot.BeginPark();
      const uint64_t ticket = spot.Ticket();
      if (flag.load(std::memory_order_acquire)) {
        spot.EndPark();
        break;
      }
      spot.WaitTicket(ticket, std::chrono::microseconds(200000));
      spot.EndPark();
    }
    observed.store(true, std::memory_order_release);
  });
  // Give the waiter time to actually park, then publish + wake.
  while (spot.parked() == 0) {
    std::this_thread::yield();
  }
  const auto start = std::chrono::steady_clock::now();
  flag.store(true, std::memory_order_release);
  spot.WakeParked();
  waiter.join();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_TRUE(observed.load());
  // Far below the 200ms slice: the wake, not the slice timeout, lifted it.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count(), 150);
}

TEST(ParkingSpotTest, WakeWithNobodyParkedIsANoOp) {
  ParkingSpot spot;
  spot.WakeParked();  // Must not touch the mutex path or crash.
  EXPECT_EQ(spot.parked(), 0u);
}

}  // namespace
}  // namespace mvee
