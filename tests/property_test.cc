// Property-style sweeps (parameterized gtest) over the configuration spaces
// of the replication agents, the analysis pipeline, and the virtual kernel.
//
// These are the invariants docs/DESIGN.md §5 commits to:
//   P1  replay correctness: for every agent kind, variant count, thread
//       count and buffer size, every slave reproduces the master's per-
//       variable sync-op order;
//   P2  WoC wall-size independence: any clock_count >= 1 is correct
//       (collisions only serialize, §4.5);
//   P3  analysis exactness on generated ground truth, for any seed;
//   P4  kernel determinism: equal seeds + equal request streams => equal
//       results;
//   P5  compare sensitivity: every compared field (one in_data byte
//       included) flags a mismatch, in the lockstep comparator (scalar
//       digest + in-place payload compare) and in loose mode's digest, and
//       only compared fields do.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "mvee/agents/agent_fleet.h"
#include "mvee/agents/context.h"
#include "mvee/analysis/corpus.h"
#include "mvee/analysis/syncop_analysis.h"
#include "mvee/sync/primitives.h"
#include "mvee/util/rng.h"
#include "mvee/util/variant_killed.h"
#include "mvee/vkernel/vkernel.h"

namespace mvee {
namespace {

// --- P1 / P2: agent replay matrix ---

struct AgentMatrixParam {
  AgentKind kind;
  uint32_t variants;
  uint32_t threads;
  size_t buffer_capacity;
  size_t clock_count;
  size_t po_window = 1 << 12;
};

std::string ParamName(const ::testing::TestParamInfo<AgentMatrixParam>& info) {
  const auto& p = info.param;
  std::string name = AgentKindName(p.kind);
  for (char& c : name) {
    if (c == '-') {
      c = '_';
    }
  }
  return name + "_v" + std::to_string(p.variants) + "_t" + std::to_string(p.threads) + "_b" +
         std::to_string(p.buffer_capacity) + "_c" + std::to_string(p.clock_count) + "_w" +
         std::to_string(p.po_window);
}

class AgentMatrixTest : public ::testing::TestWithParam<AgentMatrixParam> {};

TEST_P(AgentMatrixTest, ReplayPreservesPerLockOrder) {
  const AgentMatrixParam& param = GetParam();
  AgentConfig config;
  config.num_variants = param.variants;
  config.max_threads = param.threads;
  config.buffer_capacity = param.buffer_capacity;
  config.clock_count = param.clock_count;
  config.po_window = param.po_window;
  config.replay_deadline = std::chrono::milliseconds(30000);
  std::atomic<bool> abort{false};
  AgentControl control;
  control.abort_flag = &abort;
  AgentFleet fleet(param.kind, config, control);

  constexpr size_t kLocks = 5;
  constexpr int kOps = 60;
  struct VariantState {
    explicit VariantState(size_t n) : locks(n), logs(n) {}
    std::vector<SpinLock> locks;
    std::vector<std::vector<uint32_t>> logs;
  };
  std::vector<std::unique_ptr<VariantState>> states;
  std::vector<std::unique_ptr<SyncAgent>> agents;
  for (uint32_t v = 0; v < param.variants; ++v) {
    states.push_back(std::make_unique<VariantState>(kLocks));
    agents.push_back(fleet.CreateAgent(v));
  }

  std::vector<std::thread> workers;
  std::atomic<bool> failed{false};
  for (uint32_t v = 0; v < param.variants; ++v) {
    for (uint32_t t = 0; t < param.threads; ++t) {
      workers.emplace_back([&, v, t] {
        SyncContext context{agents[v].get(), nullptr, t};
        ScopedSyncContext scoped(&context);
        Rng rng(7'000 + t);
        try {
          for (int i = 0; i < kOps; ++i) {
            const size_t lock = rng.NextBelow(kLocks);
            states[v]->locks[lock].Lock();
            states[v]->logs[lock].push_back(t);
            states[v]->locks[lock].Unlock();
          }
        } catch (const VariantKilled&) {
          failed.store(true);
        }
      });
    }
  }
  for (auto& worker : workers) {
    worker.join();
  }
  ASSERT_FALSE(failed.load());
  for (uint32_t v = 1; v < param.variants; ++v) {
    for (size_t lock = 0; lock < kLocks; ++lock) {
      EXPECT_EQ(states[0]->logs[lock], states[v]->logs[lock])
          << "variant " << v << " lock " << lock;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, AgentMatrixTest,
    ::testing::Values(
        // P1: kind x variants x threads.
        AgentMatrixParam{AgentKind::kTotalOrder, 2, 2, 1 << 12, 64},
        AgentMatrixParam{AgentKind::kTotalOrder, 3, 4, 1 << 12, 64},
        AgentMatrixParam{AgentKind::kTotalOrder, 4, 2, 1 << 12, 64},
        AgentMatrixParam{AgentKind::kPartialOrder, 2, 4, 1 << 12, 64},
        AgentMatrixParam{AgentKind::kPartialOrder, 3, 2, 1 << 12, 64},
        AgentMatrixParam{AgentKind::kPartialOrder, 4, 4, 1 << 12, 64},
        AgentMatrixParam{AgentKind::kWallOfClocks, 2, 4, 1 << 12, 64},
        AgentMatrixParam{AgentKind::kWallOfClocks, 3, 3, 1 << 12, 64},
        AgentMatrixParam{AgentKind::kWallOfClocks, 4, 4, 1 << 12, 64},
        // Tiny buffers: heavy producer backpressure, still correct.
        AgentMatrixParam{AgentKind::kTotalOrder, 2, 4, 16, 64},
        AgentMatrixParam{AgentKind::kPartialOrder, 2, 4, 16, 64},
        AgentMatrixParam{AgentKind::kWallOfClocks, 2, 4, 16, 64},
        // P2: degenerate and large clock walls (WoC only).
        AgentMatrixParam{AgentKind::kWallOfClocks, 2, 4, 1 << 12, 1},
        AgentMatrixParam{AgentKind::kWallOfClocks, 2, 4, 1 << 12, 2},
        AgentMatrixParam{AgentKind::kWallOfClocks, 2, 4, 1 << 12, 65536},
        AgentMatrixParam{AgentKind::kWallOfClocks, 3, 4, 1 << 12, 7},
        // Per-variable-order ablation agent: same contract as the others,
        // including under a deliberately tiny table (clock_count 1 => the
        // address table saturates and falls back to hashed sharing).
        AgentMatrixParam{AgentKind::kPerVariableOrder, 2, 4, 1 << 12, 64},
        AgentMatrixParam{AgentKind::kPerVariableOrder, 3, 3, 1 << 12, 64},
        AgentMatrixParam{AgentKind::kPerVariableOrder, 4, 4, 1 << 12, 64},
        AgentMatrixParam{AgentKind::kPerVariableOrder, 2, 4, 16, 64},
        AgentMatrixParam{AgentKind::kPerVariableOrder, 2, 4, 1 << 12, 1},
        // Partial-order lookahead windows from degenerate (1 = TO-like) to
        // tiny: correctness must hold at any window size.
        AgentMatrixParam{AgentKind::kPartialOrder, 2, 4, 1 << 12, 64, 1},
        AgentMatrixParam{AgentKind::kPartialOrder, 2, 4, 1 << 12, 64, 2},
        AgentMatrixParam{AgentKind::kPartialOrder, 3, 4, 1 << 12, 64, 8},
        AgentMatrixParam{AgentKind::kPartialOrder, 4, 2, 1 << 12, 64, 16}),
    ParamName);

// --- P3: analysis exactness on generated ground truth ---

class AnalysisSeedTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AnalysisSeedTest, IdentificationExactForAnySeed) {
  CorpusSpec spec{"random_module", 37, 11, 23, 150, 60};
  const MirModule module = BuildSyntheticModule(spec, /*seed=*/GetParam());
  for (auto identify : {IdentifySyncOps, IdentifySyncOpsAndersen}) {
    const SyncOpReport report = identify(module, {});
    EXPECT_EQ(report.type_i.size(), spec.type_i);
    EXPECT_EQ(report.type_ii.size(), spec.type_ii);
    EXPECT_EQ(report.type_iii.size(), spec.type_iii);   // Soundness.
    EXPECT_EQ(report.unmarked_memops, spec.noise_memops);  // Precision.
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AnalysisSeedTest,
                         ::testing::Values(1, 2, 3, 42, 1234, 99999, 0xdeadbeef));

// --- P4: kernel determinism ---

TEST(KernelDeterminismTest, EqualSeedsEqualResults) {
  auto run_script = [](uint64_t seed) {
    VirtualKernel kernel(seed);
    ProcessState process(1, 0x10000, 0x100000);
    std::vector<int64_t> results;
    Rng rng(555);
    for (int i = 0; i < 200; ++i) {
      SyscallRequest request;
      switch (rng.NextBelow(5)) {
        case 0: {
          request.sysno = Sysno::kOpen;
          request.path = "f" + std::to_string(rng.NextBelow(8));
          request.arg0 = VOpenFlags::kCreate | VOpenFlags::kWrite;
          break;
        }
        case 1: {
          request.sysno = Sysno::kClose;
          request.arg0 = static_cast<int64_t>(rng.NextBelow(12));
          break;
        }
        case 2: {
          request.sysno = Sysno::kBrk;
          request.arg0 = static_cast<int64_t>(rng.NextBelow(3)) * 4096;
          break;
        }
        case 3: {
          request.sysno = Sysno::kMmap;
          request.arg0 = 4096;
          request.arg1 = VProt::kRead;
          break;
        }
        default: {
          request.sysno = Sysno::kStat;
          request.path = "f" + std::to_string(rng.NextBelow(8));
          break;
        }
      }
      results.push_back(kernel.Execute(process, request).retval);
    }
    return results;
  };
  EXPECT_EQ(run_script(7), run_script(7));
}

// --- P5: compare sensitivity ---

TEST(DigestPropertyTest, EveryComparedFieldPerturbs) {
  SyscallRequest base;
  base.sysno = Sysno::kWrite;
  base.arg0 = 3;
  base.arg1 = 5;
  base.arg2 = 7;
  base.arg3 = 9;
  base.path = "p";
  base.logical_addr = 0x100;
  const uint64_t digest = base.ComparableDigest();

  {
    SyscallRequest x = base;
    x.sysno = Sysno::kRead;
    EXPECT_NE(x.ComparableDigest(), digest);
  }
  {
    SyscallRequest x = base;
    x.arg0 = 4;
    EXPECT_NE(x.ComparableDigest(), digest);
  }
  {
    SyscallRequest x = base;
    x.arg1 = 6;
    EXPECT_NE(x.ComparableDigest(), digest);
  }
  {
    SyscallRequest x = base;
    x.arg2 = 8;
    EXPECT_NE(x.ComparableDigest(), digest);
  }
  {
    SyscallRequest x = base;
    x.arg3 = 10;
    EXPECT_NE(x.ComparableDigest(), digest);
  }
  {
    SyscallRequest x = base;
    x.path = "q";
    EXPECT_NE(x.ComparableDigest(), digest);
  }
  {
    SyscallRequest x = base;
    x.logical_addr = 0x101;
    EXPECT_NE(x.ComparableDigest(), digest);
  }
}

TEST(DigestPropertyTest, UncomparedFieldsDoNotPerturb) {
  SyscallRequest base;
  base.sysno = Sysno::kFutex;
  base.arg0 = FutexOp::kWait;
  base.arg1 = 2;
  const uint64_t digest = base.ComparableDigest();

  SyscallRequest x = base;
  x.local_addr = 0xdeadbeef;  // Raw per-variant address: excluded.
  std::atomic<int32_t> word{2};
  x.futex_word = &word;  // Pointer operand: excluded.
  EXPECT_EQ(x.ComparableDigest(), digest);
}

// The lockstep comparator as the opener applies it to two fault-free
// deposits: scalar digests first, then the in_data bytes in place.
bool LockstepMismatch(const SyscallRequest& a, const SyscallRequest& b) {
  return a.ScalarDigest() != b.ScalarDigest() || !a.SamePayload(b);
}

TEST(DigestPropertyTest, LockstepComparatorFlagsEveryComparedField) {
  const std::vector<uint8_t> bytes = {1,  2,  3,  4,  5,  6,  7,  8,  9,  10, 11,
                                      12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22,
                                      23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33};
  SyscallRequest base;
  base.sysno = Sysno::kWrite;
  base.arg0 = 3;
  base.arg1 = 5;
  base.arg2 = 7;
  base.arg3 = 9;
  base.path = "p";
  base.logical_addr = 0x100;
  base.in_data = bytes;

  const auto expect_flagged = [&](const SyscallRequest& x, const std::string& field) {
    EXPECT_TRUE(LockstepMismatch(base, x)) << field;
    EXPECT_TRUE(LockstepMismatch(x, base)) << field;
    EXPECT_EQ(base.FirstComparedDifference(x), field);
  };
  {
    SyscallRequest x = base;
    x.sysno = Sysno::kRead;
    expect_flagged(x, "sysno");
  }
  for (int i = 0; i < 4; ++i) {
    SyscallRequest x = base;
    int64_t* args[] = {&x.arg0, &x.arg1, &x.arg2, &x.arg3};
    *args[i] += 1;
    expect_flagged(x, "arg" + std::to_string(i));
  }
  {
    SyscallRequest x = base;
    x.path = "q";
    expect_flagged(x, "path");
  }
  {
    SyscallRequest x = base;
    x.logical_addr = 0x101;
    expect_flagged(x, "logical_addr");
  }
  {
    SyscallRequest x = base;
    x.in_data = std::span<const uint8_t>(bytes).first(bytes.size() - 1);
    expect_flagged(x, "in_data size");
  }
  // One flipped in_data byte, at every offset: the scalar digest agrees, the
  // in-place compare does not.
  for (size_t at = 0; at < bytes.size(); ++at) {
    std::vector<uint8_t> flipped = bytes;
    flipped[at] ^= 0x80;
    SyscallRequest x = base;
    x.in_data = flipped;
    EXPECT_EQ(x.ScalarDigest(), base.ScalarDigest()) << at;
    expect_flagged(x, "in_data byte " + std::to_string(at));
  }
}

TEST(DigestPropertyTest, LockstepComparatorIgnoresUncomparedFields) {
  const std::vector<uint8_t> bytes(40, 0x33);
  const std::vector<uint8_t> same_bytes(40, 0x33);  // Equal content, other buffer.
  std::vector<uint8_t> out_a(16, 0xAA);
  std::vector<uint8_t> out_b(16, 0xBB);
  SyscallRequest base;
  base.sysno = Sysno::kFutex;
  base.arg0 = FutexOp::kWait;
  base.arg1 = 2;
  base.in_data = bytes;
  base.out_data = out_a;

  SyscallRequest x = base;
  x.local_addr = 0xdeadbeef;  // Raw per-variant address: excluded.
  std::atomic<int32_t> word{2};
  x.futex_word = &word;  // Pointer operand: excluded.
  x.tid = 7;             // Identical across variants by construction: excluded.
  x.out_data = out_b;    // Written by the kernel, not the variant.
  x.in_data = same_bytes;
  EXPECT_FALSE(LockstepMismatch(base, x));
  EXPECT_EQ(base.FirstComparedDifference(x), "");
}

// Loose mode's word-wise digest: equal bytes in distinct buffers digest
// equally at every length (every lane/tail split), and one flipped byte at
// any offset changes the digest.
TEST(DigestPropertyTest, LooseDigestIsContentDeterminedAndByteSensitive) {
  for (size_t size = 0; size <= 72; ++size) {
    std::vector<uint8_t> a(size);
    for (size_t i = 0; i < size; ++i) {
      a[i] = static_cast<uint8_t>(i * 13 + size);
    }
    const std::vector<uint8_t> b = a;
    SyscallRequest ra;
    ra.sysno = Sysno::kSend;
    ra.in_data = a;
    SyscallRequest rb = ra;
    rb.in_data = b;
    const uint64_t digest = ra.ComparableDigest();
    EXPECT_EQ(rb.ComparableDigest(), digest) << size;
    for (size_t at = 0; at < size; ++at) {
      std::vector<uint8_t> flipped = a;
      flipped[at] ^= 0x01;
      rb.in_data = flipped;
      EXPECT_NE(rb.ComparableDigest(), digest) << size << "@" << at;
    }
  }
}

TEST(DigestPropertyTest, OutBufferContentIrrelevantSizeCompared) {
  std::vector<uint8_t> buffer_a(64, 0xAA);
  std::vector<uint8_t> buffer_b(64, 0xBB);
  SyscallRequest a;
  a.sysno = Sysno::kRead;
  a.arg0 = 3;
  a.arg1 = 64;
  a.out_data = buffer_a;
  SyscallRequest b = a;
  b.out_data = buffer_b;
  // Output buffers are written by the kernel, not the variant: their
  // *content* must not affect comparison (sizes travel in arg1).
  EXPECT_EQ(a.ComparableDigest(), b.ComparableDigest());
}

}  // namespace
}  // namespace mvee
