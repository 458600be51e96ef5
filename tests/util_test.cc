// Unit tests for src/util: RNG determinism, hashing, the broadcast ring, the
// statistics helpers, and the parking spot's wakeup discipline.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <set>
#include <thread>
#include <vector>

#include "mvee/util/hash.h"
#include "mvee/util/histogram.h"
#include "mvee/util/park.h"
#include "mvee/util/rng.h"
#include "mvee/util/spsc_ring.h"
#include "mvee/util/stats.h"
#include "mvee/util/status.h"

namespace mvee {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(123);
  Rng b(124);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) {
      ++same;
    }
  }
  EXPECT_LT(same, 5);
}

TEST(RngTest, NextBelowRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
  EXPECT_EQ(rng.NextBelow(0), 0u);
}

TEST(RngTest, NextInRangeInclusive) {
  Rng rng(9);
  std::set<uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const uint64_t v = rng.NextInRange(3, 5);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 5u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 3u);  // All three values hit.
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(HashTest, FnvMatchesKnownVector) {
  // FNV-1a 64 of empty input is the offset basis.
  EXPECT_EQ(FnvHashBytes("", 0), 0xcbf29ce484222325ULL);
  // Different strings hash differently.
  EXPECT_NE(FnvHash("hello"), FnvHash("world"));
}

TEST(HashTest, DigestMatchesOneShot) {
  FnvDigest digest;
  digest.Update("he", 2);
  digest.Update("llo", 3);
  EXPECT_EQ(digest.Finish(), FnvHash("hello"));
}

TEST(HashTest, ClockAddressHashBucketsAdjacent32BitWords) {
  // Two 32-bit variables in the same 64-bit line map to the same clock
  // (paper §4.5: a single CMPXCHG8B could modify both).
  const uint64_t base = 0x7f0000001000ULL;
  EXPECT_EQ(ClockAddressHash(base), ClockAddressHash(base + 4));
  EXPECT_NE(ClockAddressHash(base), ClockAddressHash(base + 8));
}

TEST(StatusTest, OkByDefault) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.ToString(), "ok");
}

TEST(StatusTest, CarriesCodeAndMessage) {
  Status status(StatusCode::kDivergence, "write mismatch");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kDivergence);
  EXPECT_EQ(status.ToString(), "divergence: write mismatch");
}

TEST(ResultTest, HoldsValueOrStatus) {
  Result<int> ok(42);
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 42);
  Result<int> bad(Status(StatusCode::kNotFound, "x"));
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(bad.value_or(-1), -1);
}

TEST(BroadcastRingTest, SingleConsumerFifo) {
  BroadcastRing<int> ring(8);
  const size_t consumer = ring.RegisterConsumer();
  for (int i = 0; i < 5; ++i) {
    ring.Push(i);
  }
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(ring.CanPop(consumer));
    EXPECT_EQ(ring.Pop(consumer), i);
  }
  EXPECT_FALSE(ring.CanPop(consumer));
}

TEST(BroadcastRingTest, TryPushFailsWhenFull) {
  BroadcastRing<int> ring(4);
  const size_t consumer = ring.RegisterConsumer();
  (void)consumer;
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(ring.TryPush(i));
  }
  EXPECT_FALSE(ring.TryPush(99));
}

TEST(BroadcastRingTest, EachConsumerSeesFullStream) {
  BroadcastRing<int> ring(16);
  const size_t c0 = ring.RegisterConsumer();
  const size_t c1 = ring.RegisterConsumer();
  for (int i = 0; i < 10; ++i) {
    ring.Push(i);
  }
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(ring.Pop(c0), i);
  }
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(ring.Pop(c1), i);
  }
}

TEST(BroadcastRingTest, ProducerBoundedBySlowestConsumer) {
  BroadcastRing<int> ring(4);
  const size_t fast = ring.RegisterConsumer();
  const size_t slow = ring.RegisterConsumer();
  for (int i = 0; i < 4; ++i) {
    ring.Push(i);
  }
  // Fast consumer drains; slow consumer has not moved: still full.
  for (int i = 0; i < 4; ++i) {
    ring.Pop(fast);
  }
  EXPECT_FALSE(ring.TryPush(100));
  ring.Pop(slow);
  EXPECT_TRUE(ring.TryPush(100));
}

TEST(BroadcastRingTest, PeekDoesNotConsume) {
  BroadcastRing<int> ring(8);
  const size_t consumer = ring.RegisterConsumer();
  ring.Push(7);
  ring.Push(8);
  int value = 0;
  EXPECT_TRUE(ring.Peek(consumer, 0, &value));
  EXPECT_EQ(value, 7);
  EXPECT_TRUE(ring.Peek(consumer, 1, &value));
  EXPECT_EQ(value, 8);
  EXPECT_FALSE(ring.Peek(consumer, 2, &value));
  ring.Advance(consumer);
  EXPECT_TRUE(ring.Peek(consumer, 0, &value));
  EXPECT_EQ(value, 8);
}

TEST(BroadcastRingTest, ConcurrentProducerConsumer) {
  BroadcastRing<uint64_t> ring(64);
  const size_t consumer = ring.RegisterConsumer();
  constexpr uint64_t kCount = 20000;
  std::thread producer([&] {
    for (uint64_t i = 0; i < kCount; ++i) {
      ring.Push(i);
    }
  });
  uint64_t expected = 0;
  while (expected < kCount) {
    const uint64_t got = ring.Pop(consumer);
    ASSERT_EQ(got, expected);
    ++expected;
  }
  producer.join();
}

// Invariants of the cached gating cursors: a stale cache may delay progress
// but must never admit an overwrite or a premature read.
TEST(BroadcastRingCachingTest, WraparoundPastCapacityKeepsFifo) {
  BroadcastRing<uint64_t> ring(8);
  const size_t consumer = ring.RegisterConsumer();
  // Many times around the ring: every slot is reused repeatedly and the
  // producer gate must track the consumer exactly.
  for (uint64_t i = 0; i < 100; ++i) {
    ring.Push(i);
    EXPECT_EQ(ring.Pop(consumer), i);
  }
  // Bursts that span the wrap boundary.
  for (uint64_t round = 0; round < 16; ++round) {
    for (uint64_t i = 0; i < 5; ++i) {
      ring.Push(round * 5 + i);
    }
    for (uint64_t i = 0; i < 5; ++i) {
      EXPECT_EQ(ring.Pop(consumer), round * 5 + i);
    }
  }
}

TEST(BroadcastRingCachingTest, SlowestConsumerGatesProducer) {
  BroadcastRing<int> ring(4);
  const size_t fast = ring.RegisterConsumer();
  const size_t slow = ring.RegisterConsumer();
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(ring.TryPush(i));
  }
  for (int i = 0; i < 4; ++i) {
    ring.Pop(fast);
  }
  // The fast consumer's progress alone must never admit a push: the slot
  // still holds the slow consumer's next element. A producer cache refreshed
  // during the fill must not leak capacity here.
  EXPECT_FALSE(ring.TryPush(100));
  ring.Pop(slow);
  EXPECT_TRUE(ring.TryPush(100));
  EXPECT_FALSE(ring.TryPush(101));  // Full again: slow is 3 behind + 1 new.
  for (int i = 1; i < 4; ++i) {
    EXPECT_EQ(ring.Pop(slow), i);
  }
  EXPECT_EQ(ring.Pop(slow), 100);
  EXPECT_EQ(ring.Pop(fast), 100);
}

TEST(BroadcastRingCachingTest, PeekLookaheadWindow) {
  BroadcastRing<int> ring(8);
  const size_t consumer = ring.RegisterConsumer();
  for (int i = 0; i < 6; ++i) {
    ring.Push(i);
  }
  int value = -1;
  for (uint64_t offset = 0; offset < 6; ++offset) {
    EXPECT_TRUE(ring.Peek(consumer, offset, &value));
    EXPECT_EQ(value, static_cast<int>(offset));
  }
  // Beyond the produced window: must refuse even when the consumer's cached
  // write cursor was refreshed by the in-window peeks (a stale-low cache is
  // conservative; there is no path to a stale-high one).
  EXPECT_FALSE(ring.Peek(consumer, 6, &value));
  ring.Advance(consumer);
  ring.Advance(consumer);
  EXPECT_TRUE(ring.Peek(consumer, 3, &value));
  EXPECT_EQ(value, 5);
  EXPECT_FALSE(ring.Peek(consumer, 4, &value));
  // New production becomes visible through a cache refresh.
  ring.Push(6);
  EXPECT_TRUE(ring.Peek(consumer, 4, &value));
  EXPECT_EQ(value, 6);
}

TEST(BroadcastRingCachingTest, TryPushFailsExactlyWhenFull) {
  BroadcastRing<int> ring(4);
  const size_t consumer = ring.RegisterConsumer();
  // Warm the producer's cached gate first, so fullness is detected against a
  // stale cache and forces the authoritative rescan.
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(ring.TryPush(round));
    ring.Pop(consumer);
  }
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(ring.TryPush(i));
  }
  EXPECT_FALSE(ring.TryPush(99));
  EXPECT_FALSE(ring.TryPush(99));  // Still full; repeated probes stay false.
  EXPECT_EQ(ring.Pop(consumer), 0);
  EXPECT_TRUE(ring.TryPush(4));
  EXPECT_FALSE(ring.TryPush(99));
}

TEST(BroadcastRingCachingTest, ConcurrentBroadcastTwoConsumers) {
  // Tiny capacity maximizes gate refreshes and full/empty edges — the paths
  // where a stale cache would admit an overwrite or a premature read.
  BroadcastRing<uint64_t> ring(16);
  const size_t c0 = ring.RegisterConsumer();
  const size_t c1 = ring.RegisterConsumer();
  constexpr uint64_t kCount = 20000;
  // Count mismatches instead of asserting inside the threads: an early
  // return there would strand the blocking producer (hang) or destroy a
  // joinable thread (terminate) instead of failing cleanly.
  std::atomic<uint64_t> mismatches{0};
  auto drain = [&](size_t consumer) {
    for (uint64_t i = 0; i < kCount; ++i) {
      if (ring.Pop(consumer) != i) {
        mismatches.fetch_add(1, std::memory_order_relaxed);
      }
    }
  };
  std::thread producer([&] {
    for (uint64_t i = 0; i < kCount; ++i) {
      ring.Push(i);
    }
  });
  std::thread drainer([&] { drain(c1); });
  drain(c0);
  producer.join();
  drainer.join();
  EXPECT_EQ(mismatches.load(), 0u);
}

TEST(SampleStatsTest, BasicMoments) {
  SampleStats stats;
  for (double v : {1.0, 2.0, 3.0, 4.0}) {
    stats.Add(v);
  }
  EXPECT_DOUBLE_EQ(stats.Mean(), 2.5);
  EXPECT_DOUBLE_EQ(stats.Min(), 1.0);
  EXPECT_DOUBLE_EQ(stats.Max(), 4.0);
  EXPECT_NEAR(stats.StdDev(), 1.2909944, 1e-6);
  EXPECT_NEAR(stats.GeoMean(), 2.2133638, 1e-6);
}

TEST(SampleStatsTest, PercentileInterpolates) {
  SampleStats stats;
  for (int i = 1; i <= 100; ++i) {
    stats.Add(static_cast<double>(i));
  }
  EXPECT_NEAR(stats.Percentile(50), 50.5, 0.01);
  EXPECT_NEAR(stats.Percentile(0), 1.0, 0.01);
  EXPECT_NEAR(stats.Percentile(100), 100.0, 0.01);
}

// --- LogHistogram (the open-loop harness's latency store) --------------------

// Rank-matched reference: the same "ceil(q * n)-th smallest sample" rule
// LogHistogram::ValueAtQuantile implements, computed on the raw samples.
uint64_t ReferenceQuantile(std::vector<uint64_t> samples, double q) {
  std::sort(samples.begin(), samples.end());
  const size_t rank = std::max<size_t>(
      1, static_cast<size_t>(std::ceil(q * static_cast<double>(samples.size()))));
  return samples[rank - 1];
}

// The histogram's answer must land within 1% of the sorted-vector reference
// at every probed quantile (the bucket-midpoint bound is ~0.8%).
void ExpectQuantilesMatch(const LogHistogram& histogram,
                          const std::vector<uint64_t>& samples, const char* label) {
  for (double q : {0.50, 0.90, 0.99, 0.999}) {
    const uint64_t reference = ReferenceQuantile(samples, q);
    const uint64_t approx = histogram.ValueAtQuantile(q);
    const double tolerance = std::max(1.0, static_cast<double>(reference) * 0.01);
    EXPECT_NEAR(static_cast<double>(approx), static_cast<double>(reference), tolerance)
        << label << " q=" << q;
  }
}

TEST(LogHistogramTest, UniformSamplesMatchSortedReference) {
  Rng rng(42);
  LogHistogram histogram;
  std::vector<uint64_t> samples;
  for (int i = 0; i < 20000; ++i) {
    const uint64_t value = rng.NextInRange(1, 1'000'000);
    samples.push_back(value);
    histogram.Record(value);
  }
  EXPECT_EQ(histogram.Count(), samples.size());
  ExpectQuantilesMatch(histogram, samples, "uniform");
}

TEST(LogHistogramTest, BimodalSamplesMatchSortedReference) {
  // 85% fast path around tens of microseconds, 15% slow path around
  // milliseconds — the shape a keep-alive server under occasional accept
  // queueing actually produces.
  Rng rng(43);
  LogHistogram histogram;
  std::vector<uint64_t> samples;
  for (int i = 0; i < 20000; ++i) {
    const uint64_t value = rng.NextBelow(100) < 85
                               ? rng.NextInRange(10'000, 60'000)
                               : rng.NextInRange(2'000'000, 9'000'000);
    samples.push_back(value);
    histogram.Record(value);
  }
  ExpectQuantilesMatch(histogram, samples, "bimodal");
}

TEST(LogHistogramTest, HeavyTailSamplesMatchSortedReference) {
  // Log-uniform spread over six orders of magnitude: the tail quantiles land
  // in sparse high buckets, the worst case for log-bucketed error.
  Rng rng(44);
  LogHistogram histogram;
  std::vector<uint64_t> samples;
  for (int i = 0; i < 20000; ++i) {
    const uint64_t magnitude = 1ull << rng.NextInRange(7, 27);
    const uint64_t value = magnitude + rng.NextBelow(magnitude);
    samples.push_back(value);
    histogram.Record(value);
  }
  ExpectQuantilesMatch(histogram, samples, "heavy-tail");
}

TEST(LogHistogramTest, SmallValuesAreExact) {
  LogHistogram histogram;
  for (uint64_t v = 0; v < 128; ++v) {
    histogram.Record(v);
  }
  // Values below one sub-bucket span get their own bucket: quantiles are
  // exact, not approximate.
  EXPECT_EQ(histogram.ValueAtQuantile(0.5), 63u);
  EXPECT_EQ(histogram.Min(), 0u);
  EXPECT_EQ(histogram.Max(), 127u);
}

TEST(LogHistogramTest, MergeIsAssociativeAndExact) {
  Rng rng(45);
  std::vector<LogHistogram> parts(3);
  LogHistogram all;
  std::vector<uint64_t> samples;
  for (int p = 0; p < 3; ++p) {
    for (int i = 0; i < 5000; ++i) {
      const uint64_t value = rng.NextInRange(100, 50'000'000);
      parts[p].Record(value);
      all.Record(value);
      samples.push_back(value);
    }
  }

  // (a + b) + c.
  LogHistogram left;
  left.Merge(parts[0]);
  left.Merge(parts[1]);
  left.Merge(parts[2]);
  // a + (b + c).
  LogHistogram bc;
  bc.Merge(parts[1]);
  bc.Merge(parts[2]);
  LogHistogram right;
  right.Merge(parts[0]);
  right.Merge(bc);

  EXPECT_TRUE(left == right);
  EXPECT_TRUE(left == all);  // Merging shards == recording everything once.
  ExpectQuantilesMatch(left, samples, "merged");
}

TEST(LogHistogramTest, BucketBoundErrorUnderOnePercentAtP99) {
  // Adversarial placement for the p99 rank: a dense cluster just below the
  // target and the rank sample alone in its bucket, across magnitudes.
  for (uint64_t magnitude : {1ull << 10, 1ull << 17, 1ull << 24, 1ull << 31}) {
    LogHistogram histogram;
    std::vector<uint64_t> samples;
    for (int i = 0; i < 990; ++i) {
      samples.push_back(magnitude / 2);
      histogram.Record(magnitude / 2);
    }
    for (int i = 0; i < 10; ++i) {
      const uint64_t value = magnitude + static_cast<uint64_t>(i);
      samples.push_back(value);
      histogram.Record(value);
    }
    const uint64_t reference = ReferenceQuantile(samples, 0.99);
    const uint64_t approx = histogram.ValueAtQuantile(0.99);
    const double relative_error =
        std::abs(static_cast<double>(approx) - static_cast<double>(reference)) /
        static_cast<double>(reference);
    EXPECT_LE(relative_error, 0.01) << "magnitude=" << magnitude;
  }
}

TEST(LogHistogramTest, EmptyAndClampedEdges) {
  LogHistogram histogram;
  EXPECT_EQ(histogram.Count(), 0u);
  EXPECT_EQ(histogram.ValueAtQuantile(0.99), 0u);

  histogram.Record(777);
  // One sample: every quantile is that sample, exactly (min/max clamping).
  EXPECT_EQ(histogram.ValueAtQuantile(0.0), 777u);
  EXPECT_EQ(histogram.ValueAtQuantile(0.5), 777u);
  EXPECT_EQ(histogram.ValueAtQuantile(1.0), 777u);

  // Values beyond the trackable ceiling clamp instead of indexing out of
  // bounds.
  histogram.Record(~0ull);
  EXPECT_EQ(histogram.Max(), LogHistogram::kMaxTrackable);
}

// Lost-wakeup stress: two threads hand a turn back and forth through one
// ParkingSpot. Each waits with a short busy spin of varying length, then
// parks, so one thread often answers while the other is still inside
// BeginPark — the window in which a missing store-load barrier on either
// side loses a wakeup. Slices are long, so a lost wakeup shows up as a wait
// lasting the whole slice, not as slice-granularity polling.
TEST(ParkingSpotStressTest, PingPongLosesNoWakeup) {
  ParkingSpot spot;
  constexpr uint64_t kHandoffs = 20000;
  constexpr auto kSlice = std::chrono::seconds(4);
  std::atomic<uint64_t> turn{0};
  std::atomic<uint64_t> parks{0};
  std::atomic<int64_t> worst_wait_us{0};
  auto player = [&](uint64_t parity) {
    for (uint64_t mine = parity; mine < kHandoffs; mine += 2) {
      const auto start = std::chrono::steady_clock::now();
      const uint64_t spin_budget = (mine * 37) % 512;
      for (uint64_t spins = 0; turn.load(std::memory_order_acquire) != mine; ++spins) {
        if (spins < spin_budget) {
          continue;
        }
        parks.fetch_add(1, std::memory_order_relaxed);
        spot.BeginPark();
        const uint64_t ticket = spot.Ticket();
        if (turn.load(std::memory_order_acquire) != mine) {
          spot.WaitTicket(ticket, kSlice);
        }
        spot.EndPark();
      }
      const int64_t waited = std::chrono::duration_cast<std::chrono::microseconds>(
                                 std::chrono::steady_clock::now() - start)
                                 .count();
      int64_t worst = worst_wait_us.load(std::memory_order_relaxed);
      while (waited > worst && !worst_wait_us.compare_exchange_weak(worst, waited)) {
      }
      turn.store(mine + 1, std::memory_order_release);
      spot.WakeParked();
    }
  };
  std::thread even(player, 0);
  std::thread odd(player, 1);
  even.join();
  odd.join();
  EXPECT_EQ(turn.load(), kHandoffs);
  EXPECT_GT(parks.load(), 0u);
  // A handoff takes microseconds; only a lost wakeup waits out the 4 s slice.
  EXPECT_LT(worst_wait_us.load(), 2'000'000) << "a wakeup was lost";
}

}  // namespace
}  // namespace mvee
