// Wall-of-clocks (WoC) replication agent (paper §4.5, Figure 4c), and its
// collision-free limit, per-variable order (PVO).
//
// Sync variables map onto a statically allocated pool of logical clocks
// (agents may not allocate dynamically, §3.3). The map is the only thing
// that differs between the two kinds, so one ClockRuntime serves both:
//  - WoC (HashedClockMap) hashes addresses onto a fixed wall. Collisions are
//    tolerated and merely over-serialize the slaves (§4.5 last paragraph),
//    including the deliberate bucketing of adjacent 32-bit variables in one
//    64-bit line.
//  - PVO (ExactClockMap) explores the other end of that trade-off: every
//    distinct sync variable (at the same 8-byte granularity) gets its *own*
//    clock from a preallocated, insert-only, lock-free open-addressing table.
//    No collisions until the table saturates, after which it degrades to
//    hashed assignment and counts the overflow. It is the ablation baseline
//    for bench_ablation_agents: it bounds from above what WoC could gain
//    from a perfect (dynamic) address→clock map, at ~16x the memory of the
//    WoC wall (table plus per-variant clock mirrors).
//
// Recording: the master thread maps the address to a clock, acquires the
// per-clock lock, executes the op, increments the clock, releases, and then
// logs (clock id, clock time) into *its own* SPSC sync buffer. One buffer per
// master thread means each buffer has a single producer and the agent
// introduces no cross-thread sharing beyond what the program's own lock
// contention already implies.
//
// Replay: slave thread t pops the next (clock, time) entry from buffer t and
// waits until its variant's local copy of that clock reaches `time`; after
// executing the op it increments the local clock. Slaves never see the
// master's clocks, other buffers or the map — the buffer contents alone are
// enough to reproduce the clock increments (§4.5), which also makes the
// agent fully address-space-layout agnostic (§4.5.1).

#ifndef MVEE_AGENTS_WALL_OF_CLOCKS_H_
#define MVEE_AGENTS_WALL_OF_CLOCKS_H_

#include <atomic>
#include <memory>
#include <vector>

#include "mvee/agents/record_shards.h"
#include "mvee/agents/sync_agent.h"
#include "mvee/util/hash.h"
#include "mvee/util/spsc_ring.h"

namespace mvee {

// WoC's map: the address hash modulo the wall.
class HashedClockMap {
 public:
  static constexpr const char* kName = "wall-of-clocks";

  explicit HashedClockMap(size_t clock_count) : clock_count_(clock_count) {}

  // Number of clock ids ClockOf can return.
  size_t clock_count() const { return clock_count_; }

  uint32_t ClockOf(const void* addr) const {
    return static_cast<uint32_t>(ClockAddressHash(reinterpret_cast<uint64_t>(addr)) %
                                 clock_count_);
  }

 private:
  const size_t clock_count_;
};

// PVO's map: an insert-only exact address→clock table whose index *is* the
// clock id, so a successful insert allocates the clock in the same CAS.
class ExactClockMap {
 public:
  static constexpr const char* kName = "per-variable-order";

  // Sizes the table for a wall of `clock_count` clocks (TableCapacityFor).
  explicit ExactClockMap(size_t clock_count);

  // Number of clock ids ClockOf can return (the table capacity).
  size_t clock_count() const { return capacity_; }

  // Maps a master-side sync-variable address to its clock id, inserting a
  // fresh private clock on first sight. Thread-safe, lock-free, allocation-
  // free.
  uint32_t ClockOf(const void* addr);

  // Number of distinct sync variables that received a private clock so far.
  uint64_t VariablesMapped() const {
    return variables_mapped_.load(std::memory_order_relaxed);
  }
  // Distinct sync *variables* that hit the probe limit and fell back to
  // hashed (WoC-style) assignment — each saturated variable counts once, no
  // matter how many lookups it serves. (If the dedup side table itself
  // saturates — a config already drowning in overflow — further overflowing
  // variables count once per lookup; the number stays an upper bound on
  // overflowed variables.)
  uint64_t TableOverflows() const {
    return table_overflows_.load(std::memory_order_relaxed);
  }

  // Table capacity for a given wall size: next power of two >= 8x the clock
  // count, saturating at the max table size instead of wrapping size_t on
  // huge configs. Static so the overflow guard is testable without
  // allocating a ceiling-sized table.
  static size_t TableCapacityFor(size_t clock_count);

 private:
  const size_t capacity_;  // Power of two.
  const uint64_t mask_;
  std::atomic<uint64_t> variables_mapped_{0};
  std::atomic<uint64_t> table_overflows_{0};
  // keys_[i] holds the 8-byte-bucketed address owning clock i, or 0 if
  // clock i is still free.
  std::vector<std::atomic<uint64_t>> keys_;
  // Insert-only dedup set of keys that overflowed, so TableOverflows()
  // counts variables, not lookups. Deliberately much smaller than the main
  // table (it only matters once the table is already saturated, and the
  // counter tolerates overcounting when the set itself fills up).
  const size_t overflow_capacity_;  // Power of two.
  const uint64_t overflow_mask_;
  std::vector<std::atomic<uint64_t>> overflow_keys_;
};

template <typename ClockMap>
class ClockAgent;

template <typename ClockMap>
class ClockRuntime {
 public:
  ClockRuntime(const AgentConfig& config, AgentControl control);

  std::unique_ptr<SyncAgent> CreateAgent(uint32_t variant_index);

  // Excision (docs/DESIGN.md §9): stop `variant`'s stalled ring cursors from
  // gating the master's recording, so survivors keep producing after the
  // variant left. Safe concurrently with running agents.
  void DetachVariant(uint32_t variant);

  const AgentStats& stats() const { return stats_; }
  // Per-thread recording rings materialized so far (lazy allocation).
  uint64_t RecordingRingsCreated() const { return rings_.CreatedCount(); }

 private:
  friend class ClockAgent<ClockMap>;

  // A recorded op, and the clock and time an op holds from Before to After.
  struct Entry {
    uint32_t clock_id = 0;
    uint64_t time = 0;
  };

  // Master-side clock: spinlock + time, one cache line each to avoid false
  // sharing across clocks.
  struct alignas(64) MasterClock {
    std::atomic_flag lock = ATOMIC_FLAG_INIT;
    uint64_t time = 0;
  };

  // Slave-side local clock copy.
  struct alignas(64) SlaveClock {
    std::atomic<uint64_t> time{0};
  };

  AgentConfig config_;
  AgentControl control_;
  AgentStats stats_;
  ClockMap map_;  // Master side only.
  std::vector<MasterClock> master_clocks_;
  // One ring per master thread, created on first touch; slaves of variant v
  // consume with id v-1.
  LazyRingSet<Entry> rings_;
  // slave_clocks_[v-1][c] for slave variant v.
  std::vector<std::vector<SlaveClock>> slave_clocks_;
};

template <typename ClockMap>
class ClockAgent final : public SyncAgent {
 public:
  ClockAgent(ClockRuntime<ClockMap>* runtime, uint32_t variant);

  void BeforeSyncOp(uint32_t tid, const void* addr) override;
  void AfterSyncOp(uint32_t tid, const void* addr) override;
  AgentRole role() const override { return role_; }
  const char* name() const override { return ClockMap::kName; }

 private:
  using Entry = typename ClockRuntime<ClockMap>::Entry;

  ClockRuntime<ClockMap>* const runtime_;
  const AgentRole role_;
  const uint32_t variant_;
  PerThreadScratch<Entry> pending_;
};

using WallOfClocksRuntime = ClockRuntime<HashedClockMap>;
using PerVariableRuntime = ClockRuntime<ExactClockMap>;

// Both instantiations live in wall_of_clocks.cc.
extern template class ClockRuntime<HashedClockMap>;
extern template class ClockRuntime<ExactClockMap>;
extern template class ClockAgent<HashedClockMap>;
extern template class ClockAgent<ExactClockMap>;

}  // namespace mvee

#endif  // MVEE_AGENTS_WALL_OF_CLOCKS_H_
