// Shared machinery of the agents' recording paths (docs/DESIGN.md §8): the
// per-sync-variable shard locks and global ticket counter of the TO/PO
// master path, the lazily-created per-master-thread recording rings every
// runtime records into, and the record-with-backpressure push every master
// ends its op with. The runtimes instantiate this rather than carrying
// private copies, so a change to the lock/ticket/push sequence — whose
// memory ordering the §8 soundness argument depends on — cannot silently
// diverge between agents.

#ifndef MVEE_AGENTS_RECORD_SHARDS_H_
#define MVEE_AGENTS_RECORD_SHARDS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "mvee/agents/sync_agent.h"
#include "mvee/util/hash.h"
#include "mvee/util/spin.h"
#include "mvee/util/spsc_ring.h"
#include "mvee/util/variant_killed.h"

namespace mvee {

// Record shard locks for a runtime of `max_threads` threads per variant:
// 8 per thread, at least 512, rounded up to a power of two, at most 65536.
// The default max_threads = 64 gives 512.
inline size_t RecordShardCount(uint32_t max_threads) {
  size_t count = 512;
  while (count < size_t{max_threads} * 8 && count < (size_t{1} << 16)) {
    count <<= 1;
  }
  return count;
}

// Per-variable recording shards + the fetch_add ticket counter. `Extra` is
// a per-shard payload guarded by the shard's lock (empty for TO, the
// dependence-chain tail for PO). Hashing uses WoC's 8-byte bucketing, so
// contention on a shard mirrors the program's own contention on the
// corresponding sync variables; independent ops never share a lock line.
template <typename Extra>
class TicketedRecordShards {
 public:

  struct alignas(64) Shard {
    std::atomic_flag lock = ATOMIC_FLAG_INIT;
    Extra extra{};

    void Release() { lock.clear(std::memory_order_release); }
  };

  explicit TicketedRecordShards(uint32_t max_threads)
      : shard_mask_(RecordShardCount(max_threads) - 1), shards_(shard_mask_ + 1) {}

  static size_t IndexFor(const void* addr, size_t shard_count) {
    return ClockAddressHash(reinterpret_cast<uint64_t>(addr)) & (shard_count - 1);
  }

  size_t IndexOf(const void* addr) const {
    return ClockAddressHash(reinterpret_cast<uint64_t>(addr)) & shard_mask_;
  }

  size_t shard_count() const { return shard_mask_ + 1; }

  // Spins until the addr's shard lock is held (throws VariantKilled on
  // abort) and accounts contended spins into stats.record_lock_spins. The
  // caller holds the lock across (op + ticket + push) and releases through
  // Shard::Release.
  Shard& Acquire(const void* addr, const AgentControl& control, AgentStats::Shard& stats) {
    Shard& shard = shards_[IndexOf(addr)];
    SpinWait waiter;
    while (shard.lock.test_and_set(std::memory_order_acquire)) {
      if (control.aborted()) {
        throw VariantKilled{};
      }
      waiter.Pause();
    }
    if (waiter.spins() > 0) {
      stats.record_lock_spins.Add(waiter.spins());
    }
    return shard;
  }

  // Must be called with the op's shard lock held: the §8 soundness argument
  // needs conflicting ops' tickets drawn in conflict order.
  uint64_t DrawTicket() { return ticket_.fetch_add(1, std::memory_order_relaxed); }

  uint64_t TicketsIssued() const { return ticket_.load(std::memory_order_relaxed); }

 private:
  alignas(64) std::atomic<uint64_t> ticket_{0};
  const size_t shard_mask_;
  std::vector<Shard> shards_;
};

// The per-master-thread recording rings: one per logical tid, one consumer
// per slave variant (consumer v-1 belongs to slave variant v), created
// lazily on a tid's first sync op instead of eagerly for all of max_threads.
// Eager allocation cost kinds x max_threads x buffer_capacity ring slots —
// ~64 MiB per runtime at the defaults — which the adaptive fleet (all four
// runtimes alive at once, docs/DESIGN.md §11) multiplies by four while a
// typical run touches a handful of tids. Either side of a ring (the master
// producer or a slave replayer) may be first to touch it; a CAS publishes
// exactly one instance. The one-time allocation happens on that thread's
// first op — bootstrap, like the thread's own creation — so the per-op path
// stays allocation-free (§3.3; adaptive_test proves it).
template <typename Entry>
class LazyRingSet {
 public:
  explicit LazyRingSet(const AgentConfig& config)
      : capacity_(config.buffer_capacity),
        consumers_(config.num_variants > 0 ? config.num_variants - 1 : 0),
        slots_(config.max_threads) {}

  LazyRingSet(const LazyRingSet&) = delete;
  LazyRingSet& operator=(const LazyRingSet&) = delete;

  ~LazyRingSet() {
    for (auto& slot : slots_) {
      delete slot.load(std::memory_order_relaxed);
    }
  }

  // Rings actually materialized so far (== distinct tids that performed a
  // sync op under this runtime).
  uint64_t CreatedCount() const { return created_.load(std::memory_order_relaxed); }

  // Hot path: returns tid's ring, creating it on first touch. The caller
  // guarantees tid < max_threads (CheckTidBound).
  BroadcastRing<Entry>& Get(uint32_t tid) {
    BroadcastRing<Entry>* ring = slots_[tid].load(std::memory_order_acquire);
    if (ring != nullptr) [[likely]] {
      return *ring;
    }
    return Create(tid);
  }

  // Excision: marks `consumer` detached in every existing ring AND in every
  // ring created later (the dead variant's consumer must not gate a ring a
  // new thread materializes after the excision).
  void DetachConsumer(size_t consumer) {
    detached_.fetch_or(uint32_t{1} << consumer, std::memory_order_acq_rel);
    for (auto& slot : slots_) {
      if (BroadcastRing<Entry>* ring = slot.load(std::memory_order_acquire)) {
        ring->DetachConsumer(consumer);
      }
    }
  }

 private:
  BroadcastRing<Entry>& Create(uint32_t tid) {
    auto* fresh = new BroadcastRing<Entry>(capacity_);
    for (size_t v = 0; v < consumers_; ++v) {
      fresh->RegisterConsumer();
    }
    BroadcastRing<Entry>* expected = nullptr;
    if (!slots_[tid].compare_exchange_strong(expected, fresh, std::memory_order_acq_rel)) {
      delete fresh;  // Lost the publication race; the winner's ring is live.
      return *expected;
    }
    created_.fetch_add(1, std::memory_order_relaxed);
    // Detach bits published before our CAS are applied here; bits set after
    // the CAS find the ring in the detacher's loop. Both may run for the
    // same bit — DetachConsumer is an idempotent flag store.
    const uint32_t mask = detached_.load(std::memory_order_acquire);
    for (size_t v = 0; v < consumers_; ++v) {
      if (mask & (uint32_t{1} << v)) {
        fresh->DetachConsumer(v);
      }
    }
    return *fresh;
  }

  const size_t capacity_;
  const size_t consumers_;
  std::vector<std::atomic<BroadcastRing<Entry>*>> slots_;
  std::atomic<uint32_t> detached_{0};
  std::atomic<uint64_t> created_{0};
};

// Every master's record push: push the stamped entry into the thread's own
// ring (spinning while the slowest slave variant gates the slot) and bump
// ops_recorded. TO/PO push inside the shard lock — that chains ring
// publications of conflicting ops, the visibility half of the §8 argument —
// so they pass the lock as `held`, which an abort releases before
// unwinding (on success the caller releases it). The clock runtime pushes
// after its clock unlock and passes nullptr.
template <typename Entry>
void RecordIntoRing(BroadcastRing<Entry>& ring, const Entry& entry, std::atomic_flag* held,
                    const AgentControl& control, AgentStats::Shard& stats) {
  if (!ring.TryPush(entry)) {
    stats.record_stalls.Add();
    SpinWait waiter;
    while (!ring.TryPush(entry)) {
      if (control.aborted()) {
        if (held != nullptr) {
          held->clear(std::memory_order_release);
        }
        throw VariantKilled{};
      }
      waiter.Pause();
    }
  }
  stats.ops_recorded.Add();
}

}  // namespace mvee

#endif  // MVEE_AGENTS_RECORD_SHARDS_H_
