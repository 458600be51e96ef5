// Single-producer / single-consumer lock-free ring buffer.
//
// This is the data structure behind the wall-of-clocks agent's per-thread
// sync buffers (paper §4.5: "there is one sync buffer per master thread, such
// that each buffer has only one producer"). The producer is a master-variant
// thread; each consumer is the corresponding thread of one slave variant.
//
// To support N slave variants reading the same stream, the buffer keeps an
// independent read cursor per consumer; an element is logically retired only
// when all consumers have passed it, which bounds producer progress to
// capacity ahead of the slowest consumer.
//
// Cursor caching (LMAX-Disruptor-style gating sequences): in steady state the
// producer gates on a *cached* minimum read cursor and recomputes the real
// minimum only when the ring appears full, and each consumer gates on a
// *cached* copy of the write cursor refreshed only when the ring appears
// empty. Both caches are monotonic lower bounds of the authoritative
// cursors, so a stale cache can delay progress by at most one refresh but can
// never admit an overwrite (producer side) or a premature read (consumer
// side). The result is that Push/Peek/Pop/Advance touch no remote cache
// lines in steady state — the cross-core read-write sharing the paper blames
// for the simple agents' slowdowns (§4.5) is confined to the empty/full
// edges.

#ifndef MVEE_UTIL_SPSC_RING_H_
#define MVEE_UTIL_SPSC_RING_H_

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <vector>

#include "mvee/util/spin.h"

namespace mvee {

// Fixed-capacity broadcast ring. One producer, up to `kMaxConsumers`
// registered consumers, each with a private cursor. All memory is allocated
// up front (agents must not allocate dynamically, paper §3.3).
template <typename T>
class BroadcastRing {
 public:
  static constexpr size_t kMaxConsumers = 15;

  // `capacity` must be a power of two.
  explicit BroadcastRing(size_t capacity)
      : capacity_(capacity), mask_(capacity - 1), slots_(capacity) {
    assert(capacity >= 2 && (capacity & (capacity - 1)) == 0);
  }

  BroadcastRing(const BroadcastRing&) = delete;
  BroadcastRing& operator=(const BroadcastRing&) = delete;

  size_t capacity() const { return capacity_; }

  // Registers a consumer and returns its id. Must happen before production
  // starts. Not thread-safe (bootstrap-time only).
  size_t RegisterConsumer() {
    assert(consumer_count_ < kMaxConsumers);
    return consumer_count_++;
  }

  size_t consumer_count() const { return consumer_count_; }

  // Producer side: blocks (spin-waits) until a slot is free, then publishes.
  // Returns the sequence number of the published element.
  uint64_t Push(const T& value) {
    const uint64_t seq = write_cursor_.load(std::memory_order_relaxed);
    SpinWait waiter;
    while (!HasSpace(seq)) {
      waiter.Pause();
    }
    WriteSlot(seq, value);
    write_cursor_.store(seq + 1, std::memory_order_release);
    return seq;
  }

  // Producer side: true if the next Push/TryPush would succeed. Lets a
  // producer that stores its element out-of-band (e.g. the monitor's pooled
  // loose records, which live in a slot array indexed by sequence) verify the
  // slot has been retired by every consumer BEFORE overwriting it.
  bool CanPush() { return HasSpace(write_cursor_.load(std::memory_order_relaxed)); }

  // Producer side, non-blocking. Returns false if the ring is full.
  bool TryPush(const T& value) {
    const uint64_t seq = write_cursor_.load(std::memory_order_relaxed);
    if (!HasSpace(seq)) {
      return false;
    }
    WriteSlot(seq, value);
    write_cursor_.store(seq + 1, std::memory_order_release);
    return true;
  }

  // Consumer side: true if an element is available for `consumer`.
  bool CanPop(size_t consumer) const {
    const uint64_t read = cursors_[consumer].read.load(std::memory_order_relaxed);
    return read < VisibleWriteCursor(consumer, read);
  }

  // Consumer side: spin-waits for the next element and returns a copy.
  T Pop(size_t consumer) {
    auto& cursor = cursors_[consumer];
    const uint64_t read = cursor.read.load(std::memory_order_relaxed);
    SpinWait waiter;
    while (read >= VisibleWriteCursor(consumer, read)) {
      waiter.Pause();
    }
    T value{};
    ReadSlot(read, &value);
    cursor.read.store(read + 1, std::memory_order_release);
    return value;
  }

  // Consumer side: peeks at the element `offset` ahead of the cursor without
  // consuming. Returns false if not yet produced.
  bool Peek(size_t consumer, uint64_t offset, T* out) const {
    const auto& cursor = cursors_[consumer].read;
    const uint64_t read = cursor.load(std::memory_order_relaxed);
    const uint64_t want = read + offset;
    if (want >= VisibleWriteCursor(consumer, want)) {
      return false;
    }
    ReadSlot(want, out);
    // Another thread on the same consumer id (e.g. a detached variant's
    // straggler, see DetachConsumer) may have consumed `want` since the
    // cursor load, and the producer may then have reused its slot for
    // want + capacity: the copy is valid only while the cursor has not
    // passed `want`, which bars that reuse.
    std::atomic_thread_fence(std::memory_order_acquire);
    return cursor.load(std::memory_order_relaxed) <= want;
  }

  // Consumer side: advances the cursor by one (after a successful Peek(0)).
  // Single-advancer per consumer id: the load+store pair is not atomic.
  void Advance(size_t consumer) {
    auto& cursor = cursors_[consumer].read;
    cursor.store(cursor.load(std::memory_order_relaxed) + 1, std::memory_order_release);
  }

  // Sequence of the next element `consumer` would pop.
  uint64_t ReadCursor(size_t consumer) const {
    return cursors_[consumer].read.load(std::memory_order_relaxed);
  }

  // Excision support (docs/DESIGN.md §9): marks `consumer` detached so the
  // producer gate skips its cursor — a dead variant stops back-pressuring
  // the ring. An explicit flag rather than a cursor sentinel: the dead
  // variant's threads may still execute a straggling Advance (a plain
  // load+store), which would clobber any sentinel value. Their reads stay
  // memory-safe (slots_ is a fixed array) but may observe recycled slots;
  // by the time a variant is detached its threads are unwinding and no
  // longer act on ring contents.
  void DetachConsumer(size_t consumer) {
    cursors_[consumer].detached.store(true, std::memory_order_release);
  }

  bool ConsumerDetached(size_t consumer) const {
    return cursors_[consumer].detached.load(std::memory_order_acquire);
  }

  // Sequence of the next element the producer will publish.
  uint64_t WriteCursor() const { return write_cursor_.load(std::memory_order_acquire); }

 private:
  // One line per consumer: `read` is written by the consumer and read by the
  // producer (only on gate refresh); `cached_write` is the consumer's private
  // lower bound of the producer's write cursor. It is refreshed from const
  // reads and a consumer id may have more than one reader (see Peek), so the
  // cache is an atomic: the release-store on refresh hands the producer's
  // publications to any reader that later acquire-loads the cached value.
  struct alignas(64) ConsumerCursor {
    std::atomic<uint64_t> read{0};
    mutable std::atomic<uint64_t> cached_write{0};
    // Set when the owning variant was excised; MinReadCursor ignores the
    // cursor from then on.
    std::atomic<bool> detached{false};
  };

  // Slots hold T as relaxed atomic words. Readers that share a consumer id
  // may read a slot while the producer reuses it; they validate the copy
  // against the cursor (see Peek), and the word-wise atomic copy keeps that
  // read free of a data race. A relaxed word access compiles to a plain move on x86. Publication
  // still rides the write cursor's release/acquire.
  static_assert(std::is_trivially_copyable_v<T>);
  static constexpr size_t kSlotWords = (sizeof(T) + sizeof(uint64_t) - 1) / sizeof(uint64_t);
  struct Slot {
    std::atomic<uint64_t> words[kSlotWords];
  };

  void WriteSlot(uint64_t seq, const T& value) {
    uint64_t words[kSlotWords] = {};
    std::memcpy(words, &value, sizeof(T));
    Slot& slot = slots_[seq & mask_];
    for (size_t i = 0; i < kSlotWords; ++i) {
      slot.words[i].store(words[i], std::memory_order_relaxed);
    }
  }

  void ReadSlot(uint64_t seq, T* out) const {
    uint64_t words[kSlotWords];
    const Slot& slot = slots_[seq & mask_];
    for (size_t i = 0; i < kSlotWords; ++i) {
      words[i] = slot.words[i].load(std::memory_order_relaxed);
    }
    std::memcpy(out, words, sizeof(T));
  }

  // Producer gate: true if slot `seq` can be written without clobbering an
  // unconsumed element. Consumer cursors only move forward, so the cached
  // bound is conservative and a pass against it is always safe; only an
  // apparent full ring forces the remote rescan. (`free_until_` cannot
  // overflow: sequences are monotonic 64-bit counts.)
  bool HasSpace(uint64_t seq) {
    if (seq < free_until_) [[likely]] {
      return true;
    }
    free_until_ = MinReadCursor() + capacity_;
    return seq < free_until_;
  }

  // First sequence not yet visible to `consumer`; refreshes the consumer's
  // cached write cursor only when `want` appears unavailable. The refresh
  // store is skipped when nothing changed, so a consumer spinning on an
  // empty ring keeps its cursor line clean (the producer reads `read` on the
  // same line when it refreshes its gate).
  uint64_t VisibleWriteCursor(size_t consumer, uint64_t want) const {
    const ConsumerCursor& cursor = cursors_[consumer];
    const uint64_t cached = cursor.cached_write.load(std::memory_order_acquire);
    if (want < cached) [[likely]] {
      return cached;
    }
    const uint64_t fresh = write_cursor_.load(std::memory_order_acquire);
    if (fresh != cached) {
      cursor.cached_write.store(fresh, std::memory_order_release);
    }
    return fresh;
  }

  uint64_t MinReadCursor() const {
    if (consumer_count_ == 0) {
      // No consumers registered: recording-only mode (e.g. benchmarking the
      // producer path); retire immediately.
      return write_cursor_.load(std::memory_order_relaxed);
    }
    uint64_t min = UINT64_MAX;
    bool any_attached = false;
    for (size_t i = 0; i < consumer_count_; ++i) {
      if (cursors_[i].detached.load(std::memory_order_acquire)) {
        continue;  // Excised variant: its stalled cursor must not gate pushes.
      }
      any_attached = true;
      const uint64_t cursor = cursors_[i].read.load(std::memory_order_acquire);
      if (cursor < min) {
        min = cursor;
      }
    }
    if (!any_attached) {
      return write_cursor_.load(std::memory_order_relaxed);
    }
    return min;
  }

  const size_t capacity_;
  const uint64_t mask_;
  std::vector<Slot> slots_;
  // Producer-owned line: the write cursor plus the cached gate (touched only
  // by the producer, so a plain field).
  alignas(64) std::atomic<uint64_t> write_cursor_{0};
  uint64_t free_until_ = 0;  // first sequence the cached gate would reject
  ConsumerCursor cursors_[kMaxConsumers];
  size_t consumer_count_ = 0;
};

}  // namespace mvee

#endif  // MVEE_UTIL_SPSC_RING_H_
