// PrefixWatermark: a shared min-replayed-sequence watermark over a dense
// ticket space (docs/DESIGN.md §8/§11).
//
// The TO/PO recording path stamps every recorded op with a global
// ticket sequence (record_shards.h). Several consumers — the partial-order
// master's po_window gate, and diagnostic "how far has variant v replayed"
// probes — need the answer to one question about the replay side: "every
// sequence below X has been replayed". Individual per-thread counters cannot
// answer it (thread t's counter says nothing about thread u's backlog), so
// replaying threads mark each finished sequence in a slot array and the
// watermark is the length of the contiguous marked prefix.
//
// The marking scheme: marks[seq & mask] == seq + 1 means `seq` is done. The
// mark is the sequence itself rather than a 0/1 flag so slot reuse across
// laps needs no clearing step — a stale mark from the previous lap never
// equals the current lap's seq + 1.
//
// Division of labor, deliberately asymmetric: Mark() is a single release
// store on a striped slot (the replay hot path adds no shared-line CAS), and
// the *waiting* side calls TryAdvance() + Prefix() — it is already stalled,
// so it donates the CAS work of collapsing the marked prefix into the base
// counter. Any thread may call TryAdvance concurrently; each slot has
// exactly one CAS winner: a CAS from base to base + 1 succeeds for one
// thread only, and the loser reloads the advanced base.
//
// Capacity contract: a mark at `seq` is only safe while seq - Prefix() <
// capacity. Callers enforce it by gating producers on the watermark (the
// po_window gate admits at most window + max_threads outstanding sequences,
// and sizes the watermark accordingly).

#ifndef MVEE_UTIL_WATERMARK_H_
#define MVEE_UTIL_WATERMARK_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace mvee {

class PrefixWatermark {
 public:
  // `min_capacity` is rounded up to a power of two >= 2.
  explicit PrefixWatermark(size_t min_capacity) {
    size_t capacity = 2;
    while (capacity < min_capacity) {
      capacity <<= 1;
    }
    mask_ = capacity - 1;
    marks_ = std::vector<std::atomic<uint64_t>>(capacity);
  }

  size_t capacity() const { return mask_ + 1; }

  // Marks `seq` replayed. Owner-agnostic, wait-free: one release store.
  void Mark(uint64_t seq) {
    marks_[seq & mask_].store(seq + 1, std::memory_order_release);
  }

  // Every sequence below the returned value has been marked (and its mark
  // has been folded into the base by some TryAdvance call).
  uint64_t Prefix() const { return base_.load(std::memory_order_acquire); }

  // Folds the contiguous marked prefix into the base. Lock-free, callable
  // from any thread; returns the (possibly advanced) prefix.
  uint64_t TryAdvance() {
    uint64_t base = base_.load(std::memory_order_acquire);
    while (marks_[base & mask_].load(std::memory_order_acquire) == base + 1) {
      if (base_.compare_exchange_weak(base, base + 1, std::memory_order_acq_rel,
                                      std::memory_order_acquire)) {
        ++base;
      }
    }
    return base;
  }

 private:
  uint64_t mask_ = 1;
  std::vector<std::atomic<uint64_t>> marks_;
  alignas(64) std::atomic<uint64_t> base_{0};
};

}  // namespace mvee

#endif  // MVEE_UTIL_WATERMARK_H_
