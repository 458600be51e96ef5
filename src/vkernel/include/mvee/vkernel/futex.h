// Kernel-side futex table.
//
// sys_futex is the one blocking non-I/O syscall; the paper treats it like an
// I/O operation: only the master executes it, slaves receive the replicated
// result (§4.1, footnote 5). Waiters are keyed by the *logical* (diversity-
// normalized) address of the futex word so that a wake issued by one master
// thread finds waiters registered by other master threads even though their
// diversified virtual addresses differ.
//
// Concurrency (docs/DESIGN.md §7): the table is kFutexShards cache-padded
// hash shards, each with its own lock over a small address -> bucket map. A
// bucket is an intrusive FIFO of stack-allocated WaitNodes; the waker
// unlinks the nodes it targets and releases them through the shard's
// ParkingSpot, so one wake never serializes against waits on other
// addresses. A bucket is reclaimed the moment its last waiter is unlinked —
// a long-running server retains no per-address state for every futex word
// ever slept on.

#ifndef MVEE_VKERNEL_FUTEX_H_
#define MVEE_VKERNEL_FUTEX_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "mvee/util/park.h"
#include "mvee/util/rng.h"
#include "mvee/vkernel/waitq.h"

namespace mvee {

class FutexTable : public Waitable {
 public:
  explicit FutexTable(WaitRegistry* registry = nullptr, WaitStats* stats = nullptr)
      : registry_(registry), stats_(stats) {
    RegisterWaitable(registry);
  }
  // Unregister while the shards/buckets a concurrent ShutdownWake touches
  // still exist (see Waitable::UnregisterWaitable).
  ~FutexTable() override { UnregisterWaitable(); }

  // Blocks the caller while *word == expected (with the usual futex race
  // semantics: returns -EAGAIN immediately if *word != expected at entry).
  // Returns 0 when woken.
  int64_t Wait(uint64_t logical_addr, const std::atomic<int32_t>* word, int32_t expected);

  // Wakes up to `count` waiters on the address; returns the number woken.
  int64_t Wake(uint64_t logical_addr, int32_t count);

  // Wakes every waiter on every address (MVEE shutdown path).
  void WakeAll();

  // Waitable: the registry's teardown drain.
  void ShutdownWake() override { WakeAll(); }

  // Number of threads currently blocked (all addresses). Test helper.
  size_t WaiterCount() const;

  // Number of retained per-address buckets (leak regression tests: must
  // return to zero once every waiter left).
  size_t BucketCount() const;

  // "addr=0x... waiters=2; ..." — hang diagnostics.
  std::string DebugString() const;

 private:
  static constexpr size_t kFutexShards = 64;

  // One blocked thread; lives on the waiter's stack. The waker unlinks the
  // node under the shard lock and releases it with one `woken` store — its
  // LAST access to the node, because the waiter is free to return (and pop
  // the node off its stack) the moment it observes the store. Parking
  // happens on the *shard's* ParkingSpot, whose lifetime is the table's, so
  // the waker's WakeParked never touches dying stack memory.
  struct WaitNode {
    WaitNode* next = nullptr;
    std::atomic<bool> woken{false};
  };

  // FIFO of blocked threads on one address. Reclaimed at zero waiters.
  struct AddrQueue {
    WaitNode* head = nullptr;
    WaitNode* tail = nullptr;
    int32_t waiters = 0;
  };

  struct alignas(64) Shard {
    mutable std::mutex mutex;
    std::map<uint64_t, AddrQueue> queues;
    ParkingSpot park;
  };

  Shard& ShardFor(uint64_t logical_addr) {
    // SplitMix64 avalanche so sequential addresses spread across shards.
    return shards_[SplitMix64(logical_addr) & (kFutexShards - 1)];
  }

  // Shutdown visibility: a Wait that starts after ShutdownAll ran must not
  // enqueue a node nobody will ever wake (WakeAll already drained the
  // shards), and a parked waiter must cancel itself when the flag rises.
  WaitRegistry* const registry_;
  WaitStats* const stats_;

  Shard shards_[kFutexShards];
};

}  // namespace mvee

#endif  // MVEE_VKERNEL_FUTEX_H_
