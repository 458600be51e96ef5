#include "mvee/vkernel/futex.h"

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <vector>

namespace mvee {

namespace {

// Parked-wait slice for futex waiters: the unlink-then-wake protocol is
// lost-wakeup-free (park.h), so the slice is only the second line of
// defense; 500us keeps even a hypothetical miss invisible at run scale.
constexpr auto kFutexParkSlice = std::chrono::microseconds(500);

}  // namespace

int64_t FutexTable::Wait(uint64_t logical_addr, const std::atomic<int32_t>* word,
                         int32_t expected) {
  WaitNode node;
  Shard& shard = ShardFor(logical_addr);
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    // A wait that starts after teardown drained the shards would enqueue a
    // node nobody will ever wake; report "woken" and let the variant unwind
    // at its next trap (the reporter is already tripped).
    if (registry_ != nullptr && registry_->shutdown()) {
      return 0;
    }
    // Linux futex semantics: re-check the word under the bucket lock; if it
    // no longer holds the expected value the caller lost a race with a waker
    // and must retry in user space.
    if (word != nullptr && word->load(std::memory_order_acquire) != expected) {
      return -EAGAIN;
    }
    AddrQueue& queue = shard.queues[logical_addr];
    if (queue.tail != nullptr) {
      queue.tail->next = &node;
    } else {
      queue.head = &node;
    }
    queue.tail = &node;
    ++queue.waiters;
  }
  // The waker unlinked us before setting `woken`, so after this loop the
  // node is unreachable and safe to pop off the stack. BeginPark / re-check /
  // WaitTicket on the shard's spot is park.h's lost-wakeup-free discipline.
  while (!node.woken.load(std::memory_order_acquire)) {
    if (registry_ != nullptr && registry_->shutdown()) {
      // Teardown while parked: cancel by unlinking under the shard lock. If
      // a waker already unlinked the node, its `woken` store is imminent —
      // keep looping for it (the waker no longer touches the node after).
      std::lock_guard<std::mutex> lock(shard.mutex);
      if (node.woken.load(std::memory_order_acquire)) {
        break;
      }
      auto it = shard.queues.find(logical_addr);
      if (it != shard.queues.end()) {
        AddrQueue& queue = it->second;
        WaitNode** link = &queue.head;
        while (*link != nullptr && *link != &node) {
          link = &(*link)->next;
        }
        if (*link == &node) {
          *link = node.next;
          if (queue.tail == &node) {
            WaitNode* last = queue.head;
            while (last != nullptr && last->next != nullptr) {
              last = last->next;
            }
            queue.tail = last;
          }
          --queue.waiters;
          if (queue.waiters == 0) {
            shard.queues.erase(it);
          }
          return 0;
        }
      }
      continue;  // Unlinked by a waker: wait for its `woken` store.
    }
    shard.park.BeginPark();
    const uint64_t ticket = shard.park.Ticket();
    if (node.woken.load(std::memory_order_acquire)) {
      shard.park.EndPark();
      break;
    }
    if (stats_ != nullptr) {
      stats_->waits.fetch_add(1, std::memory_order_relaxed);
    }
    shard.park.WaitTicket(ticket, kFutexParkSlice);
    shard.park.EndPark();
  }
  return 0;
}

int64_t FutexTable::Wake(uint64_t logical_addr, int32_t count) {
  if (count <= 0) {
    return 0;
  }
  WaitNode* to_wake = nullptr;
  WaitNode** tail_next = &to_wake;
  int64_t woken = 0;
  Shard& shard = ShardFor(logical_addr);
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.queues.find(logical_addr);
    if (it == shard.queues.end()) {
      return 0;
    }
    AddrQueue& queue = it->second;
    while (woken < count && queue.head != nullptr) {
      WaitNode* node = queue.head;
      queue.head = node->next;
      if (queue.head == nullptr) {
        queue.tail = nullptr;
      }
      node->next = nullptr;
      *tail_next = node;
      tail_next = &node->next;
      --queue.waiters;
      ++woken;
    }
    if (queue.waiters == 0) {
      // Reclaim at zero waiters: unconsumed wake credits die, like futex,
      // and a long-running server retains no per-address state.
      shard.queues.erase(it);
    }
  }
  // Release outside the shard lock. `woken` is the LAST access to each node:
  // the released thread may return and reuse its stack immediately. The
  // parked-wakeup goes through the shard's spot, which outlives every node.
  while (to_wake != nullptr) {
    WaitNode* node = to_wake;
    to_wake = node->next;
    node->woken.store(true, std::memory_order_release);
  }
  if (woken > 0) {
    shard.park.WakeParked();
    if (stats_ != nullptr) {
      stats_->wakeups.fetch_add(static_cast<uint64_t>(woken), std::memory_order_relaxed);
    }
  }
  return woken;
}

void FutexTable::WakeAll() {
  for (Shard& shard : shards_) {
    // Collect the addresses first: Wake takes the shard lock itself and
    // erases entries.
    std::vector<uint64_t> addrs;
    {
      std::lock_guard<std::mutex> lock(shard.mutex);
      for (const auto& [addr, queue] : shard.queues) {
        addrs.push_back(addr);
      }
    }
    for (const uint64_t addr : addrs) {
      Wake(addr, INT32_MAX);
    }
  }
}

size_t FutexTable::WaiterCount() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (const auto& [addr, queue] : shard.queues) {
      total += static_cast<size_t>(queue.waiters);
    }
  }
  return total;
}

size_t FutexTable::BucketCount() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    total += shard.queues.size();
  }
  return total;
}

std::string FutexTable::DebugString() const {
  std::string out;
  char line[96];
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (const auto& [addr, queue] : shard.queues) {
      std::snprintf(line, sizeof(line), "addr=0x%llx waiters=%d; ",
                    static_cast<unsigned long long>(addr), queue.waiters);
      out += line;
    }
  }
  return out;
}

}  // namespace mvee
