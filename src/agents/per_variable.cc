#include "mvee/agents/per_variable.h"

#include <algorithm>
#include <chrono>
#include <string>

#include "mvee/util/spin.h"
#include "mvee/util/variant_killed.h"

namespace mvee {

namespace {

constexpr size_t kProbeLimit = 64;

// Largest table the runtime will preallocate: 2^28 slots of 8-byte keys is
// already a 2 GiB key array; anything larger is a config error, not a real
// wall size.
constexpr size_t kMaxTableCapacity = size_t{1} << 28;

size_t NextPow2(size_t n) {
  size_t p = 2;
  while (p < n && p < kMaxTableCapacity) {
    p <<= 1;
  }
  return p;
}

// clock_count * 8 with saturation: a huge clock_count must clamp to the max
// table size, not wrap around (size_t overflow would otherwise produce a
// tiny — or zero — table and an all-wrong mask).
size_t TableSlotsFor(size_t clock_count) {
  if (clock_count > kMaxTableCapacity / 8) {
    return kMaxTableCapacity;
  }
  return clock_count * 8;
}

}  // namespace

size_t PerVariableRuntime::TableCapacityFor(size_t clock_count) {
  return NextPow2(TableSlotsFor(clock_count));
}

PerVariableRuntime::PerVariableRuntime(const AgentConfig& config, AgentControl control)
    : config_(ValidatedAgentConfig(config)),
      control_(std::move(control)),
      stats_(config_),
      table_capacity_(TableCapacityFor(config_.clock_count)),
      table_mask_(table_capacity_ - 1),
      keys_(table_capacity_),
      overflow_capacity_(std::min(table_capacity_, size_t{1} << 12)),
      overflow_mask_(overflow_capacity_ - 1),
      overflow_keys_(overflow_capacity_),
      master_clocks_(table_capacity_),
      rings_(config_),
      slave_clocks_(config_.num_variants > 0 ? config_.num_variants - 1 : 0) {
  for (auto& key : keys_) {
    key.store(0, std::memory_order_relaxed);
  }
  for (auto& key : overflow_keys_) {
    key.store(0, std::memory_order_relaxed);
  }
  for (auto& clocks : slave_clocks_) {
    clocks = std::vector<SlaveClock>(table_capacity_);
  }
}

uint32_t PerVariableRuntime::ClockOf(const void* addr) {
  // Bucket at 8-byte granularity for the same CMPXCHG8B reason as WoC; +1 so
  // the null bucket can never collide with the empty-slot sentinel 0.
  const uint64_t key = (reinterpret_cast<uint64_t>(addr) >> 3) + 1;
  uint64_t index = ClockAddressHash(key) & table_mask_;
  for (size_t probe = 0; probe < kProbeLimit; ++probe) {
    const uint64_t current = keys_[index].load(std::memory_order_acquire);
    if (current == key) {
      return static_cast<uint32_t>(index);
    }
    if (current == 0) {
      uint64_t expected = 0;
      if (keys_[index].compare_exchange_strong(expected, key, std::memory_order_acq_rel)) {
        variables_mapped_.fetch_add(1, std::memory_order_relaxed);
        return static_cast<uint32_t>(index);
      }
      if (expected == key) {
        return static_cast<uint32_t>(index);  // Lost the race to ourselves.
      }
      // Lost to a different key; keep probing from here.
    }
    index = (index + 1) & table_mask_;
  }
  // Table region saturated: degrade to WoC-style hashed assignment. The
  // clock still exists (every table index has one); we merely share it.
  // Count the overflow only on this key's first fallback — TableOverflows()
  // reports saturated variables, not lookups — via an insert-only dedup set
  // probed the same way as the main table.
  uint64_t overflow_index = ClockAddressHash(key) & overflow_mask_;
  bool seen_before = false;
  for (size_t probe = 0; probe < kProbeLimit; ++probe) {
    const uint64_t current = overflow_keys_[overflow_index].load(std::memory_order_acquire);
    if (current == key) {
      seen_before = true;
      break;
    }
    if (current == 0) {
      uint64_t expected = 0;
      if (overflow_keys_[overflow_index].compare_exchange_strong(expected, key,
                                                                std::memory_order_acq_rel)) {
        break;  // First sighting: we count it below.
      }
      if (expected == key) {
        seen_before = true;  // Lost the race to ourselves.
        break;
      }
    }
    overflow_index = (overflow_index + 1) & overflow_mask_;
    // Probe exhaustion: the dedup set is saturated too; count every lookup
    // (overcount beats a second dedup layer in a config this degenerate).
  }
  if (!seen_before) {
    table_overflows_.fetch_add(1, std::memory_order_relaxed);
  }
  return static_cast<uint32_t>(ClockAddressHash(key) & table_mask_);
}

void PerVariableRuntime::DetachVariant(uint32_t variant) {
  if (variant == 0 || variant >= config_.num_variants) {
    return;
  }
  // Consumer v-1 of every per-thread ring belongs to slave variant v.
  rings_.DetachConsumer(variant - 1);
}

std::unique_ptr<SyncAgent> PerVariableRuntime::CreateAgent(uint32_t variant_index) {
  const AgentRole role = variant_index == 0 ? AgentRole::kMaster : AgentRole::kSlave;
  return std::make_unique<PerVariableAgent>(this, role, variant_index);
}

PerVariableAgent::PerVariableAgent(PerVariableRuntime* runtime, AgentRole role,
                                   uint32_t variant_index)
    : runtime_(runtime),
      role_(role),
      variant_index_(variant_index),
      pending_(runtime->config_.max_threads) {}

void PerVariableAgent::BeforeSyncOp(uint32_t tid, const void* addr) {
  if (runtime_->control_.aborted() && AlreadyUnwinding()) {
    return;
  }
  CheckTidBound(tid, runtime_->config_.max_threads, runtime_->control_, name());

  if (role_ == AgentRole::kMaster) {
    const uint32_t clock_id = runtime_->ClockOf(addr);
    auto& clock = runtime_->master_clocks_[clock_id];
    SpinWait waiter;
    while (clock.lock.test_and_set(std::memory_order_acquire)) {
      if (runtime_->control_.aborted()) {
        throw VariantKilled{};
      }
      waiter.Pause();
    }
    pending_[tid].clock_id = clock_id;
    pending_[tid].time = clock.time;
    return;
  }

  // Slave: addresses differ per variant under ASLR/DCL, so the slave never
  // consults the table — the recorded clock id alone drives replay, which is
  // what makes the agent address-space-layout agnostic (§4.5.1).
  auto& ring = runtime_->rings_.Get(tid);
  const size_t consumer = variant_index_ - 1;
  DeadlineGate deadline(runtime_->config_.replay_deadline);
  SpinWait waiter;
  bool stalled = false;

  PerVariableRuntime::Entry entry;
  while (!ring.Peek(consumer, 0, &entry)) {
    if (runtime_->control_.should_unwind(variant_index_)) {
      throw VariantKilled{};
    }
    if (!stalled) {
      stalled = true;
      runtime_->stats_.shard(variant_index_, tid).replay_stalls.Add();
    }
    if (deadline.Expired(waiter)) {
      if (runtime_->control_.on_stall) {
        runtime_->control_.on_stall("per-variable replay deadline (no entry, tid " +
                                    std::to_string(tid) + ")");
      }
      throw VariantKilled{};
    }
    waiter.Pause();
  }

  auto& local_clock = runtime_->slave_clocks_[consumer][entry.clock_id].time;
  waiter.Reset();
  while (local_clock.load(std::memory_order_acquire) != entry.time) {
    if (runtime_->control_.should_unwind(variant_index_)) {
      throw VariantKilled{};
    }
    if (!stalled) {
      stalled = true;
      runtime_->stats_.shard(variant_index_, tid).replay_stalls.Add();
    }
    if (deadline.Expired(waiter)) {
      if (runtime_->control_.on_stall) {
        runtime_->control_.on_stall("per-variable replay deadline (clock " +
                                    std::to_string(entry.clock_id) + " stuck at " +
                                    std::to_string(local_clock.load()) + ", want " +
                                    std::to_string(entry.time) + ", tid " +
                                    std::to_string(tid) + ")");
      }
      throw VariantKilled{};
    }
    waiter.Pause();
  }
  pending_[tid].clock_id = entry.clock_id;
  pending_[tid].time = entry.time;
}

void PerVariableAgent::AfterSyncOp(uint32_t tid, const void* addr) {
  (void)addr;
  if (runtime_->control_.aborted() && AlreadyUnwinding()) {
    return;
  }
  if (role_ == AgentRole::kMaster) {
    const Pending pending = pending_[tid];
    auto& clock = runtime_->master_clocks_[pending.clock_id];
    clock.time = pending.time + 1;
    clock.lock.clear(std::memory_order_release);

    // Publication outside the clock lock, same ordering argument as
    // wall-of-clocks: the ring is thread-private on the producer side and
    // replay is ordered by the recorded clock value.
    auto& ring = runtime_->rings_.Get(tid);
    PerVariableRuntime::Entry entry;
    entry.clock_id = pending.clock_id;
    entry.time = pending.time;
    if (!ring.TryPush(entry)) {
      runtime_->stats_.shard(variant_index_, tid).record_stalls.Add();
      SpinWait waiter;
      while (!ring.TryPush(entry)) {
        if (runtime_->control_.aborted()) {
          throw VariantKilled{};
        }
        waiter.Pause();
      }
    }
    runtime_->stats_.shard(variant_index_, tid).ops_recorded.Add();
    return;
  }

  const size_t consumer = variant_index_ - 1;
  const Pending pending = pending_[tid];
  runtime_->slave_clocks_[consumer][pending.clock_id].time.store(pending.time + 1,
                                                                 std::memory_order_release);
  runtime_->rings_.Get(tid).Advance(consumer);
  runtime_->stats_.shard(variant_index_, tid).ops_replayed.Add();
}

}  // namespace mvee
