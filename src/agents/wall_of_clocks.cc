#include "mvee/agents/wall_of_clocks.h"

#include <algorithm>
#include <string>

#include "mvee/agents/replay_wait.h"
#include "mvee/util/spin.h"
#include "mvee/util/variant_killed.h"

namespace mvee {

namespace {

constexpr size_t kProbeLimit = 64;

// Largest table the exact map will preallocate: 2^28 slots of 8-byte keys is
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

size_t ExactClockMap::TableCapacityFor(size_t clock_count) {
  return NextPow2(TableSlotsFor(clock_count));
}

ExactClockMap::ExactClockMap(size_t clock_count)
    : capacity_(TableCapacityFor(clock_count)),
      mask_(capacity_ - 1),
      keys_(capacity_),
      overflow_capacity_(std::min(capacity_, size_t{1} << 12)),
      overflow_mask_(overflow_capacity_ - 1),
      overflow_keys_(overflow_capacity_) {
  for (auto& key : keys_) {
    key.store(0, std::memory_order_relaxed);
  }
  for (auto& key : overflow_keys_) {
    key.store(0, std::memory_order_relaxed);
  }
}

uint32_t ExactClockMap::ClockOf(const void* addr) {
  // Bucket at 8-byte granularity for the same CMPXCHG8B reason as WoC; +1 so
  // the null bucket can never collide with the empty-slot sentinel 0.
  const uint64_t key = (reinterpret_cast<uint64_t>(addr) >> 3) + 1;
  uint64_t index = ClockAddressHash(key) & mask_;
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
    index = (index + 1) & mask_;
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
  return static_cast<uint32_t>(ClockAddressHash(key) & mask_);
}

template <typename ClockMap>
ClockRuntime<ClockMap>::ClockRuntime(const AgentConfig& config, AgentControl control)
    : config_(ValidatedAgentConfig(config)),
      control_(std::move(control)),
      stats_(config_),
      map_(config_.clock_count),
      master_clocks_(map_.clock_count()),
      rings_(config_),
      slave_clocks_(config_.num_variants > 0 ? config_.num_variants - 1 : 0) {
  for (auto& clocks : slave_clocks_) {
    clocks = std::vector<SlaveClock>(map_.clock_count());
  }
}

template <typename ClockMap>
void ClockRuntime<ClockMap>::DetachVariant(uint32_t variant) {
  if (variant == 0 || variant >= config_.num_variants) {
    return;
  }
  // Consumer v-1 of every per-thread ring belongs to slave variant v.
  rings_.DetachConsumer(variant - 1);
}

template <typename ClockMap>
std::unique_ptr<SyncAgent> ClockRuntime<ClockMap>::CreateAgent(uint32_t variant_index) {
  return std::make_unique<ClockAgent<ClockMap>>(this, variant_index);
}

template <typename ClockMap>
ClockAgent<ClockMap>::ClockAgent(ClockRuntime<ClockMap>* runtime, uint32_t variant)
    : runtime_(runtime),
      role_(variant == 0 ? AgentRole::kMaster : AgentRole::kSlave),
      variant_(variant),
      pending_(runtime->config_.max_threads) {}

template <typename ClockMap>
void ClockAgent<ClockMap>::BeforeSyncOp(uint32_t tid, const void* addr) {
  if (runtime_->control_.aborted() && AlreadyUnwinding()) {
    return;  // Teardown: no second throw from destructor-driven sync ops.
  }
  CheckTidBound(tid, runtime_->config_.max_threads, runtime_->control_, name());

  if (role_ == AgentRole::kMaster) {
    // Lock the clock bucket across the op so that the recorded per-clock
    // order equals the execution order. Contention here mirrors the
    // program's own contention on the corresponding sync variables (§4.5:
    // overhead "scales with the pre-existing resource contention").
    const uint32_t clock_id = runtime_->map_.ClockOf(addr);
    auto& clock = runtime_->master_clocks_[clock_id];
    SpinWait waiter;
    while (clock.lock.test_and_set(std::memory_order_acquire)) {
      if (runtime_->control_.aborted()) {
        throw VariantKilled{};
      }
      waiter.Pause();
    }
    pending_[tid] = Entry{clock_id, clock.time};
    return;
  }

  // Slave: addresses differ per variant under ASLR/DCL, so the slave never
  // consults the map — the recorded clock id alone drives replay. Fetch this
  // thread's next recorded entry, then wait for the local clock copy to
  // reach the recorded time.
  auto& ring = runtime_->rings_.Get(tid);
  const size_t consumer = variant_ - 1;
  ReplayWait wait(runtime_->control_, variant_, runtime_->config_.replay_deadline,
                  &runtime_->stats_, name(), tid);
  Entry entry;
  wait.Until([&] { return ring.Peek(consumer, 0, &entry); },
             [] { return std::string("no entry"); });
  auto& local_clock = runtime_->slave_clocks_[consumer][entry.clock_id].time;
  wait.Until([&] { return local_clock.load(std::memory_order_acquire) == entry.time; },
             [&] {
               return "clock " + std::to_string(entry.clock_id) + " stuck at " +
                      std::to_string(local_clock.load()) + ", want " +
                      std::to_string(entry.time);
             });
  pending_[tid] = entry;
}

template <typename ClockMap>
void ClockAgent<ClockMap>::AfterSyncOp(uint32_t tid, const void* addr) {
  (void)addr;
  if (runtime_->control_.aborted() && AlreadyUnwinding()) {
    return;
  }
  const Entry& pending = pending_[tid];
  if (role_ == AgentRole::kMaster) {
    // A fresh entry, not a copy of the slot: a whole-slot copy also loads
    // the padding Before never wrote, which defeats store-to-load
    // forwarding of the clock id on every op.
    const Entry entry{pending.clock_id, pending.time};
    auto& clock = runtime_->master_clocks_[entry.clock_id];
    clock.time = entry.time + 1;
    clock.lock.clear(std::memory_order_release);

    // Publication happens outside the clock lock: this ring belongs to this
    // master thread alone (single producer), and slaves order replay by the
    // recorded clock value, not by push order — so a delayed push can only
    // delay, never reorder, the replay. Keeping a full-ring stall out of the
    // lock also lets other masters keep advancing this clock meanwhile.
    RecordIntoRing(runtime_->rings_.Get(tid), entry, /*held=*/nullptr, runtime_->control_,
                   runtime_->stats_.shard(variant_, tid));
    return;
  }

  const size_t consumer = variant_ - 1;
  runtime_->slave_clocks_[consumer][pending.clock_id].time.store(pending.time + 1,
                                                                 std::memory_order_release);
  runtime_->rings_.Get(tid).Advance(consumer);
  runtime_->stats_.shard(variant_, tid).ops_replayed.Add();
}

template class ClockRuntime<HashedClockMap>;
template class ClockRuntime<ExactClockMap>;
template class ClockAgent<HashedClockMap>;
template class ClockAgent<ExactClockMap>;

}  // namespace mvee
