#include "mvee/agents/wall_of_clocks.h"

#include <chrono>
#include <string>

#include "mvee/util/spin.h"
#include "mvee/util/variant_killed.h"

namespace mvee {

WallOfClocksRuntime::WallOfClocksRuntime(const AgentConfig& config, AgentControl control)
    : config_(ValidatedAgentConfig(config)),
      control_(std::move(control)),
      stats_(config_),
      master_clocks_(config_.clock_count),
      rings_(config_),
      slave_clocks_(config_.num_variants > 0 ? config_.num_variants - 1 : 0) {
  for (auto& clocks : slave_clocks_) {
    clocks = std::vector<SlaveClock>(config_.clock_count);
  }
}

void WallOfClocksRuntime::DetachVariant(uint32_t variant) {
  if (variant == 0 || variant >= config_.num_variants) {
    return;
  }
  // Consumer v-1 of every per-thread ring belongs to slave variant v.
  rings_.DetachConsumer(variant - 1);
}

std::unique_ptr<SyncAgent> WallOfClocksRuntime::CreateAgent(uint32_t variant_index) {
  const AgentRole role = variant_index == 0 ? AgentRole::kMaster : AgentRole::kSlave;
  return std::make_unique<WallOfClocksAgent>(this, role, variant_index);
}

WallOfClocksAgent::WallOfClocksAgent(WallOfClocksRuntime* runtime, AgentRole role,
                                     uint32_t variant_index)
    : runtime_(runtime),
      role_(role),
      variant_index_(variant_index),
      pending_(runtime->config_.max_threads) {}

void WallOfClocksAgent::BeforeSyncOp(uint32_t tid, const void* addr) {
  if (runtime_->control_.aborted() && AlreadyUnwinding()) {
    return;  // Teardown: no second throw from destructor-driven sync ops.
  }
  CheckTidBound(tid, runtime_->config_.max_threads, runtime_->control_, name());
  const uint32_t clock_id = runtime_->ClockOf(addr);

  if (role_ == AgentRole::kMaster) {
    // Lock the clock bucket across the op so that the recorded per-clock
    // order equals the execution order. Contention here mirrors the
    // program's own contention on the corresponding sync variables (§4.5:
    // overhead "scales with the pre-existing resource contention").
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

  // Slave: fetch this thread's next recorded entry, then wait for the local
  // clock copy to reach the recorded time.
  auto& ring = runtime_->rings_.Get(tid);
  const size_t consumer = variant_index_ - 1;
  DeadlineGate deadline(runtime_->config_.replay_deadline);
  SpinWait waiter;
  bool stalled = false;

  WallOfClocksRuntime::Entry entry;
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
        runtime_->control_.on_stall("wall-of-clocks replay deadline (no entry, tid " +
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
        runtime_->control_.on_stall("wall-of-clocks replay deadline (clock " +
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

void WallOfClocksAgent::AfterSyncOp(uint32_t tid, const void* addr) {
  (void)addr;
  if (runtime_->control_.aborted() && AlreadyUnwinding()) {
    return;
  }
  if (role_ == AgentRole::kMaster) {
    const Pending pending = pending_[tid];
    auto& clock = runtime_->master_clocks_[pending.clock_id];
    clock.time = pending.time + 1;
    clock.lock.clear(std::memory_order_release);

    // Publication happens outside the clock lock: this ring belongs to this
    // master thread alone (single producer), and slaves order replay by the
    // recorded clock value, not by push order — so a delayed push can only
    // delay, never reorder, the replay. Keeping a full-ring stall out of the
    // lock also lets other masters keep advancing this clock meanwhile.
    auto& ring = runtime_->rings_.Get(tid);
    WallOfClocksRuntime::Entry entry;
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
