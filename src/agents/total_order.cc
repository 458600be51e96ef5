#include "mvee/agents/total_order.h"

#include <chrono>
#include <string>

#include "mvee/util/spin.h"
#include "mvee/util/variant_killed.h"

namespace mvee {

TotalOrderRuntime::TotalOrderRuntime(const AgentConfig& config, AgentControl control)
    : config_(ValidatedAgentConfig(config)),
      control_(std::move(control)),
      stats_(config_),
      record_shards_(config_.record_shard_count),
      thread_rings_(config_),
      replay_fronts_(config_.num_variants > 0 ? config_.num_variants - 1 : 0) {}

void TotalOrderRuntime::DetachVariant(uint32_t variant) {
  if (variant == 0 || variant >= config_.num_variants) {
    return;
  }
  // Consumer v-1 belongs to slave variant v in every per-thread ring.
  thread_rings_.DetachConsumer(variant - 1);
}

std::unique_ptr<SyncAgent> TotalOrderRuntime::CreateAgent(uint32_t variant_index) {
  if (variant_index == 0) {
    return std::make_unique<TotalOrderAgent>(this, AgentRole::kMaster, 0);
  }
  return std::make_unique<TotalOrderAgent>(this, AgentRole::kSlave, variant_index - 1);
}

TotalOrderAgent::TotalOrderAgent(TotalOrderRuntime* runtime, AgentRole role, size_t consumer_id)
    : runtime_(runtime),
      role_(role),
      consumer_id_(consumer_id),
      stats_variant_(role == AgentRole::kMaster ? 0
                                                : static_cast<uint32_t>(consumer_id) + 1),
      pending_(runtime->config_.max_threads) {}

void TotalOrderAgent::BeforeSyncOp(uint32_t tid, const void* addr) {
  if (runtime_->control_.aborted() && AlreadyUnwinding()) {
    return;  // Teardown: no second throw from destructor-driven sync ops.
  }
  CheckTidBound(tid, runtime_->config_.max_threads, runtime_->control_, name());
  if (role_ == AgentRole::kMaster) {
    // Per-variable shard lock held across (op + ticket + push): conflicting
    // ops serialize here — and only here — so the ticket order drawn in
    // AfterSyncOp is a linear extension of the conflict order, which is all
    // the slaves need (docs/DESIGN.md §8). Independent ops proceed in
    // parallel; no global master lock sits on the hot path.
    pending_[tid].shard = &runtime_->record_shards_.Acquire(
        addr, runtime_->control_, runtime_->stats_.shard(stats_variant_, tid));
    return;
  }

  DeadlineGate deadline(runtime_->config_.replay_deadline);
  SpinWait waiter;
  bool stalled = false;

  // Slave merge (docs/DESIGN.md §8): thread t's next op is its own ring's
  // front (master thread t produced exactly this thread's entries, in
  // order), and the per-variant next_seq ratchet admits the one entry
  // whose global sequence is next. Together the per-thread fronts plus
  // the ratchet ARE the deterministic merge of the per-thread rings.
  auto& ring = runtime_->thread_rings_.Get(tid);
  TotalOrderRuntime::Entry entry;
  while (!ring.Peek(consumer_id_, 0, &entry)) {
    if (runtime_->control_.should_unwind(stats_variant_)) {
      throw VariantKilled{};
    }
    if (!stalled) {
      stalled = true;
      runtime_->stats_.shard(stats_variant_, tid).replay_stalls.Add();
    }
    if (deadline.Expired(waiter)) {
      if (runtime_->control_.on_stall) {
        runtime_->control_.on_stall("total-order replay deadline (no entry, tid " +
                                    std::to_string(tid) + ")");
      }
      throw VariantKilled{};
    }
    waiter.Pause();
  }
  auto& front = runtime_->replay_fronts_[consumer_id_].next_seq;
  waiter.Reset();
  while (front.load(std::memory_order_acquire) != entry.seq) {
    if (runtime_->control_.should_unwind(stats_variant_)) {
      throw VariantKilled{};
    }
    if (!stalled) {
      stalled = true;
      runtime_->stats_.shard(stats_variant_, tid).replay_stalls.Add();
    }
    if (deadline.Expired(waiter)) {
      if (runtime_->control_.on_stall) {
        runtime_->control_.on_stall("total-order replay deadline (seq " +
                                    std::to_string(entry.seq) + " waiting on " +
                                    std::to_string(front.load()) + ", tid " +
                                    std::to_string(tid) + ")");
      }
      throw VariantKilled{};
    }
    waiter.Pause();
  }
  pending_[tid].seq = entry.seq;
}

void TotalOrderAgent::AfterSyncOp(uint32_t tid, const void* addr) {
  (void)addr;  // The shard was resolved (and locked) in BeforeSyncOp.
  if (runtime_->control_.aborted() && AlreadyUnwinding()) {
    return;
  }
  if (role_ == AgentRole::kMaster) {
    // Ticket and push both stay inside the shard lock. The ticket gives
    // conflicting ops sequences in conflict order; the push-before-unlock
    // chains ring publications of conflicting ops, so a slave that sees a
    // later conflicting entry is guaranteed to also see every earlier one
    // (the §8 visibility argument the PO dependence wait relies on).
    const TotalOrderRuntime::Entry entry{runtime_->record_shards_.DrawTicket()};
    RecordIntoRing(runtime_->thread_rings_.Get(tid), entry, *pending_[tid].shard,
                   runtime_->control_, runtime_->stats_.shard(stats_variant_, tid));
    return;
  }

  runtime_->thread_rings_.Get(tid).Advance(consumer_id_);
  // Release the ratchet: hands this op's effects to whichever thread owns
  // the next sequence (its acquire load in BeforeSyncOp pairs with this).
  runtime_->replay_fronts_[consumer_id_].next_seq.store(pending_[tid].seq + 1,
                                                        std::memory_order_release);
  runtime_->stats_.shard(stats_variant_, tid).ops_replayed.Add();
}

}  // namespace mvee
