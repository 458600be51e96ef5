#include "mvee/agents/total_order.h"

#include <string>

#include "mvee/agents/replay_wait.h"

namespace mvee {

TotalOrderRuntime::TotalOrderRuntime(const AgentConfig& config, AgentControl control)
    : config_(ValidatedAgentConfig(config)),
      control_(std::move(control)),
      stats_(config_),
      record_shards_(config_.max_threads),
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
  return std::make_unique<TotalOrderAgent>(this, variant_index);
}

TotalOrderAgent::TotalOrderAgent(TotalOrderRuntime* runtime, uint32_t variant)
    : runtime_(runtime),
      role_(variant == 0 ? AgentRole::kMaster : AgentRole::kSlave),
      variant_(variant),
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
        addr, runtime_->control_, runtime_->stats_.shard(variant_, tid));
    return;
  }

  // Slave merge (docs/DESIGN.md §8): thread t's next op is its own ring's
  // front (master thread t produced exactly this thread's entries, in
  // order), and the per-variant next_seq ratchet admits the one entry
  // whose global sequence is next. Together the per-thread fronts plus
  // the ratchet ARE the deterministic merge of the per-thread rings.
  auto& ring = runtime_->thread_rings_.Get(tid);
  const size_t consumer = variant_ - 1;
  ReplayWait wait(runtime_->control_, variant_, runtime_->config_.replay_deadline,
                  &runtime_->stats_, name(), tid);
  TotalOrderRuntime::Entry entry;
  wait.Until([&] { return ring.Peek(consumer, 0, &entry); },
             [] { return std::string("no entry"); });
  auto& front = runtime_->replay_fronts_[consumer].next_seq;
  wait.Until([&] { return front.load(std::memory_order_acquire) == entry.seq; },
             [&] {
               return "seq " + std::to_string(entry.seq) + " waiting on " +
                      std::to_string(front.load());
             });
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
    auto& shard = *pending_[tid].shard;
    const TotalOrderRuntime::Entry entry{runtime_->record_shards_.DrawTicket()};
    RecordIntoRing(runtime_->thread_rings_.Get(tid), entry, &shard.lock, runtime_->control_,
                   runtime_->stats_.shard(variant_, tid));
    shard.Release();
    return;
  }

  const size_t consumer = variant_ - 1;
  runtime_->thread_rings_.Get(tid).Advance(consumer);
  // Release the ratchet: hands this op's effects to whichever thread owns
  // the next sequence (its acquire load in BeforeSyncOp pairs with this).
  runtime_->replay_fronts_[consumer].next_seq.store(pending_[tid].seq + 1,
                                                    std::memory_order_release);
  runtime_->stats_.shard(variant_, tid).ops_replayed.Add();
}

}  // namespace mvee
