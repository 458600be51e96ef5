#include "mvee/agents/partial_order.h"

#include <string>

#include "mvee/agents/replay_wait.h"
#include "mvee/util/spin.h"
#include "mvee/util/variant_killed.h"

namespace mvee {

PartialOrderRuntime::PartialOrderRuntime(const AgentConfig& config, AgentControl control)
    : config_(ValidatedAgentConfig(config)),
      control_(std::move(control)),
      stats_(config_),
      record_shards_(config_.max_threads),
      thread_rings_(config_) {
  for (uint32_t v = 1; v < config_.num_variants; ++v) {
    auto slave = std::make_unique<SlaveState>();
    slave->consumed_through = std::vector<ConsumedMark>(config_.max_threads);
    // Capacity contract (watermark.h): the gate admits at most po_window
    // outstanding sequences plus a max_threads overshoot (the gate check
    // precedes the ticket draw), so every live mark fits.
    slave->replay_mark =
        std::make_unique<PrefixWatermark>(config_.po_window + config_.max_threads + 1);
    slaves_.push_back(std::move(slave));
  }
}

size_t PartialOrderRuntime::RecordShardIndex(const void* addr) {
  // The shard mapping of a runtime with the default max_threads.
  return RecordShards::IndexFor(addr, RecordShardCount(AgentConfig{}.max_threads));
}

void PartialOrderRuntime::DetachVariant(uint32_t variant) {
  if (variant == 0 || variant >= config_.num_variants) {
    return;
  }
  // Consumer v-1 belongs to slave variant v in every per-thread ring.
  thread_rings_.DetachConsumer(variant - 1);
  // Publish before any later gate pass recomputes the minimum, so a master
  // stalled on the dead variant's frozen watermark drops it on its next
  // slow-path iteration.
  detached_slaves_.fetch_or(uint32_t{1} << (variant - 1), std::memory_order_acq_rel);
}

uint64_t PartialOrderRuntime::ReplayedPrefix(uint32_t variant) {
  if (variant == 0 || variant >= config_.num_variants) {
    return 0;
  }
  return slaves_[variant - 1]->replay_mark->TryAdvance();
}

void PartialOrderRuntime::GateOnReplayWindow(AgentStats::Shard& stats) {
  // One relaxed load on the fast path: limits only grow, so a stale (small)
  // value can only send us to the slow path, never admit an out-of-window
  // ticket.
  if (record_shards_.TicketsIssued() < window_limit_.load(std::memory_order_relaxed))
      [[likely]] {
    return;
  }
  SpinWait waiter;
  bool stalled = false;
  for (;;) {
    const uint32_t detached = detached_slaves_.load(std::memory_order_acquire);
    uint64_t min_prefix = ~uint64_t{0};
    bool any_live = false;
    for (uint32_t v = 1; v < config_.num_variants; ++v) {
      if (detached & (uint32_t{1} << (v - 1))) {
        continue;
      }
      any_live = true;
      // The stalled side donates the fold work (watermark.h): slaves only
      // release-store their marks.
      const uint64_t prefix = slaves_[v - 1]->replay_mark->TryAdvance();
      min_prefix = prefix < min_prefix ? prefix : min_prefix;
    }
    if (!any_live) {
      // No replayer left to bound: the window is moot.
      window_limit_.store(~uint64_t{0}, std::memory_order_relaxed);
      return;
    }
    const uint64_t limit = min_prefix + config_.po_window;
    window_limit_.store(limit, std::memory_order_relaxed);
    if (record_shards_.TicketsIssued() < limit) {
      return;
    }
    if (!stalled) {
      stalled = true;
      stats.record_stalls.Add();
    }
    if (control_.aborted()) {
      throw VariantKilled{};
    }
    waiter.Pause();
  }
}

std::unique_ptr<SyncAgent> PartialOrderRuntime::CreateAgent(uint32_t variant_index) {
  return std::make_unique<PartialOrderAgent>(this, variant_index);
}

PartialOrderAgent::PartialOrderAgent(PartialOrderRuntime* runtime, uint32_t variant)
    : runtime_(runtime),
      role_(variant == 0 ? AgentRole::kMaster : AgentRole::kSlave),
      variant_(variant),
      slave_(variant == 0 ? nullptr : runtime->slaves_[variant - 1].get()),
      pending_(runtime->config_.max_threads) {}

void PartialOrderAgent::BeforeSyncOp(uint32_t tid, const void* addr) {
  if (runtime_->control_.aborted() && AlreadyUnwinding()) {
    return;  // Teardown: no second throw from destructor-driven sync ops.
  }
  CheckTidBound(tid, runtime_->config_.max_threads, runtime_->control_, name());
  if (role_ == AgentRole::kMaster) {
    // Window gate BEFORE the shard lock: a gated master must not stall
    // while holding a shard other replaying-adjacent masters need.
    runtime_->GateOnReplayWindow(runtime_->stats_.shard(variant_, tid));
    // Per-variable shard lock held across (op + ticket + push): see the
    // total-order agent and docs/DESIGN.md §8 for the ordering argument.
    pending_[tid].shard = &runtime_->record_shards_.Acquire(
        addr, runtime_->control_, runtime_->stats_.shard(variant_, tid));
    return;
  }

  // Replay (docs/DESIGN.md §8). Step 1: this thread's next entry
  // is its own ring's front — master thread t produced exactly thread t's
  // entries, in program order, so no window scan is needed to find it.
  auto& ring = runtime_->thread_rings_.Get(tid);
  const size_t consumer = variant_ - 1;
  ReplayWait wait(runtime_->control_, variant_, runtime_->config_.replay_deadline,
                  &runtime_->stats_, name(), tid);
  PartialOrderRuntime::Entry mine;
  wait.Until([&] { return ring.Peek(consumer, 0, &mine); },
             [] { return std::string("no entry"); });

  pending_[tid].seq = mine.seq;

  // Step 2, O(1) dependence wait: the master recorded this op's immediate
  // same-shard predecessor edge (it held the shard lock while drawing the
  // ticket, so the edge was known for free). Waiting until the
  // predecessor is consumed transitively waits for the whole earlier
  // chain — which includes every earlier same-key op. Thread prev_tid
  // publishes a consumed-watermark after every replayed op (it consumes
  // its entries in increasing sequence order), so one acquire load
  // answers "has prev_seq been replayed". Deliberately NOT a peek into
  // ring[prev_tid]: a cross-thread peek races that ring's cursor advance
  // and can read a just-recycled slot's far-larger sequence, wrongly
  // releasing this waiter. The paper's agent scans O(po_window) entries
  // for the same answer.
  if (mine.prev_seq == PartialOrderRuntime::kNoPrev) {
    return;
  }
  auto& prev_mark = slave_->consumed_through[mine.prev_tid].next;
  wait.Until([&] { return prev_mark.load(std::memory_order_acquire) > mine.prev_seq; },
             [&] {
               return "seq " + std::to_string(mine.seq) + " waiting on thread " +
                      std::to_string(mine.prev_tid) + "'s seq " + std::to_string(mine.prev_seq);
             });
}

void PartialOrderAgent::AfterSyncOp(uint32_t tid, const void* addr) {
  (void)addr;  // The shard was resolved (and locked) in BeforeSyncOp.
  if (runtime_->control_.aborted() && AlreadyUnwinding()) {
    return;
  }
  if (role_ == AgentRole::kMaster) {
    auto& shard = *pending_[tid].shard;
    PartialOrderRuntime::Entry entry;
    entry.seq = runtime_->record_shards_.DrawTicket();
    // Dependence edge: the previous op recorded under this shard lock (the
    // chain covers every same-key op, plus benignly-merged collisions).
    entry.prev_seq = shard.extra.last_seq;
    entry.prev_tid = shard.extra.last_tid;
    shard.extra.last_seq = entry.seq;
    shard.extra.last_tid = tid;
    RecordIntoRing(runtime_->thread_rings_.Get(tid), entry, &shard.lock, runtime_->control_,
                   runtime_->stats_.shard(variant_, tid));
    shard.Release();
    return;
  }

  runtime_->thread_rings_.Get(tid).Advance(variant_ - 1);
  // The release publishes this op's effects to whichever thread acquires
  // the watermark in its dependence wait.
  slave_->consumed_through[tid].next.store(pending_[tid].seq + 1, std::memory_order_release);
  // Feed the master's po_window gate: one release store; the gated master
  // folds the prefix itself (watermark.h).
  slave_->replay_mark->Mark(pending_[tid].seq);
  runtime_->stats_.shard(variant_, tid).ops_replayed.Add();
}

}  // namespace mvee
