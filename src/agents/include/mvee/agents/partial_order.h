// Partial-order (PO) replication agent (paper §4.5, Figure 4b).
//
// The master records the order of sync ops; slaves only enforce the
// recorded order between *dependent* ops — ops on the same sync variable. A
// slave thread may execute its next op as soon as every earlier op on the
// same variable has been replayed. This eliminates TO's unnecessary stalls
// (§4.5).
//
// Recording (docs/DESIGN.md §8): per-master-thread recording rings; entries
// carry a global sequence drawn from one fetch_add ticket counter inside a
// per-sync-variable shard lock, so the sequence order is a linear extension
// of the conflict order and no global master lock sits on the hot path.
// Because the shard lock is held while the ticket is drawn, the master
// knows each op's immediate same-shard predecessor for free and records the
// edge (prev_tid, prev_seq) in the entry. Slave thread t's next entry is its
// own ring's front, and the dependence wait is O(1): wait until thread
// prev_tid's consumed-watermark (the sequence it publishes after every
// replayed op) passes prev_seq — no window scan at all, where the paper's
// agent scans O(po_window) entries per op. The watermark is a dedicated
// per-thread atomic, NOT a peek into the predecessor's ring: a cross-thread
// peek races that ring's cursor advance and could read a recycled slot's
// (much larger) sequence, wrongly releasing the waiter. Shard collisions
// merge chains of distinct variables, which over-serializes exactly like
// WoC's hash collisions (§4.5) and is just as benign. The paper's lookahead
// window survives as a master-side bound (GateOnReplayWindow): recording
// runs at most po_window sequences ahead of the slowest slave's replay.

#ifndef MVEE_AGENTS_PARTIAL_ORDER_H_
#define MVEE_AGENTS_PARTIAL_ORDER_H_

#include <atomic>
#include <cstddef>
#include <memory>
#include <vector>

#include "mvee/agents/record_shards.h"
#include "mvee/agents/sync_agent.h"
#include "mvee/util/spsc_ring.h"
#include "mvee/util/watermark.h"

namespace mvee {

class PartialOrderRuntime {
 public:
  PartialOrderRuntime(const AgentConfig& config, AgentControl control);

  std::unique_ptr<SyncAgent> CreateAgent(uint32_t variant_index);

  // Excision (docs/DESIGN.md §9): stop `variant`'s stalled ring cursors from
  // gating the master's recording, so survivors keep producing after the
  // variant left. Safe concurrently with running agents.
  void DetachVariant(uint32_t variant);

  const AgentStats& stats() const { return stats_; }
  // Tickets drawn so far.
  uint64_t SequencesIssued() const { return record_shards_.TicketsIssued(); }
  // Per-thread recording rings materialized so far (lazy allocation).
  uint64_t RecordingRingsCreated() const { return thread_rings_.CreatedCount(); }
  // Every sequence below the returned value has been replayed by slave
  // `variant` (folds the watermark first). Exposed for the po_window test;
  // 0 for out-of-range variants.
  uint64_t ReplayedPrefix(uint32_t variant);

  // Which recording shard an address hashes to. Exposed for tests that need
  // sync variables in provably distinct shards (shard collisions merge
  // dependence chains, which is correct but over-serializing).
  static size_t RecordShardIndex(const void* addr);

 private:
  friend class PartialOrderAgent;

  // Sentinel for "no same-shard predecessor" (first op on a shard).
  static constexpr uint64_t kNoPrev = ~uint64_t{0};

  // The recording thread is implied by the ring the entry sits in, and the
  // sync variable by the dependence edge.
  struct Entry {
    uint64_t seq = 0;            // global ticket
    uint64_t prev_seq = kNoPrev; // same-shard predecessor's ticket
    uint32_t prev_tid = 0;       // ...and the thread that recorded it
  };

  // Chain tail for the dependence edges, written and read only under the
  // owning shard's lock (plain fields on the shard's private line).
  struct ChainTail {
    uint64_t last_seq = kNoPrev;
    uint32_t last_tid = 0;
  };
  using RecordShards = TicketedRecordShards<ChainTail>;

  // Per-thread consumed-watermark for the dependence wait: thread t
  // has replayed every one of its entries with sequence < `next`.
  struct alignas(64) ConsumedMark {
    std::atomic<uint64_t> next{0};
  };

  // Per-slave-variant replay state.
  struct SlaveState {
    // consumed_through[t].next - 1 is the last sequence thread t replayed
    // (released in AfterSyncOp, acquired by waiters).
    std::vector<ConsumedMark> consumed_through;
    // Cross-thread min-replayed-sequence watermark feeding the master's
    // po_window gate. Marked by the replaying thread in AfterSyncOp (one
    // release store); folded by whoever waits on it.
    std::unique_ptr<PrefixWatermark> replay_mark;
  };

  // po_window gate (master side, pre-Acquire): the paper's lookahead window,
  // enforced against the shared replay watermark — stall while the next
  // ticket would run more than po_window past the slowest live slave's
  // replayed prefix. The check happens before the shard lock is taken, so up
  // to max_threads threads can pass the gate and then draw tickets; the
  // overshoot is bounded by max_threads, which sizes the watermark below.
  void GateOnReplayWindow(AgentStats::Shard& stats);

  AgentConfig config_;
  AgentControl control_;
  AgentStats stats_;
  std::vector<std::unique_ptr<SlaveState>> slaves_;  // index: variant-1
  // Recording state (docs/DESIGN.md §8, shared with TO through
  // record_shards.h).
  RecordShards record_shards_;
  LazyRingSet<Entry> thread_rings_;  // [tid], created on first touch
  // Slave variants excised from the window gate (bit variant-1): a dead
  // variant's frozen watermark must not stall the master forever.
  std::atomic<uint32_t> detached_slaves_{0};
  // Gate fast path: tickets below this limit are inside the window for every
  // live slave. Monotone cache of min_prefix + po_window; refreshed on the
  // slow path only.
  alignas(64) std::atomic<uint64_t> window_limit_{0};
};

class PartialOrderAgent final : public SyncAgent {
 public:
  PartialOrderAgent(PartialOrderRuntime* runtime, uint32_t variant);

  void BeforeSyncOp(uint32_t tid, const void* addr) override;
  void AfterSyncOp(uint32_t tid, const void* addr) override;
  AgentRole role() const override { return role_; }
  const char* name() const override { return "partial-order"; }

 private:
  PartialOrderRuntime* const runtime_;
  const AgentRole role_;
  const uint32_t variant_;  // Slaves consume their rings with id variant - 1.
  PartialOrderRuntime::SlaveState* const slave_;  // nullptr for the master.
  struct Pending {
    // Replay: ticket sequence of the entry this thread matched in
    // BeforeSyncOp, consumed in AfterSyncOp.
    uint64_t seq = 0;
    // Recording: shard locked in BeforeSyncOp, released (after the ticket +
    // push) in AfterSyncOp — cached so After does not re-hash.
    PartialOrderRuntime::RecordShards::Shard* shard = nullptr;
  };
  PerThreadScratch<Pending> pending_;
};

}  // namespace mvee

#endif  // MVEE_AGENTS_PARTIAL_ORDER_H_
