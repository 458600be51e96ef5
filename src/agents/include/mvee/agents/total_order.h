// Total-order (TO) replication agent (paper §4.5, Figure 4a).
//
// The master records every sync op into a single global order; slaves replay
// ops strictly in that order, so even unrelated critical sections are
// serialized in the slaves — the "unnecessary stalls" the paper illustrates
// with the red bar in Figure 4(a).
//
// Recording (docs/DESIGN.md §8): each master thread records into its own
// BroadcastRing; every entry is stamped with a global sequence drawn from
// one fetch_add ticket counter. A per-sync-variable shard lock held across
// (op + ticket + push) makes the sequence order a linear extension of the
// conflict order, which is all replay needs — no global master lock (the
// read-write-shared cache line §4.5 blames for the simple agents' poor
// scaling) sits on the hot path. Slaves merge the per-thread rings on the
// recorded sequences: thread t's next op is always its own ring's front,
// and a per-variant next_seq ratchet admits exactly the entry whose
// sequence is next.

#ifndef MVEE_AGENTS_TOTAL_ORDER_H_
#define MVEE_AGENTS_TOTAL_ORDER_H_

#include <atomic>
#include <memory>
#include <vector>

#include "mvee/agents/record_shards.h"
#include "mvee/agents/sync_agent.h"
#include "mvee/util/spsc_ring.h"

namespace mvee {

class TotalOrderRuntime {
 public:
  TotalOrderRuntime(const AgentConfig& config, AgentControl control);

  // Creates the agent handle for variant `variant_index` (0 = master).
  std::unique_ptr<SyncAgent> CreateAgent(uint32_t variant_index);

  // Excision (docs/DESIGN.md §9): stop `variant`'s stalled ring cursors from
  // gating the master's recording, so survivors keep producing after the
  // variant left. Safe concurrently with running agents.
  void DetachVariant(uint32_t variant);

  const AgentStats& stats() const { return stats_; }
  uint64_t OpsRecorded() const { return stats_.Aggregate().ops_recorded; }
  // Tickets drawn so far.
  uint64_t SequencesIssued() const { return record_shards_.TicketsIssued(); }
  // Per-thread recording rings materialized so far (lazy allocation).
  uint64_t RecordingRingsCreated() const { return thread_rings_.CreatedCount(); }

 private:
  friend class TotalOrderAgent;

  // The recording thread is implied by the ring the entry sits in.
  struct Entry {
    uint64_t seq = 0;  // global ticket
  };

  // TO needs no per-shard payload beyond the lock itself.
  struct NoShardState {};
  using RecordShards = TicketedRecordShards<NoShardState>;

  // Per-slave-variant replay ratchet: sequence of the next entry to replay.
  struct alignas(64) ReplayFront {
    std::atomic<uint64_t> next_seq{0};
  };

  AgentConfig config_;
  AgentControl control_;
  AgentStats stats_;
  // Recording state (docs/DESIGN.md §8, shared with PO through
  // record_shards.h).
  RecordShards record_shards_;
  LazyRingSet<Entry> thread_rings_;  // [tid], created on first touch
  std::vector<ReplayFront> replay_fronts_;  // [variant - 1]
};

class TotalOrderAgent final : public SyncAgent {
 public:
  TotalOrderAgent(TotalOrderRuntime* runtime, uint32_t variant);

  void BeforeSyncOp(uint32_t tid, const void* addr) override;
  void AfterSyncOp(uint32_t tid, const void* addr) override;
  AgentRole role() const override { return role_; }
  const char* name() const override { return "total-order"; }

 private:
  TotalOrderRuntime* const runtime_;
  const AgentRole role_;
  const uint32_t variant_;  // Slaves consume their rings with id variant - 1.
  struct Pending {
    // Replay: sequence matched in BeforeSyncOp, ratcheted past in
    // AfterSyncOp.
    uint64_t seq = 0;
    // Recording: shard locked in BeforeSyncOp, released (after the ticket +
    // push) in AfterSyncOp — cached so After does not re-hash.
    TotalOrderRuntime::RecordShards::Shard* shard = nullptr;
  };
  PerThreadScratch<Pending> pending_;
};

}  // namespace mvee

#endif  // MVEE_AGENTS_TOTAL_ORDER_H_
