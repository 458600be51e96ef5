// Synchronization agents (paper §4.5).
//
// An agent implements the before_sync_op / after_sync_op pair that the
// compiler-side instrumentation inserts around every sync op (Listing 3).
// The *master* variant's agent records the order in which sync ops execute
// into shared sync buffers; each *slave* variant's agent replays that order,
// stalling slave threads whose next op would violate it (§3.2, Figure 2).
//
// Protocol contract for all agents:
//   BeforeSyncOp(tid, addr);
//   <the atomic instruction itself>
//   AfterSyncOp(tid, addr);
//
// Master agents make (record + execute) atomic per ordering domain by holding
// an instrumentation lock across the op: a per-clock lock for wall-of-clocks,
// and a per-sync-variable shard lock plus a global ticket counter for the
// total-order and partial-order agents (docs/DESIGN.md §8). The paper's
// TO/PO agents held one global lock instead, the source of their
// cache-contention problems (§4.5).
//
// Agents never allocate memory on the hot path (§3.3): all buffers and clock
// pools are preallocated when the shared runtime is created.

#ifndef MVEE_AGENTS_SYNC_AGENT_H_
#define MVEE_AGENTS_SYNC_AGENT_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace mvee {

// Role assigned at attach time. The paper's agents learn this through the
// "self-awareness" pseudo-syscall; here the MVEE wires it directly and also
// exposes the pseudo-syscall to programs (§4.5).
enum class AgentRole : uint8_t {
  kMaster = 0,
  kSlave,
};

// Point-in-time aggregate of the hot-path counters.
struct AgentStatsSnapshot {
  uint64_t ops_recorded = 0;
  uint64_t ops_replayed = 0;
  uint64_t record_stalls = 0;     // producer blocked on full buffer
  uint64_t replay_stalls = 0;     // slave blocked waiting its turn
  uint64_t record_lock_spins = 0; // TO/PO master spun on a record shard lock

  AgentStatsSnapshot& operator+=(const AgentStatsSnapshot& other) {
    ops_recorded += other.ops_recorded;
    ops_replayed += other.ops_replayed;
    record_stalls += other.record_stalls;
    replay_stalls += other.replay_stalls;
    record_lock_spins += other.record_lock_spins;
    return *this;
  }
};

// Shared configuration for agent runtimes.
struct AgentConfig {
  uint32_t max_threads = 64;           // Max logical threads per variant.
  uint32_t num_variants = 2;           // Master + slaves.
  size_t buffer_capacity = 1 << 16;    // Entries per sync buffer (power of 2).
  size_t clock_count = 4096;           // Wall-of-clocks wall size.
  size_t po_window = 1 << 12;          // Partial-order lookahead window.
  // Replay stall deadline; exceeded => the runtime calls on_stall and the
  // waiting thread unwinds with VariantKilled. Detects uninstrumented sync
  // ops (the nginx scenario of §5.5).
  std::chrono::milliseconds replay_deadline{10000};
  // Number of per-sync-variable record shard locks for the TO/PO recording
  // path (docs/DESIGN.md §8). 0 = auto: scale with max_threads
  // (8 shards per thread, floor 512 — the PR 5 constant — so the default
  // config is unchanged). Rounded up to a power of two, clamped to
  // [64, 65536]. Exposed for the shard-collision ablation.
  size_t record_shard_count = 0;
  // Contention-adaptive per-variable dispatch (docs/DESIGN.md §11) is the
  // only fleet shape for every kind but kNull: the fleet instantiates every
  // agent runtime, routes each *registered* sync variable
  // (SyncAgent::BindVariable) to its assigned runtime through the
  // VariableAgentMap, and migrates routes at runtime quiesce points.
  // Unregistered variables ride the default route (the fleet's configured
  // AgentKind), which is migration-frozen and ungated. Not settable; kept
  // only so the repo benchmark can still print it.
  static constexpr bool adaptive_agents = true;
  // Sample interval of the route controller that promotes/demotes bound
  // variables from their observed contention. 0 disables the controller;
  // plan seeding and AgentFleet::ForceMigrate still work.
  uint32_t migrate_interval_ms = 50;
  // Ops a bound variable must record within one controller interval before
  // a promotion/demotion is considered (keeps cold variables parked).
  uint64_t migrate_min_ops = 1 << 16;
  // Deadline for one migration attempt (master quiesce + slave drain).
  // Expiry aborts the attempt and restores the old route — always safe
  // before the flip, because nothing was recorded under the new agent.
  std::chrono::milliseconds migrate_timeout{1000};
};

// Clamps a config to the invariants the runtimes rely on, instead of letting
// a free 32-bit knob index fixed arrays out of bounds (max_threads used to
// silently overrun the agents' pending_[256] scratch). Every runtime
// constructor passes its config through here.
inline AgentConfig ValidatedAgentConfig(AgentConfig config) {
  if (config.max_threads == 0) {
    config.max_threads = 1;
  }
  if (config.num_variants == 0) {
    config.num_variants = 1;
  }
  // BroadcastRing supports kMaxConsumers = 15 slave cursors per ring.
  if (config.num_variants > 16) {
    config.num_variants = 16;
  }
  // Round buffer_capacity up to a power of two >= 2 (ring invariant).
  if (config.buffer_capacity < 2) {
    config.buffer_capacity = 2;
  }
  size_t pow2 = 2;
  while (pow2 < config.buffer_capacity && pow2 < (size_t{1} << 31)) {
    pow2 <<= 1;
  }
  config.buffer_capacity = pow2;
  if (config.clock_count == 0) {
    config.clock_count = 1;
  }
  if (config.po_window == 0) {
    config.po_window = 1;
  }
  // Record shard count: auto-scale from max_threads, then round to a power
  // of two in [64, 65536].
  if (config.record_shard_count == 0) {
    const size_t scaled = static_cast<size_t>(config.max_threads) * 8;
    config.record_shard_count = scaled < 512 ? 512 : scaled;
  }
  if (config.record_shard_count < 64) {
    config.record_shard_count = 64;
  }
  if (config.record_shard_count > (size_t{1} << 16)) {
    config.record_shard_count = size_t{1} << 16;
  }
  size_t shard_pow2 = 64;
  while (shard_pow2 < config.record_shard_count) {
    shard_pow2 <<= 1;
  }
  config.record_shard_count = shard_pow2;
  return config;
}

// A hot-path counter with exactly one writer. The owner bumps it with a
// relaxed load + store instead of a LOCK-prefixed fetch_add, which would
// drain the store buffer on every sync op; readers load it relaxed.
class OwnedCounter {
 public:
  void Add(uint64_t delta = 1) {
    value_.store(value_.load(std::memory_order_relaxed) + delta, std::memory_order_relaxed);
  }
  uint64_t Load() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

// Hot-path statistics, one cache-line shard per (variant, thread). A single
// shared counter struct would put a read-write cache line under every sync
// op of every variant — the same ping-pong §4.5 blames for the simple
// agents' slowdowns — so each thread bumps its own shard and readers sum
// them. The variant index is part of the key because thread t exists in
// *every* variant and the master's record bump races the slaves' replay
// bumps for the same tid by construction. The shard grid is sized from the
// config, so no two (variant, tid) pairs share a shard and every counter
// has one writer (OwnedCounter). Totals are approximate under concurrency,
// exact after quiescence.
class AgentStats {
 public:
  struct alignas(64) Shard {
    OwnedCounter ops_recorded;
    OwnedCounter ops_replayed;
    OwnedCounter record_stalls;      // producer blocked on full buffer
    OwnedCounter replay_stalls;      // slave blocked waiting its turn
    OwnedCounter record_lock_spins;  // master spun on the record lock
  };

  // `config` must already be validated (tid < max_threads and variant <
  // num_variants index the grid directly).
  explicit AgentStats(const AgentConfig& config)
      : threads_(config.max_threads),
        shards_(static_cast<size_t>(config.num_variants) * config.max_threads) {}

  // Only thread `tid` of `variant` may bump the returned shard.
  Shard& shard(uint32_t variant, uint32_t tid) {
    return shards_[static_cast<size_t>(variant) * threads_ + tid];
  }

  AgentStatsSnapshot Aggregate() const {
    AgentStatsSnapshot total;
    for (const Shard& shard : shards_) {
      total += AgentStatsSnapshot{shard.ops_recorded.Load(), shard.ops_replayed.Load(),
                                  shard.record_stalls.Load(), shard.replay_stalls.Load(),
                                  shard.record_lock_spins.Load()};
    }
    return total;
  }

 private:
  const size_t threads_;
  std::vector<Shard> shards_;
};

// Per-thread scratch carrying an op's state from BeforeSyncOp to
// AfterSyncOp. Thread tid writes slot tid on every op, so each slot gets a
// cache line of its own: threads on different cores never write one line.
// Sized from config.max_threads (callers pass CheckTidBound first).
template <typename T>
class PerThreadScratch {
 public:
  explicit PerThreadScratch(uint32_t threads) : slots_(threads) {}

  T& operator[](uint32_t tid) { return slots_[tid].value; }

 private:
  struct alignas(64) Slot {
    T value{};
  };
  std::vector<Slot> slots_;
};

// Per-variant agent handle.
class SyncAgent {
 public:
  virtual ~SyncAgent() = default;

  // Called immediately before the sync op on `addr` executes in thread `tid`.
  virtual void BeforeSyncOp(uint32_t tid, const void* addr) = 0;
  // Called immediately after the sync op completed.
  virtual void AfterSyncOp(uint32_t tid, const void* addr) = 0;

  virtual AgentRole role() const = 0;
  virtual const char* name() const = 0;

  // Registers `addr` as sync variable `name` for this variant. Only the
  // adaptive dispatch agent (docs/DESIGN.md §11) overrides this: addresses
  // differ across variants under ASLR/DCL, so per-variable routing must be
  // keyed by a variant-invariant identity, and the program supplies it by
  // binding each routed variable — in every variant, before the variable's
  // first sync op — at the same program point (the paper's registration-at-
  // allocation idiom). Unbound variables take the fleet's default route;
  // every other agent (the runtimes' own, and kNull's) ignores the call.
  virtual void BindVariable(const char* name, const void* addr) {
    (void)name;
    (void)addr;
  }
};

// Abort/stall plumbing shared by the agent runtimes. The monitor installs
// the abort flag (tripped on divergence), the stall callback (reports a
// divergence itself), and the live-variant mask (excised variants' replay
// threads unwind instead of waiting on entries that will never come —
// docs/DESIGN.md §9).
struct AgentControl {
  const std::atomic<bool>* abort_flag = nullptr;
  const std::atomic<uint32_t>* live_mask = nullptr;
  std::function<void(const std::string&)> on_stall;

  bool aborted() const {
    return abort_flag != nullptr && abort_flag->load(std::memory_order_acquire);
  }

  bool variant_dead(uint32_t variant) const {
    return live_mask != nullptr &&
           (live_mask->load(std::memory_order_acquire) & (1u << variant)) == 0;
  }

  // Replay-loop exit predicate: global abort OR this variant excised.
  bool should_unwind(uint32_t variant) const {
    return aborted() || variant_dead(variant);
  }
};

// Guard for the agents' tid-indexed hot-path state (pending scratch,
// per-thread rings): logical tids are allocated by the monitor from an
// unbounded counter, so a program that spawns more threads than
// AgentConfig::max_threads would otherwise index past every per-thread
// vector. Reported through on_stall (the run ends as a configuration
// failure, not heap corruption). Returns normally iff tid is in range.
// Implemented in sync_agent.cc to keep VariantKilled out of this header.
void CheckTidBound(uint32_t tid, uint32_t max_threads, const AgentControl& control,
                   const char* agent_name);

// A no-op agent: used for native baselines and as the "weak symbol" fallback
// the paper describes in §4.4 (program calls the agent if present, no-ops
// otherwise).
class NullAgent final : public SyncAgent {
 public:
  void BeforeSyncOp(uint32_t, const void*) override {}
  void AfterSyncOp(uint32_t, const void*) override {}
  AgentRole role() const override { return AgentRole::kMaster; }
  const char* name() const override { return "null"; }

  // Process-wide instance for uninstrumented / native execution.
  static NullAgent* Instance();
};

// Which replication strategy an MVEE uses.
enum class AgentKind : uint8_t {
  kNull = 0,
  kTotalOrder,
  kPartialOrder,
  kWallOfClocks,
  // Ablation: WoC's collision-free limit — one private clock per sync
  // variable from a preallocated lock-free address table (§4.5 trade-off).
  kPerVariableOrder,
};

const char* AgentKindName(AgentKind kind);

}  // namespace mvee

#endif  // MVEE_AGENTS_SYNC_AGENT_H_
