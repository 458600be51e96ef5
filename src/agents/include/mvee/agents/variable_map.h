// VariableAgentMap: per-sync-variable agent routing with runtime migration
// (docs/DESIGN.md §11).
//
// The paper's Table 1 result is that WHICH replication agent handles a sync
// variable decides its overhead. The adaptive fleet therefore keeps every
// agent runtime alive and routes each *registered* variable to its own
// route entry. Unregistered variables have no entry at all: they ride the
// default route, the fleet's configured kind, which is migration-frozen, so
// the dispatch agent sends them straight to that runtime with no gate.
// Lookup on the BeforeSyncOp hot path is a lock-free, allocation-free
// open-addressing probe into a per-variant address table; all mutation
// (registration, binding, migration) happens off the hot path under
// mutexes.
//
// Identity across variants: variants allocate their own program state, so
// the same logical variable has a different address in every variant. The
// map is therefore keyed per variant — the program binds each routed
// variable by NAME in every variant (BindVariable), and the shared route
// entry hangs off the name. An address that was never bound probes to an
// empty slot and Find returns nullptr: the default route, which is what makes
// the dispatch correct for unbound variables and programs that bind nothing.
//
// Migration handshake (the §11 epoch protocol). Every entry carries:
//   route      — one atomic word packing [kind | state | epoch],
//   inflight   — per-master-tid "I am between Before and After" flags,
//   recorded   — per-master-tid op counts,
//   replayed   — per-(slave variant, tid) op counts.
// States: kActive -> kQuiescing (masters stop entering; the Dekker-ordered
// inflight flags drain; recorded[t] is then frozen until the flip) ->
// kDraining (slaves keep replaying the already-recorded ops under the OLD
// kind) -> when every live slave's replayed[v][t] reaches recorded[t] for
// every tid, flip to (new kind, kActive). Abort anywhere before the flip
// just restores the old route: nothing was recorded under the new kind yet.
//
// The slave gate's admission rule: thread t's k-th op is admitted only once
// recorded[t] > k — i.e. only after the MASTER has recorded that same
// ordinal — and then the current route word's kind IS the kind the master
// used for ordinal k (in any state; see SlaveEnter for the proof sketch and
// docs/DESIGN.md §11 for the induction across successive migrations). A
// slave must never be admitted for an ordinal the master has not recorded:
// the route can still migrate before the master gets there, and a slave
// parked inside the OLD runtime would then wait for a record that lands in
// the NEW runtime (a permanent stall). Running ahead therefore parks in the
// gate — which costs nothing, because every recording runtime's replay wait
// would park it on the missing record anyway. The exceptions are kNull
// routes and the default route: neither runs the gate, and both are
// migration-frozen in exchange (Migrate refuses kNull endpoints, and the
// default route has no entry to migrate). A route that never flips cannot
// strand an ordinal, so there is nothing for the gate to protect.
//
// Why per-(entry, tid) counters and not one shared op counter: concurrent
// slave threads cannot learn their own op's master-order ordinal at the gate
// without serializing the gate across the whole op (which deadlocks against
// the old agent's own ordering waits). Per-thread ordinals are exact and
// owner-written: master thread t and slave thread t execute the same program
// order, so "thread t's k-th op on this entry" is the unit of agreement.

#ifndef MVEE_AGENTS_VARIABLE_MAP_H_
#define MVEE_AGENTS_VARIABLE_MAP_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "mvee/agents/sync_agent.h"

namespace mvee {

// One static routing decision: sync variable `name` starts on `kind`.
// Produced by the analysis layer (mvee/analysis/assignment_plan.h) from a
// SyncOpReport, or written by hand; consumed by AgentFleet at construction.
struct AgentAssignment {
  std::string name;
  AgentKind kind = AgentKind::kWallOfClocks;
  // Human-readable verdict ("thread-local", "ambiguously-aliased", ...) for
  // logs and reports; not interpreted.
  std::string reason;
};

struct AgentAssignmentPlan {
  std::vector<AgentAssignment> assignments;

  bool empty() const { return assignments.empty(); }
  const AgentAssignment* Find(const std::string& name) const {
    for (const auto& assignment : assignments) {
      if (assignment.name == name) {
        return &assignment;
      }
    }
    return nullptr;
  }
};

class VariableAgentMap {
 public:
  // Route entries are preallocated handles; this caps how many distinct
  // variables a plan + runtime bindings may register. Registration past the
  // cap fails closed: the variable simply keeps the default route.
  static constexpr size_t kMaxEntries = 256;

  enum class RouteState : uint8_t {
    kActive = 0,
    kQuiescing = 1,
    kDraining = 2,
  };

  struct alignas(64) PaddedCount {
    std::atomic<uint64_t> value{0};
  };

  // Slave thread t of variant v's own line: its replay count, and the
  // admission snapshot SlaveEnter keeps beside it so that it need not read
  // the master's recorded[t] line on every op.
  struct alignas(64) ReplayLine {
    // Ops replayed (owner-written with release; the drain loop acquires).
    std::atomic<uint64_t> value{0};
    // Owner-only: the last route word under which recorded[t] was read as
    // `recorded_seen`. Admits every ordinal below recorded_seen while the
    // route word is unchanged.
    uint64_t route_seen = 0;
    uint64_t recorded_seen = 0;
  };

  struct Entry {
    Entry(std::string entry_name, AgentKind kind, const AgentConfig& config);

    const std::string name;
    const AgentKind seeded_kind;
    // [kind:3 | state:2 | epoch:59]. The epoch bumps on every publish and
    // doubles as a seqlock token for the slave gate's recorded-count read.
    alignas(64) std::atomic<uint64_t> route;
    // Master-side Dekker flags: inflight[t] != 0 while master thread t is
    // between MasterEnter and MasterExit. Owner-padded so masters on
    // different threads never share a line here.
    std::vector<PaddedCount> inflight;  // [max_threads]
    // Ops master thread t recorded on this entry (owner-written with
    // release; the slave gate and the quiesce scan acquire).
    std::vector<PaddedCount> recorded;  // [max_threads]
    // Slave thread t of variant v's replay count and admission snapshot:
    // replayed[v-1][t].
    std::vector<std::vector<ReplayLine>> replayed;
    // Completed migrations of this entry (reporting only).
    std::atomic<uint64_t> migrations{0};
  };

  // Route-word packing helpers (exposed for tests).
  static uint64_t MakeRoute(AgentKind kind, RouteState state, uint64_t epoch) {
    return static_cast<uint64_t>(kind) | (static_cast<uint64_t>(state) << 3) | (epoch << 5);
  }
  static AgentKind RouteKind(uint64_t word) { return static_cast<AgentKind>(word & 0x7); }
  static RouteState RouteStateOf(uint64_t word) {
    return static_cast<RouteState>((word >> 3) & 0x3);
  }
  static uint64_t RouteEpoch(uint64_t word) { return word >> 5; }

  // `config` must already be validated.
  VariableAgentMap(const AgentConfig& config, AgentControl control);
  ~VariableAgentMap();

  VariableAgentMap(const VariableAgentMap&) = delete;
  VariableAgentMap& operator=(const VariableAgentMap&) = delete;

  // Registration (off the hot path, under a mutex): returns the entry for
  // `name`, creating it with `kind` if new. nullptr if kMaxEntries is
  // exhausted or `name` is empty ("" names the default route); the variable
  // then rides the default route.
  Entry* EntryFor(const std::string& name, AgentKind kind);
  // nullptr if `name` was never registered.
  Entry* FindByName(const std::string& name) const;

  // Binds `addr` to `entry` in `variant`'s address table. Fails (false) on
  // table saturation or if the 8-byte bucket already belongs to a different
  // entry; a failed bind leaves the address on the default route.
  bool Bind(uint32_t variant, const void* addr, Entry* entry);

  // HOT PATH: resolves an address to its route entry; nullptr (the default
  // route) on any miss. Lock-free, allocation-free, read-only. Bindings are
  // append-only and made before the variable's first sync op, so every Find
  // of one address during one op returns the same answer.
  Entry* Find(uint32_t variant, const void* addr) const;

  // Master gate: publishes the inflight flag, loads the route (both seq_cst
  // — the Dekker pair with Migrate's quiesce), and returns the kind to
  // record under. Blocks while a migration is in flight. Throws
  // VariantKilled on abort/deadline.
  AgentKind MasterEnter(Entry* entry, uint32_t tid);
  // Bumps recorded[tid] and clears the inflight flag (release: the count is
  // visible to whoever observes the flag cleared).
  void MasterExit(Entry* entry, uint32_t tid);
  // Clears the inflight flag WITHOUT counting an op: the unwind path when
  // the routed sub-agent throws mid-op. The run is already aborting; a
  // leaked flag would merely wedge a concurrent quiesce until its timeout,
  // but clean is clean.
  void MasterCancel(Entry* entry, uint32_t tid) {
    entry->inflight[tid].value.store(0, std::memory_order_release);
  }

  // Slave gate: returns the kind to replay under — the kind the master
  // recorded this thread's same-ordinal op under. Waits while the master has
  // not recorded the ordinal yet (kNull routes excepted). Throws
  // VariantKilled on abort/deadline.
  AgentKind SlaveEnter(Entry* entry, uint32_t variant, uint32_t tid);
  void SlaveExit(Entry* entry, uint32_t variant, uint32_t tid);

  // Runs the migration handshake to move `entry` to `to`. Serialized
  // internally (one migration at a time); returns false if the route already
  // is `to`, if `entry` is nullptr (the default route) or either endpoint is
  // kNull (both are migration-frozen — see the header comment), or on
  // abort/timeout (the old route is restored — safe, nothing was recorded
  // under the new kind before the flip).
  bool Migrate(Entry* entry, AgentKind to);

  // Excision: drains stop waiting for `variant`'s replay counters.
  void DetachVariant(uint32_t variant);

  // Registered entries, for the controller's policy sweep.
  // Entries are append-only and published with release stores, so the
  // controller iterates lock-free.
  size_t EntryCount() const { return entry_count_.load(std::memory_order_acquire); }
  Entry* EntryAt(size_t index) const {
    return entries_[index].load(std::memory_order_acquire);
  }

  uint64_t MigrationsCompleted() const {
    return migrations_done_.load(std::memory_order_relaxed);
  }
  uint64_t MigrationsAborted() const {
    return migrations_aborted_.load(std::memory_order_relaxed);
  }

 private:
  struct Table {
    std::vector<std::atomic<uint64_t>> keys;   // 8-byte-bucketed addr + 1; 0 = empty
    std::vector<std::atomic<Entry*>> values;
    size_t inserts = 0;  // Guarded by register_mutex_.
  };

  bool AbortMigration(Entry* entry, AgentKind from, uint64_t epoch, const char* phase);

  const AgentConfig config_;
  const AgentControl control_;
  mutable std::mutex register_mutex_;
  std::atomic<Entry*> entries_[kMaxEntries] = {};
  std::atomic<size_t> entry_count_{0};
  size_t table_mask_;
  std::vector<Table> tables_;  // [num_variants]
  std::atomic<uint32_t> detached_{0};
  std::mutex migrate_mutex_;
  std::atomic<uint64_t> migrations_done_{0};
  std::atomic<uint64_t> migrations_aborted_{0};
};

}  // namespace mvee

#endif  // MVEE_AGENTS_VARIABLE_MAP_H_
