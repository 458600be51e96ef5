// Tests for the contention-adaptive per-variable agent layer
// (docs/DESIGN.md §11): static plan derivation from the analysis pipeline,
// plan-seeded route dispatch, the migration epoch handshake (forced and
// controller-driven), the allocation-free hot-path lookup, lazy recording
// rings, the po_window gate, and the Mvee-level wiring.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "mvee/agents/agent_fleet.h"
#include "mvee/agents/context.h"
#include "mvee/agents/partial_order.h"
#include "mvee/agents/total_order.h"
#include "mvee/analysis/assignment_plan.h"
#include "mvee/analysis/mir.h"
#include "mvee/analysis/syncop_analysis.h"
#include "mvee/monitor/mvee.h"
#include "mvee/sync/primitives.h"
#include "mvee/util/variant_killed.h"

// Binary-wide heap allocation counter (g_heap_allocs).
#include "counting_allocator.h"

namespace mvee {
namespace {

// A MIR module exercising all four verdict classes:
//   hot      global, LOCK-RMW from two functions        -> shared-hot -> TO
//   cold     global, one store from one function        -> uncontended -> PVO
//   local    stack, all sites in one function           -> thread-local -> Null
//   alias_a/alias_b  one site's pointer may reach both  -> ambiguous -> PO
MirModule BuildLadderModule(int32_t* hot, int32_t* cold, int32_t* local, int32_t* alias_a,
                            int32_t* alias_b) {
  MirBuilder builder("ladder");
  *hot = builder.Object("hot");
  *cold = builder.Object("cold");
  *local = builder.Object("local", MirStorage::kStack);
  *alias_a = builder.Object("alias_a");
  *alias_b = builder.Object("alias_b");

  builder.Function("f");
  const int32_t rf_hot = builder.Reg();
  builder.AddrOf(rf_hot, *hot).LockRmw(rf_hot, "f.c:1");
  const int32_t rf_cold = builder.Reg();
  builder.AddrOf(rf_cold, *cold).Store(rf_cold, "f.c:2");
  const int32_t rf_local = builder.Reg();
  builder.AddrOf(rf_local, *local).LockRmw(rf_local, "f.c:3").Load(rf_local, "f.c:4");

  builder.Function("g");
  const int32_t rg_hot = builder.Reg();
  builder.AddrOf(rg_hot, *hot).LockRmw(rg_hot, "g.c:1");
  const int32_t rg_alias = builder.Reg();
  builder.AddrOf(rg_alias, *alias_a);
  builder.AddrOf(rg_alias, *alias_b);  // pts(rg_alias) = {alias_a, alias_b}
  builder.LockRmw(rg_alias, "g.c:2");

  return builder.Build();
}

SyncOpReport ReportForAll(const MirModule& module) {
  SyncOpReport report;
  report.module_name = module.name;
  for (size_t i = 0; i < module.objects.size(); ++i) {
    report.sync_objects.insert(static_cast<int32_t>(i));
  }
  return report;
}

const VariableAssignment* FindVariable(const AssignmentPlanReport& report,
                                       const std::string& name) {
  for (const auto& variable : report.variables) {
    if (variable.name == name) {
      return &variable;
    }
  }
  return nullptr;
}

TEST(AssignmentPlanTest, VerdictLadderCoversAllFourClasses) {
  int32_t hot, cold, local, alias_a, alias_b;
  const MirModule module = BuildLadderModule(&hot, &cold, &local, &alias_a, &alias_b);
  const AssignmentPlanReport report = DeriveAssignmentPlan(module, ReportForAll(module));
  ASSERT_EQ(report.variables.size(), 5u);
  ASSERT_EQ(report.plan.assignments.size(), 5u);

  const VariableAssignment* hot_var = FindVariable(report, "hot");
  ASSERT_NE(hot_var, nullptr);
  EXPECT_EQ(hot_var->verdict, AssignmentVerdict::kSharedHot);
  EXPECT_EQ(hot_var->kind, AgentKind::kTotalOrder);
  EXPECT_EQ(hot_var->rmw_sites, 2u);
  EXPECT_EQ(hot_var->touching_functions, 2u);

  const VariableAssignment* cold_var = FindVariable(report, "cold");
  ASSERT_NE(cold_var, nullptr);
  EXPECT_EQ(cold_var->verdict, AssignmentVerdict::kUncontendedShared);
  EXPECT_EQ(cold_var->kind, AgentKind::kPerVariableOrder);

  const VariableAssignment* local_var = FindVariable(report, "local");
  ASSERT_NE(local_var, nullptr);
  EXPECT_EQ(local_var->verdict, AssignmentVerdict::kThreadLocal);
  EXPECT_EQ(local_var->kind, AgentKind::kNull);

  for (const char* name : {"alias_a", "alias_b"}) {
    const VariableAssignment* aliased = FindVariable(report, name);
    ASSERT_NE(aliased, nullptr) << name;
    EXPECT_EQ(aliased->verdict, AssignmentVerdict::kAmbiguouslyAliased) << name;
    EXPECT_EQ(aliased->kind, AgentKind::kPartialOrder) << name;
    EXPECT_TRUE(aliased->aliased) << name;
  }
}

TEST(AssignmentPlanTest, NullRoutesCanBeDisabled) {
  int32_t hot, cold, local, alias_a, alias_b;
  const MirModule module = BuildLadderModule(&hot, &cold, &local, &alias_a, &alias_b);
  AssignmentPlanOptions options;
  options.allow_null_routes = false;
  const AssignmentPlanReport report =
      DeriveAssignmentPlan(module, ReportForAll(module), options);
  const VariableAssignment* local_var = FindVariable(report, "local");
  ASSERT_NE(local_var, nullptr);
  // The verdict is unchanged; only the route loses the record-nothing agent.
  EXPECT_EQ(local_var->verdict, AssignmentVerdict::kThreadLocal);
  EXPECT_EQ(local_var->kind, AgentKind::kPerVariableOrder);
}

TEST(AssignmentPlanTest, FormatListsEveryVariable) {
  int32_t hot, cold, local, alias_a, alias_b;
  const MirModule module = BuildLadderModule(&hot, &cold, &local, &alias_a, &alias_b);
  const AssignmentPlanReport report = DeriveAssignmentPlan(module, ReportForAll(module));
  const std::string text = FormatAssignmentPlan(report);
  for (const char* name : {"hot", "cold", "local", "alias_a", "alias_b"}) {
    EXPECT_NE(text.find(name), std::string::npos) << text;
  }
  EXPECT_NE(text.find("shared-hot"), std::string::npos) << text;
  EXPECT_NE(text.find("thread-local"), std::string::npos) << text;
}

TEST(RouteWordTest, PackingRoundTrips) {
  for (AgentKind kind : {AgentKind::kNull, AgentKind::kTotalOrder, AgentKind::kPartialOrder,
                         AgentKind::kWallOfClocks, AgentKind::kPerVariableOrder}) {
    for (VariableAgentMap::RouteState state :
         {VariableAgentMap::RouteState::kActive, VariableAgentMap::RouteState::kQuiescing,
          VariableAgentMap::RouteState::kDraining}) {
      const uint64_t word = VariableAgentMap::MakeRoute(kind, state, 12345);
      EXPECT_EQ(VariableAgentMap::RouteKind(word), kind);
      EXPECT_EQ(VariableAgentMap::RouteStateOf(word), state);
      EXPECT_EQ(VariableAgentMap::RouteEpoch(word), 12345u);
    }
  }
}

AgentConfig AdaptiveConfig(uint32_t variants, uint32_t threads) {
  AgentConfig config;
  config.num_variants = variants;
  config.max_threads = threads;
  config.buffer_capacity = 1 << 14;
  config.replay_deadline = std::chrono::milliseconds(20000);
  config.migrate_interval_ms = 0;  // Controller off unless a test turns it on.
  return config;
}

// The ISSUE's wiring test: a MirModule flows through the analysis into an
// AgentFleet and two variables end up routed to different agents.
TEST(AdaptiveFleetTest, DerivedPlanSeedsDistinctRoutes) {
  int32_t hot, cold, local, alias_a, alias_b;
  const MirModule module = BuildLadderModule(&hot, &cold, &local, &alias_a, &alias_b);
  const AssignmentPlanReport derived = DeriveAssignmentPlan(module, ReportForAll(module));

  std::atomic<bool> abort{false};
  AgentControl control;
  control.abort_flag = &abort;
  AgentFleet fleet(AgentKind::kWallOfClocks, AdaptiveConfig(2, 2), control, &derived.plan);
  ASSERT_TRUE(fleet.adaptive());
  EXPECT_EQ(fleet.BoundVariables(), 5u);
  EXPECT_EQ(fleet.RouteOf("hot"), AgentKind::kTotalOrder);
  EXPECT_EQ(fleet.RouteOf("cold"), AgentKind::kPerVariableOrder);
  EXPECT_EQ(fleet.RouteOf("local"), AgentKind::kNull);
  EXPECT_EQ(fleet.RouteOf("alias_a"), AgentKind::kPartialOrder);
  // Unregistered names and the default route carry the fleet's kind.
  EXPECT_EQ(fleet.RouteOf(""), AgentKind::kWallOfClocks);
  EXPECT_EQ(fleet.RouteOf("never-registered"), AgentKind::kWallOfClocks);
}

// The kNull fleet runs no agent runtime: it ignores a plan, and a bind
// through its agent registers nothing.
TEST(AdaptiveFleetTest, NullFleetIgnoresPlan) {
  AgentAssignmentPlan plan;
  plan.assignments.push_back({"hot", AgentKind::kTotalOrder, "shared-hot"});
  std::atomic<bool> abort{false};
  AgentControl control;
  control.abort_flag = &abort;
  AgentFleet fleet(AgentKind::kNull, AdaptiveConfig(2, 2), control, &plan);
  auto master = fleet.CreateAgent(0);
  int hot = 0;
  master->BindVariable("hot", &hot);
  EXPECT_FALSE(fleet.adaptive());
  EXPECT_EQ(fleet.BoundVariables(), 0u);
  EXPECT_EQ(fleet.RouteOf("hot"), AgentKind::kNull);
  EXPECT_FALSE(fleet.ForceMigrate("hot", AgentKind::kTotalOrder));
}

// A kNull route must skip record/replay entirely (the payoff of the
// thread-local verdict) while the dispatch gates still count ops exactly —
// the counters are what make a later migration off kNull sound.
TEST(AdaptiveFleetTest, NullRouteSkipsRecordingButCountsOps) {
  AgentAssignmentPlan plan;
  plan.assignments.push_back({"tl", AgentKind::kNull, "thread-local"});
  std::atomic<bool> abort{false};
  AgentControl control;
  control.abort_flag = &abort;
  AgentFleet fleet(AgentKind::kWallOfClocks, AdaptiveConfig(2, 1), control, &plan);
  auto master = fleet.CreateAgent(0);
  auto slave = fleet.CreateAgent(1);

  int master_var = 0;
  int slave_var = 0;
  master->BindVariable("tl", &master_var);
  slave->BindVariable("tl", &slave_var);
  for (int i = 0; i < 100; ++i) {
    master->BeforeSyncOp(0, &master_var);
    master->AfterSyncOp(0, &master_var);
  }
  // The slave free-runs: completing without a master recording to chase is
  // itself the proof that nothing is replayed on this route.
  for (int i = 0; i < 100; ++i) {
    slave->BeforeSyncOp(0, &slave_var);
    slave->AfterSyncOp(0, &slave_var);
  }
  EXPECT_EQ(fleet.StatsSnapshot().ops_recorded, 0u);
  EXPECT_EQ(fleet.StatsSnapshot().ops_replayed, 0u);

  const VariableAgentMap::Entry* entry = fleet.map()->FindByName("tl");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->recorded[0].value.load(), 100u);
  EXPECT_EQ(entry->replayed[0][0].value.load(), 100u);
}

// The default route has no entry and cannot move: unbound ops skip the
// migration gates, so a flip could strand their ordinals.
TEST(AdaptiveFleetTest, DefaultRouteIsMigrationFrozen) {
  std::atomic<bool> abort{false};
  AgentControl control;
  control.abort_flag = &abort;
  AgentFleet fleet(AgentKind::kWallOfClocks, AdaptiveConfig(2, 1), control);
  auto master = fleet.CreateAgent(0);
  int var = 0;
  master->BindVariable("", &var);  // "" cannot become an entry either.
  EXPECT_EQ(fleet.BoundVariables(), 0u);
  EXPECT_EQ(fleet.RouteOf(""), AgentKind::kWallOfClocks);
  EXPECT_FALSE(fleet.ForceMigrate("", AgentKind::kTotalOrder));
  EXPECT_EQ(fleet.RouteOf(""), AgentKind::kWallOfClocks);
  EXPECT_EQ(fleet.MigrationsCompleted(), 0u);
  EXPECT_EQ(fleet.MigrationsAborted(), 0u);
}

// Unbound ops go straight to the default runtime: a registered entry that no
// op touches keeps every gate counter at zero, while the default runtime
// records and replays every op.
TEST(AdaptiveFleetTest, UnboundOpsBypassTheGates) {
  constexpr uint32_t kThreads = 2;
  constexpr int kOps = 5000;
  AgentAssignmentPlan plan;
  plan.assignments.push_back({"idle", AgentKind::kTotalOrder, "seeded"});
  std::atomic<bool> abort{false};
  AgentControl control;
  control.abort_flag = &abort;
  AgentFleet fleet(AgentKind::kWallOfClocks, AdaptiveConfig(2, kThreads), control, &plan);
  std::vector<std::unique_ptr<SyncAgent>> agents;
  int64_t idle_vars[2] = {0, 0};
  for (uint32_t v = 0; v < 2; ++v) {
    agents.push_back(fleet.CreateAgent(v));
    agents[v]->BindVariable("idle", &idle_vars[v]);
  }

  int64_t vars[2][kThreads] = {};
  std::vector<std::thread> workers;
  for (uint32_t v = 0; v < 2; ++v) {
    for (uint32_t t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, v, t] {
        for (int i = 0; i < kOps; ++i) {
          agents[v]->BeforeSyncOp(t, &vars[v][t]);
          agents[v]->AfterSyncOp(t, &vars[v][t]);
        }
      });
    }
  }
  for (auto& worker : workers) {
    worker.join();
  }

  const VariableAgentMap::Entry* entry = fleet.map()->FindByName("idle");
  ASSERT_NE(entry, nullptr);
  for (uint32_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(entry->inflight[t].value.load(), 0u) << "tid " << t;
    EXPECT_EQ(entry->recorded[t].value.load(), 0u) << "tid " << t;
    EXPECT_EQ(entry->replayed[0][t].value.load(), 0u) << "tid " << t;
  }
  const AgentStatsSnapshot stats = fleet.StatsSnapshot();
  EXPECT_EQ(stats.ops_recorded, uint64_t{kOps} * kThreads);
  EXPECT_EQ(stats.ops_replayed, uint64_t{kOps} * kThreads);
}

// --- Migration under load ---------------------------------------------------

struct MigrationRunResult {
  // Per-variant lock-acquisition order (tid sequence) on the routed lock.
  std::vector<std::vector<uint32_t>> logs;
  uint64_t migrations_completed = 0;
  uint64_t migrations_aborted = 0;
  bool migrate_returned = false;
  bool ok = true;
};

// Two variants x two threads hammer one bound SpinLock; optionally the main
// thread force-promotes its route mid-run. The per-variant acquisition logs
// are the "variant output": replay equivalence = identical logs.
MigrationRunResult RunBoundLockHarness(bool force_migrate, int ops) {
  AgentConfig config = AdaptiveConfig(2, 2);
  config.migrate_timeout = std::chrono::milliseconds(10000);
  AgentAssignmentPlan plan;
  plan.assignments.push_back({"hot", AgentKind::kWallOfClocks, "seeded"});
  std::atomic<bool> abort{false};
  AgentControl control;
  control.abort_flag = &abort;
  AgentFleet fleet(AgentKind::kWallOfClocks, config, control, &plan);

  MigrationRunResult result;
  std::vector<std::unique_ptr<SyncAgent>> agents;
  std::vector<std::unique_ptr<SpinLock>> locks;
  for (uint32_t v = 0; v < 2; ++v) {
    agents.push_back(fleet.CreateAgent(v));
    locks.push_back(std::make_unique<SpinLock>());
    result.logs.emplace_back();
  }

  std::atomic<uint32_t> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> workers;
  for (uint32_t v = 0; v < 2; ++v) {
    for (uint32_t t = 0; t < 2; ++t) {
      workers.emplace_back([&, v, t] {
        SyncContext context{agents[v].get(), nullptr, t};
        ScopedSyncContext scoped(&context);
        // Every thread binds before any thread starts: binds are idempotent,
        // and the barrier keeps all sync ops behind all binds.
        locks[v]->Bind("hot");
        ready.fetch_add(1);
        while (!go.load(std::memory_order_acquire)) {
          std::this_thread::yield();
        }
        try {
          for (int i = 0; i < ops; ++i) {
            locks[v]->Lock();
            result.logs[v].push_back(t);
            locks[v]->Unlock();
          }
        } catch (const VariantKilled&) {
          result.ok = false;
        }
      });
    }
  }
  while (ready.load() < 4) {
    std::this_thread::yield();
  }
  go.store(true, std::memory_order_release);
  if (force_migrate) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    result.migrate_returned = fleet.ForceMigrate("hot", AgentKind::kTotalOrder);
  }
  for (auto& worker : workers) {
    worker.join();
  }
  result.migrations_completed = fleet.MigrationsCompleted();
  result.migrations_aborted = fleet.MigrationsAborted();
  return result;
}

TEST(AdaptiveMigrationTest, ForcedPromotionUnderLoadKeepsVariantsEquivalent) {
  const int ops = 20000;
  const MigrationRunResult migrated = RunBoundLockHarness(/*force_migrate=*/true, ops);
  ASSERT_TRUE(migrated.ok);
  EXPECT_TRUE(migrated.migrate_returned);
  EXPECT_GE(migrated.migrations_completed, 1u);
  EXPECT_EQ(migrated.migrations_aborted, 0u);
  ASSERT_EQ(migrated.logs[0].size(), static_cast<size_t>(2 * ops));
  // Byte-identical variant output across the mid-run flip.
  EXPECT_EQ(migrated.logs[0], migrated.logs[1]);

  // The control run: same program and fleet, no migration — equally
  // equivalent, with the same op volume.
  const MigrationRunResult control = RunBoundLockHarness(/*force_migrate=*/false, ops);
  ASSERT_TRUE(control.ok);
  EXPECT_EQ(control.migrations_completed, 0u);
  ASSERT_EQ(control.logs[0].size(), static_cast<size_t>(2 * ops));
  EXPECT_EQ(control.logs[0], control.logs[1]);
}

// The fluidanimate shape under migration: three variants x two threads
// update random cell pairs of a grid of per-cell spinlocks. Half the cells
// are bound to one entry "grid", whose route the main thread keeps migrating
// through every recording kind; the other half stay unbound and share the
// wall-of-clocks runtime with it through the ungated default route. Each
// publish invalidates every slave's admission snapshot mid-run; the per-cell
// acquisition logs (the variant output) must stay identical.
TEST(AdaptiveMigrationTest, BoundRouteMigrationsUnderGridKeepThreeVariantsEquivalent) {
  constexpr uint32_t kVariants = 3;
  constexpr uint32_t kThreads = 2;
  constexpr size_t kCells = 64;
  constexpr int kOps = 20000;
  AgentConfig config = AdaptiveConfig(kVariants, kThreads);
  config.migrate_timeout = std::chrono::milliseconds(10000);
  std::atomic<bool> abort{false};
  AgentControl control;
  control.abort_flag = &abort;
  // As in the monitor, a replay stall aborts the run, so a master blocked on
  // a full ring unwinds too and a stall fails the test instead of hanging it.
  control.on_stall = [&abort](const std::string&) { abort.store(true); };
  AgentFleet fleet(AgentKind::kWallOfClocks, config, control);

  struct Grid {
    std::vector<SpinLock> locks = std::vector<SpinLock>(kCells);
    std::vector<std::vector<uint32_t>> logs = std::vector<std::vector<uint32_t>>(kCells);
  };
  std::vector<std::unique_ptr<SyncAgent>> agents;
  std::vector<std::unique_ptr<Grid>> grids;
  for (uint32_t v = 0; v < kVariants; ++v) {
    agents.push_back(fleet.CreateAgent(v));
    grids.push_back(std::make_unique<Grid>());
    // Every variant binds the even cells before any thread starts.
    SyncContext context{agents[v].get(), nullptr, 0};
    ScopedSyncContext scoped(&context);
    for (size_t cell = 0; cell < kCells; cell += 2) {
      grids[v]->locks[cell].Bind("grid");
    }
  }
  ASSERT_EQ(fleet.BoundVariables(), 1u);
  std::atomic<bool> killed{false};
  std::atomic<uint32_t> running{kVariants * kThreads};
  std::vector<std::thread> workers;
  for (uint32_t v = 0; v < kVariants; ++v) {
    for (uint32_t t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, v, t] {
        SyncContext context{agents[v].get(), nullptr, t};
        ScopedSyncContext scoped(&context);
        Grid& grid = *grids[v];
        uint64_t rng = 0x9e3779b97f4a7c15ull * (t + 1);  // Same per tid in every variant.
        try {
          for (int i = 0; i < kOps; ++i) {
            rng = rng * 6364136223846793005ull + 1442695040888963407ull;
            const size_t a = (rng >> 33) % kCells;
            const size_t b = (a + 1 + (rng >> 17) % (kCells - 1)) % kCells;
            const size_t first = a < b ? a : b;
            const size_t second = a < b ? b : a;
            grid.locks[first].Lock();
            grid.locks[second].Lock();
            grid.logs[first].push_back(t);
            grid.logs[second].push_back(t);
            grid.locks[second].Unlock();
            grid.locks[first].Unlock();
          }
        } catch (const VariantKilled&) {
          killed.store(true);
        }
        running.fetch_sub(1);
      });
    }
  }
  const AgentKind kinds[] = {AgentKind::kTotalOrder, AgentKind::kPartialOrder,
                             AgentKind::kPerVariableOrder, AgentKind::kWallOfClocks};
  uint64_t attempts = 0;
  while (running.load() != 0) {
    fleet.ForceMigrate("grid", kinds[attempts++ % 4]);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (auto& worker : workers) {
    worker.join();
  }
  ASSERT_FALSE(killed.load());
  // At least one full cycle through the four kinds.
  EXPECT_GE(fleet.MigrationsCompleted(), 4u);
  for (uint32_t v = 1; v < kVariants; ++v) {
    EXPECT_EQ(grids[v]->logs, grids[0]->logs) << "variant " << v;
  }
  // The bound cells' ops went through the gates: every slave replayed
  // exactly the ops the master counted on the entry. Each iteration locks
  // and unlocks two cells, about half of them bound, so a thread makes
  // about 2 * kOps bound sync ops; kOps / 2 is a loose floor.
  const VariableAgentMap::Entry* entry = fleet.map()->FindByName("grid");
  ASSERT_NE(entry, nullptr);
  for (uint32_t t = 0; t < kThreads; ++t) {
    const uint64_t recorded = entry->recorded[t].value.load();
    EXPECT_GE(recorded, kOps / 2u) << "tid " << t;
    for (uint32_t v = 1; v < kVariants; ++v) {
      EXPECT_EQ(entry->replayed[v - 1][t].value.load(), recorded)
          << "variant " << v << " tid " << t;
    }
  }
}

// The slave admission snapshot (docs/DESIGN.md §11) admits from the slave's
// own (route word, recorded) copy while the route word is unchanged, and
// never after a publish. The test forges a snapshot that claims one more
// master ordinal than was recorded: under the same epoch the gate trusts it
// (the fast path reads only the copy), and after a route publish the same
// copy must not admit — the slave waits for the master.
TEST(AdmissionSnapshotTest, SnapshotTakenUnderAnEpochIsNotUsedAfterAPublish) {
  AgentConfig config = ValidatedAgentConfig(AdaptiveConfig(2, 1));
  std::atomic<bool> abort{false};
  AgentControl control;
  control.abort_flag = &abort;
  VariableAgentMap map(config, control);
  VariableAgentMap::Entry* entry = map.EntryFor("v", AgentKind::kWallOfClocks);
  ASSERT_NE(entry, nullptr);
  VariableAgentMap::ReplayLine& line = entry->replayed[0][0];

  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(map.MasterEnter(entry, 0), AgentKind::kWallOfClocks);
    map.MasterExit(entry, 0);
  }
  EXPECT_EQ(map.SlaveEnter(entry, 1, 0), AgentKind::kWallOfClocks);
  map.SlaveExit(entry, 1, 0);
  const uint64_t epoch_word = entry->route.load();
  EXPECT_EQ(line.route_seen, epoch_word);
  EXPECT_EQ(line.recorded_seen, 2u);

  // Forged: ordinal 1 is recorded, ordinal 2 is not.
  line.recorded_seen = 3;
  EXPECT_EQ(map.SlaveEnter(entry, 1, 0), AgentKind::kWallOfClocks);
  map.SlaveExit(entry, 1, 0);
  EXPECT_EQ(map.SlaveEnter(entry, 1, 0), AgentKind::kWallOfClocks);  // Trusted the copy.

  // Publish: replayed (2) has not passed recorded (2), so the drain is done.
  ASSERT_TRUE(map.Migrate(entry, AgentKind::kTotalOrder));
  ASSERT_NE(entry->route.load(), epoch_word);
  std::atomic<bool> admitted{false};
  AgentKind admitted_kind = AgentKind::kNull;
  std::thread slave([&] {
    admitted_kind = map.SlaveEnter(entry, 1, 0);
    admitted.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(admitted.load()) << "a snapshot from an older epoch admitted an unrecorded op";
  EXPECT_EQ(map.MasterEnter(entry, 0), AgentKind::kTotalOrder);
  map.MasterExit(entry, 0);
  slave.join();
  EXPECT_TRUE(admitted.load());
  EXPECT_EQ(admitted_kind, AgentKind::kTotalOrder);
  EXPECT_EQ(line.route_seen, entry->route.load());
  EXPECT_EQ(line.recorded_seen, 3u);
}

// Drives `ops` sync ops per thread through `fleet`'s master and slave on a
// variable bound as `name`, with `threads` threads per variant.
void DriveBoundVariable(AgentFleet& fleet, const std::string& name, uint32_t threads, int ops) {
  auto master = fleet.CreateAgent(0);
  auto slave = fleet.CreateAgent(1);
  std::vector<int64_t> vars(2);
  master->BindVariable(name.c_str(), &vars[0]);
  slave->BindVariable(name.c_str(), &vars[1]);
  std::vector<std::thread> workers;
  for (uint32_t v = 0; v < 2; ++v) {
    SyncAgent* agent = (v == 0 ? master : slave).get();
    for (uint32_t t = 0; t < threads; ++t) {
      workers.emplace_back([agent, &vars, v, t, ops] {
        for (int i = 0; i < ops; ++i) {
          agent->BeforeSyncOp(t, &vars[v]);
          agent->AfterSyncOp(t, &vars[v]);
        }
      });
    }
  }
  for (auto& worker : workers) {
    worker.join();
  }
}

TEST(AdaptiveMigrationTest, ControllerPromotesContendedVariable) {
  AgentConfig config = AdaptiveConfig(2, 2);
  config.migrate_interval_ms = 5;
  config.migrate_min_ops = 64;
  AgentAssignmentPlan plan;
  plan.assignments.push_back({"ctr", AgentKind::kPerVariableOrder, "misseeded"});
  std::atomic<bool> abort{false};
  AgentControl control;
  control.abort_flag = &abort;
  AgentFleet fleet(AgentKind::kWallOfClocks, config, control, &plan);
  ASSERT_EQ(fleet.RouteOf("ctr"), AgentKind::kPerVariableOrder);

  // Two threads' deltas must land in ONE sampling interval for the
  // controller to call the variable contended. A single burst can serialize
  // on an oversubscribed machine (each thread runs to completion in its own
  // scheduling quantum), which the controller correctly reads as
  // uncontended — so keep offering bursts (same agents and bound addresses)
  // until one actually overlaps.
  auto master = fleet.CreateAgent(0);
  auto slave = fleet.CreateAgent(1);
  std::vector<int64_t> vars(2);
  master->BindVariable("ctr", &vars[0]);
  slave->BindVariable("ctr", &vars[1]);
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (fleet.RouteOf("ctr") != AgentKind::kTotalOrder &&
         std::chrono::steady_clock::now() < deadline) {
    std::vector<std::thread> workers;
    for (uint32_t v = 0; v < 2; ++v) {
      SyncAgent* agent = (v == 0 ? master : slave).get();
      for (uint32_t t = 0; t < 2; ++t) {
        workers.emplace_back([agent, &vars, v, t] {
          for (int i = 0; i < 5000; ++i) {
            agent->BeforeSyncOp(t, &vars[v]);
            agent->AfterSyncOp(t, &vars[v]);
          }
        });
      }
    }
    for (auto& worker : workers) {
      worker.join();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(fleet.RouteOf("ctr"), AgentKind::kTotalOrder);
  EXPECT_GE(fleet.MigrationsCompleted(), 1u);
}

TEST(AdaptiveMigrationTest, ControllerDemotesSingleThreadedVariable) {
  AgentConfig config = AdaptiveConfig(2, 1);
  config.migrate_interval_ms = 5;
  config.migrate_min_ops = 64;
  AgentAssignmentPlan plan;
  plan.assignments.push_back({"solo", AgentKind::kTotalOrder, "misseeded"});
  std::atomic<bool> abort{false};
  AgentControl control;
  control.abort_flag = &abort;
  AgentFleet fleet(AgentKind::kWallOfClocks, config, control, &plan);

  DriveBoundVariable(fleet, "solo", /*threads=*/1, /*ops=*/5000);

  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (fleet.RouteOf("solo") != AgentKind::kPerVariableOrder &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(fleet.RouteOf("solo"), AgentKind::kPerVariableOrder);
  EXPECT_GE(fleet.MigrationsCompleted(), 1u);
}

// --- Hot-path properties ----------------------------------------------------

// The routed dispatch path (map lookup + gates + sub-agent) must not touch
// the heap in steady state — neither for bound variables nor for the default
// route of unbound addresses.
TEST(AdaptiveAllocationTest, RoutedHotPathIsAllocationFree) {
  AgentAssignmentPlan plan;
  plan.assignments.push_back({"hot", AgentKind::kWallOfClocks, "seeded"});
  std::atomic<bool> abort{false};
  AgentControl control;
  control.abort_flag = &abort;
  AgentFleet fleet(AgentKind::kWallOfClocks, AdaptiveConfig(2, 1), control, &plan);
  auto master = fleet.CreateAgent(0);
  auto slave = fleet.CreateAgent(1);

  int64_t bound_vars[2] = {0, 0};
  int64_t unbound_vars[2] = {0, 0};
  master->BindVariable("hot", &bound_vars[0]);
  slave->BindVariable("hot", &bound_vars[1]);

  auto one_round = [&](int64_t* m, int64_t* s) {
    master->BeforeSyncOp(0, m);
    master->AfterSyncOp(0, m);
    slave->BeforeSyncOp(0, s);
    slave->AfterSyncOp(0, s);
  };
  // Warmup: lazy rings materialize, per-thread scratch is touched.
  for (int i = 0; i < 256; ++i) {
    one_round(&bound_vars[0], &bound_vars[1]);
    one_round(&unbound_vars[0], &unbound_vars[1]);
  }
  const uint64_t before = g_heap_allocs.load(std::memory_order_relaxed);
  for (int i = 0; i < 4096; ++i) {
    one_round(&bound_vars[0], &bound_vars[1]);
    one_round(&unbound_vars[0], &unbound_vars[1]);
  }
  const uint64_t after = g_heap_allocs.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u)
      << "heap allocations leaked into the adaptive dispatch hot path";
}

// Lazy recording rings: a 64-thread config with two active threads must
// materialize exactly two rings, not 64.
TEST(LazyRingTest, RingsMaterializeOnlyForActiveThreads) {
  AgentConfig config;
  config.num_variants = 2;
  config.max_threads = 64;
  config.buffer_capacity = 1 << 10;
  std::atomic<bool> abort{false};
  AgentControl control;
  control.abort_flag = &abort;
  TotalOrderRuntime runtime(config, control);
  auto master = runtime.CreateAgent(0);
  auto slave = runtime.CreateAgent(1);

  EXPECT_EQ(runtime.RecordingRingsCreated(), 0u);
  int var = 0;
  for (uint32_t tid : {3u, 7u}) {
    for (int i = 0; i < 10; ++i) {
      master->BeforeSyncOp(tid, &var);
      master->AfterSyncOp(tid, &var);
    }
  }
  EXPECT_EQ(runtime.RecordingRingsCreated(), 2u);
  int slave_var = 0;
  for (uint32_t tid : {3u, 7u}) {
    for (int i = 0; i < 10; ++i) {
      slave->BeforeSyncOp(tid, &slave_var);
      slave->AfterSyncOp(tid, &slave_var);
    }
  }
  EXPECT_EQ(runtime.RecordingRingsCreated(), 2u);
}

// AgentConfig::po_window: the master may run ahead
// of the slowest slave's replayed prefix by at most po_window (plus the
// bounded overshoot of threads already past the gate when the limit moved).
TEST(PoWindowTest, ShardedMasterRunaheadIsBounded) {
  AgentConfig config;
  config.num_variants = 2;
  config.max_threads = 1;
  config.po_window = 8;
  config.buffer_capacity = 1 << 10;
  config.replay_deadline = std::chrono::milliseconds(20000);
  std::atomic<bool> abort{false};
  AgentControl control;
  control.abort_flag = &abort;
  PartialOrderRuntime runtime(config, control);
  auto master = runtime.CreateAgent(0);
  auto slave = runtime.CreateAgent(1);

  const int ops = 200;
  const uint64_t bound_slack = config.po_window + config.max_threads;
  int master_var = 0;
  std::atomic<bool> master_done{false};
  std::thread recorder([&] {
    for (int i = 0; i < ops; ++i) {
      master->BeforeSyncOp(0, &master_var);
      master->AfterSyncOp(0, &master_var);
    }
    master_done.store(true);
  });

  // With zero ops replayed, the master must park at the window edge.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_LE(runtime.SequencesIssued(), bound_slack);
  EXPECT_FALSE(master_done.load());
  EXPECT_GE(runtime.stats().Aggregate().record_stalls, 1u);

  int slave_var = 0;
  for (int i = 0; i < ops; ++i) {
    slave->BeforeSyncOp(0, &slave_var);
    slave->AfterSyncOp(0, &slave_var);
    if ((i & 15) == 0) {
      // Invariant sample: issued is read BEFORE replayed, so the prefix can
      // only have advanced since — the inequality is safe against the race.
      const uint64_t issued = runtime.SequencesIssued();
      const uint64_t replayed = runtime.ReplayedPrefix(1);
      EXPECT_LE(issued, replayed + bound_slack);
    }
  }
  recorder.join();
  EXPECT_TRUE(master_done.load());
  EXPECT_EQ(runtime.SequencesIssued(), static_cast<uint64_t>(ops));
}

// --- Mvee-level wiring ------------------------------------------------------

struct MveeSweepResult {
  std::string output;
  uint64_t bound_variables = 0;
  uint64_t migrations = 0;
  uint64_t migrations_aborted = 0;
  bool ok = false;
};

MveeSweepResult RunAdaptiveSweep(bool with_plan) {
  MveeOptions options;
  options.num_variants = 2;
  options.agent = AgentKind::kWallOfClocks;
  options.enable_aslr = false;
  options.rendezvous_timeout = std::chrono::milliseconds(20000);
  options.agent_config.replay_deadline = std::chrono::milliseconds(20000);
  options.agent_config.migrate_interval_ms = 0;  // Static seeding only.
  if (with_plan) {
    options.agent_plan.assignments = {
        {"hot", AgentKind::kTotalOrder, "shared-hot"},
        {"cold", AgentKind::kPerVariableOrder, "uncontended-shared"},
        {"scratch", AgentKind::kNull, "thread-local"},
    };
  }
  Mvee mvee(options);
  const Status status = mvee.Run([](VariantEnv& env) {
    auto hot = std::make_shared<Mutex>();
    auto hot_count = std::make_shared<int>(0);
    auto cold = std::make_shared<InstrumentedAtomic<int32_t>>();
    auto scratch_totals = std::make_shared<std::array<int32_t, 2>>();
    hot->Bind("hot");
    cold->Bind("cold");
    auto worker = [hot, hot_count, cold, scratch_totals](int which) {
      return [hot, hot_count, cold, scratch_totals, which](VariantEnv&) {
        InstrumentedAtomic<int32_t> scratch;
        scratch.Bind("scratch");
        for (int i = 0; i < 200; ++i) {
          scratch.FetchAdd(1);
          if (i % 4 == which) {
            cold->FetchAdd(1);
          }
          LockGuard<Mutex> guard(*hot);
          ++*hot_count;
        }
        (*scratch_totals)[which] = scratch.Load();
      };
    };
    ThreadHandle a = env.Spawn(worker(0));
    ThreadHandle b = env.Spawn(worker(1));
    env.Join(a);
    env.Join(b);
    const int64_t fd = env.Open("adaptive_sweep", VOpenFlags::kCreate | VOpenFlags::kWrite);
    env.Write(fd, std::to_string(*hot_count) + "," + std::to_string(cold->Load()) + "," +
                      std::to_string((*scratch_totals)[0]) + "," +
                      std::to_string((*scratch_totals)[1]));
    env.Close(fd);
  });
  MveeSweepResult result;
  result.ok = status.ok();
  EXPECT_TRUE(status.ok()) << "with_plan=" << with_plan << ": " << status.ToString();
  result.bound_variables = mvee.report().adaptive_bound_variables;
  result.migrations = mvee.report().agent_migrations;
  result.migrations_aborted = mvee.report().agent_migrations_aborted;
  if (auto file = mvee.kernel().vfs().Open("adaptive_sweep", false)) {
    const auto contents = file->Contents();
    result.output.assign(contents.begin(), contents.end());
  }
  return result;
}

// The plan moves routes, never output: the planned run and the unplanned
// one (every bound name on the default route) both produce the fixed
// program output.
TEST(AdaptiveMveeTest, PlannedAndUnplannedRunsProduceFixedOutput) {
  const MveeSweepResult planned = RunAdaptiveSweep(true);
  const MveeSweepResult unplanned = RunAdaptiveSweep(false);
  ASSERT_TRUE(planned.ok);
  ASSERT_TRUE(unplanned.ok);
  EXPECT_EQ(planned.output, "400,100,200,200");
  EXPECT_EQ(unplanned.output, "400,100,200,200");
  EXPECT_EQ(planned.bound_variables, 3u);
  EXPECT_EQ(planned.migrations, 0u);
  EXPECT_EQ(planned.migrations_aborted, 0u);
  // Binding registers each name even without a plan (on the default route).
  EXPECT_EQ(unplanned.bound_variables, 3u);
  EXPECT_EQ(unplanned.migrations, 0u);
  EXPECT_EQ(unplanned.migrations_aborted, 0u);
}

// Controller-driven promotion during a full MVEE run surfaces in the report
// counters and leaves the verdict clean.
TEST(AdaptiveMveeTest, ControllerMigrationSurfacesInReport) {
  auto run_once = [](MveeReport& report) {
    MveeOptions options;
    options.num_variants = 2;
    options.agent = AgentKind::kWallOfClocks;
    options.enable_aslr = false;
    options.rendezvous_timeout = std::chrono::milliseconds(30000);
    options.agent_config.replay_deadline = std::chrono::milliseconds(30000);
    options.agent_config.migrate_interval_ms = 5;
    options.agent_config.migrate_min_ops = 32;
    options.agent_plan.assignments = {{"promo", AgentKind::kPerVariableOrder, "misseeded"}};
    Mvee mvee(options);
    const Status status = mvee.Run([](VariantEnv& env) {
      auto promo = std::make_shared<InstrumentedAtomic<int64_t>>();
      // Plain (uninstrumented) start gate: per-variant scheduling glue only, so
      // it neither records sync ops nor perturbs replay. It guarantees the two
      // threads' bursts overlap — the controller must see BOTH tids' deltas to
      // call the variable contended.
      auto start_gate = std::make_shared<std::atomic<int>>(0);
      promo->Bind("promo");
      auto worker = [promo, start_gate](VariantEnv&) {
        start_gate->fetch_add(1);
        while (start_gate->load() < 2) {
          std::this_thread::yield();
        }
        // Phase 1: a contended burst — two threads' deltas in one controller
        // interval trigger the promotion to total-order.
        for (int i = 0; i < 20000; ++i) {
          promo->FetchAdd(1);
        }
        // Phase 2: slow trickle, long enough that the controller ticks and the
        // migration drains while the program is still alive. Both variants run
        // the same fixed iteration count, so record/replay stays aligned.
        for (int i = 0; i < 25; ++i) {
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
          promo->FetchAdd(1);
        }
      };
      ThreadHandle a = env.Spawn(worker);
      ThreadHandle b = env.Spawn(worker);
      env.Join(a);
      env.Join(b);
    });
    report = mvee.report();
    return status;
  };
  // On an oversubscribed machine the scheduler can run the two bursts back
  // to back, so no controller interval ever sees two active tids and nothing
  // promotes. That is correct controller behaviour (no observed contention),
  // not a failure — retry until a run actually exhibits the contention this
  // test is about. Every attempt must still be divergence-free.
  MveeReport report;
  for (int attempt = 0; attempt < 5; ++attempt) {
    const Status status = run_once(report);
    ASSERT_TRUE(status.ok()) << status.ToString();
    ASSERT_EQ(report.adaptive_bound_variables, 1u);
    ASSERT_EQ(report.agent_migrations_aborted, 0u);
    if (report.agent_migrations >= 1) {
      break;
    }
  }
  EXPECT_GE(report.agent_migrations, 1u);
}

}  // namespace
}  // namespace mvee
