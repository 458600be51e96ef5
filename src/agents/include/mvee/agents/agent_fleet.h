// AgentFleet: owns the shared runtime(s) of the replication strategy and
// hands out the per-variant agent handles. The MVEE creates one fleet per run
// and "injects" an agent into each variant (the paper's LD_PRELOAD injection,
// §4.5, collapses here to wiring the agent into the variant's thread-local
// sync context).
//
// Two shapes (docs/DESIGN.md §11):
//  - kNull: no runtime; every variant gets a no-op agent.
//  - Every other kind: all four runtimes are alive at once (lazy recording
//    rings keep that affordable) and every variant gets a dispatch agent
//    that routes each sync op through the VariableAgentMap to the runtime
//    its variable is assigned to. Routes are seeded from an
//    AgentAssignmentPlan (the analysis layer's verdicts), re-pointed at
//    runtime by a sampling controller thread (promotion on contention,
//    demotion on confinement) or explicitly via ForceMigrate. Unbound
//    variables ride the default route (= `kind`), which is migration-frozen:
//    their ops go straight to that runtime's agent with no gate, so a
//    program that binds nothing pays one dispatch call and one load per op
//    over calling `kind`'s runtime directly.

#ifndef MVEE_AGENTS_AGENT_FLEET_H_
#define MVEE_AGENTS_AGENT_FLEET_H_

#include <array>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "mvee/agents/partial_order.h"
#include "mvee/agents/sync_agent.h"
#include "mvee/agents/total_order.h"
#include "mvee/agents/variable_map.h"
#include "mvee/agents/wall_of_clocks.h"

namespace mvee {

class AgentFleet {
 public:
  // `plan` (optional) seeds per-variable routes; ignored for kNull. The plan
  // is copied.
  AgentFleet(AgentKind kind, const AgentConfig& config, AgentControl control,
             const AgentAssignmentPlan* plan = nullptr);
  ~AgentFleet();

  AgentFleet(const AgentFleet&) = delete;
  AgentFleet& operator=(const AgentFleet&) = delete;

  // Creates the agent for `variant_index` (0 = master). For kNull the
  // process-wide NullAgent is returned via a non-owning wrapper.
  std::unique_ptr<SyncAgent> CreateAgent(uint32_t variant_index);

  // Excision (docs/DESIGN.md §9): detach `variant`'s replay cursors from
  // every live runtime's recording rings, and drop it from migration drains.
  // No-op for kNull and for the master itself.
  void DetachVariant(uint32_t variant);

  AgentKind kind() const { return kind_; }
  bool adaptive() const { return map_ != nullptr; }

  // Aggregated recorder/replayer statistics summed over every live runtime
  // (zeros for kNull).
  AgentStatsSnapshot StatsSnapshot() const;

  // ---- Routing API (inert for kNull, where !adaptive()) ----

  // Current route of `name`; the fleet's kind for "" (the default route
  // shared by all unbound variables) or names that were never registered.
  AgentKind RouteOf(const std::string& name) const;

  // Moves `name`'s route to `to` through the epoch handshake. Returns true
  // iff the flip completed (false: "" or an unknown name, already there, a
  // kNull endpoint, timeout-abort, or a kNull fleet). "" names the
  // default route, which is migration-frozen.
  bool ForceMigrate(const std::string& name, AgentKind to);

  uint64_t MigrationsCompleted() const;
  uint64_t MigrationsAborted() const;
  // Distinct variables with their own route entry.
  uint64_t BoundVariables() const;

  // Exposed for the no-allocation/lazy-rings tests.
  const VariableAgentMap* map() const { return map_.get(); }
  uint64_t RecordingRingsCreated() const;

 private:
  friend class DispatchAgent;

  // Registers (or finds) the route entry for `name` and binds `addr` to it
  // in `variant`'s address table. Called from DispatchAgent::BindVariable.
  void BindVariable(uint32_t variant, const char* name, const void* addr);

  SyncAgent* SubAgent(uint32_t variant, AgentKind kind) const;
  void ControllerLoop();

  const AgentKind kind_;
  AgentConfig config_;
  AgentControl control_;
  std::unique_ptr<TotalOrderRuntime> total_order_;
  std::unique_ptr<PartialOrderRuntime> partial_order_;
  std::unique_ptr<WallOfClocksRuntime> wall_of_clocks_;
  std::unique_ptr<PerVariableRuntime> per_variable_;
  // Routing state (null/empty for kNull).
  std::unique_ptr<VariableAgentMap> map_;
  // sub_agents_[variant][kind]: the per-variant handle of each runtime the
  // dispatch agent can route to (kNull slot stays empty — a kNull route
  // skips the sub-agent call entirely). Created once in CreateAgent.
  std::vector<std::array<std::unique_ptr<SyncAgent>, 5>> sub_agents_;
  std::thread controller_;
  std::atomic<bool> stop_controller_{false};
};

}  // namespace mvee

#endif  // MVEE_AGENTS_AGENT_FLEET_H_
