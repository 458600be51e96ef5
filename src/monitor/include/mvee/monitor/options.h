// MVEE configuration.

#ifndef MVEE_MONITOR_OPTIONS_H_
#define MVEE_MONITOR_OPTIONS_H_

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <string>

#include "mvee/agents/sync_agent.h"
#include "mvee/agents/variable_map.h"
#include "mvee/monitor/reporter.h"

namespace mvee {

// Default for MveeOptions::fault_plan: the MVEE_FAULT_PLAN environment
// string (docs/fault_injection.md), empty = no faults armed.
inline std::string DefaultFaultPlan() {
  const char* env = std::getenv("MVEE_FAULT_PLAN");
  return env != nullptr ? std::string(env) : std::string();
}

// Which system calls the monitor compares in lockstep across variants
// (paper §5.1 tested "a variety of monitoring policies ranging from strict
// lockstepping on all system calls to lockstepping only on security-
// sensitive system calls").
enum class MonitorPolicy : uint8_t {
  kLockstepAll = 0,        // Compare every call.
  kLockstepSensitive,      // Compare only security-sensitive calls.
};

// Variant synchronization model (paper §2 "The variant synchronization
// model is a key differentiator among MVEEs"):
//  - kLockstep: security-oriented; no variant proceeds past a monitored call
//    until all variants made an equivalent call (ReMon/GHUMVEE).
//  - kLoose: reliability-oriented (VARAN-style, §6): the leader runs ahead
//    and deposits syscall records in a ring buffer; followers consume and
//    verify asynchronously. Divergence detection is delayed by the buffer
//    depth — the security/latency trade-off the paper describes.
enum class SyncModel : uint8_t {
  kLockstep = 0,
  kLoose,
};

struct MveeOptions {
  // Number of variants (master + slaves). The paper evaluates 2-4.
  uint32_t num_variants = 2;
  // Replication strategy for sync ops.
  AgentKind agent = AgentKind::kWallOfClocks;
  // Comparison policy.
  MonitorPolicy policy = MonitorPolicy::kLockstepAll;
  // Synchronization model (lockstep = paper's security model).
  SyncModel sync_model = SyncModel::kLockstep;
  // Ring depth per thread set in kLoose mode (how far the leader may run
  // ahead of the slowest follower).
  size_t loose_buffer_depth = 256;
  // Simulated disjoint code layouts (§5.1 correctness runs use DCL): each
  // variant's address ranges are made mutually non-overlapping.
  bool enable_dcl = false;
  // Simulated ASLR: per-variant randomized heap/map bases.
  bool enable_aslr = true;
  // Enforce the syscall ordering clock on shared-resource calls (§4.1),
  // one Lamport clock per resource domain (docs/syscall_ordering.md).
  // Disabling reproduces the benign-divergence failure mode of §3.1.
  bool order_resource_calls = true;
  // Seed for diversity and kernel randomness.
  uint64_t seed = 0x5eedULL;
  // Lockstep rendezvous deadline; exceeded => divergence (variants made
  // different numbers/kinds of calls, e.g. uninstrumented sync ops, §5.5).
  std::chrono::milliseconds rendezvous_timeout{10000};
  // Failure-handling policy (docs/DESIGN.md §9). kShutdown is the paper's
  // security posture: any variant failure terminates the MVEE. kExcise is
  // the reliability mode: the failed variant is removed and the survivors
  // keep serving, as long as at least min_survivors variants remain.
  VariantFailurePolicy on_variant_failure = VariantFailurePolicy::kShutdown;
  // Excision floor: below this many survivors, security demands shutdown
  // (a 1-variant "MVEE" compares nothing).
  uint32_t min_survivors = 2;
  // Blocked-call watchdog deadline (docs/DESIGN.md §9): a monitor-side sweep
  // that generalizes rendezvous_timeout to vkernel blocking calls (futex
  // wait, accept, poll park). A call stuck past the deadline is logged with
  // a round-state dump; past 1.5x it gets a non-destructive nudge (spurious
  // futex/wait-queue wakeups, abandoned-lease release); past 2x the laggard
  // is excised (policy permitting) or the MVEE shuts down. Zero disables
  // the watchdog (restoring the old hang-forever behavior).
  std::chrono::milliseconds blocked_call_timeout{10000};
  // Deterministic fault plan (docs/fault_injection.md), e.g.
  // "crash@2:5;stall@*:3:250". Empty = nothing armed; the disarmed
  // injection sites cost one relaxed load each.
  std::string fault_plan = DefaultFaultPlan();
  // Agent tuning.
  AgentConfig agent_config;
  // Static per-variable agent seeding (docs/DESIGN.md §11): routes derived
  // by the analysis layer (DeriveAssignmentPlan) or written by hand.
  // Ignored under the kNull agent; variables the plan does not name (and
  // all unbound addresses) ride the default route = `agent`.
  AgentAssignmentPlan agent_plan;
};

}  // namespace mvee

#endif  // MVEE_MONITOR_OPTIONS_H_
