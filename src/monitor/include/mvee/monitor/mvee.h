// Mvee: the multi-variant execution environment.
//
// Runs N diversified copies (variants) of a program in lockstep, monitoring
// them at the system-call level, replicating I/O results from the master to
// the slaves, ordering shared-resource calls with a logical clock, and
// replaying the master's synchronization-operation order in the slaves
// through an injected agent (paper §§2-4).
//
// Usage:
//   MveeOptions options;
//   options.num_variants = 3;
//   options.agent = AgentKind::kWallOfClocks;
//   Mvee mvee(options);
//   Status status = mvee.Run([](VariantEnv& env) {
//     // variant program: runs once per variant, lockstepped
//   });
//   // status.ok() => no divergence; mvee.report() has the counters.

#ifndef MVEE_MONITOR_MVEE_H_
#define MVEE_MONITOR_MVEE_H_

#include <array>
#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "mvee/agents/agent_fleet.h"
#include "mvee/monitor/options.h"
#include "mvee/monitor/reporter.h"
#include "mvee/monitor/thread_set.h"
#include "mvee/util/status.h"
#include "mvee/variant/env.h"
#include "mvee/vkernel/vkernel.h"

namespace mvee {

// Final run report (Table 2's rate counters come from here).
struct MveeReport {
  Status status;
  SyscallCounters syscalls;
  uint64_t sync_ops_recorded = 0;
  uint64_t sync_ops_replayed = 0;
  uint64_t replay_stalls = 0;
  uint64_t record_stalls = 0;
  // Spins the TO/PO master burned acquiring its per-variable record shard
  // lock (docs/DESIGN.md §8). Stays near the program's own contention on
  // its sync variables, plus shard collisions.
  uint64_t record_lock_spins = 0;
  // Syscall-ordering domain lifecycle (docs/syscall_ordering.md): per-fd
  // domains created on first stamp, retired at close, reclaimed at
  // end-of-run quiescence.
  uint64_t order_domains_created = 0;
  uint64_t order_domains_retired = 0;
  uint64_t order_domains_reclaimed = 0;
  // Virtual-kernel readiness subsystem (docs/DESIGN.md §7): parked waits and
  // event-driven wakeups of poll/accept/futex callers. Nonzero wakeups under
  // load are the observable proof that blocking calls ride wait-queue
  // notifications instead of spin-polling.
  uint64_t vkernel_waitq_waits = 0;
  uint64_t vkernel_waitq_wakeups = 0;
  // Failure-model outcomes (docs/DESIGN.md §9). A run that excised variants
  // and still reports status OK is the graceful-degradation contract: the
  // survivors produced verdict-equivalent output without the dead variant.
  std::vector<ExcisionRecord> excised_variants;
  // Worst excise-to-next-round-open latency observed (bench_recovery's
  // headline number); zero when nothing was excised.
  uint64_t excision_latency_ns = 0;
  // Blocked-call watchdog escalations: state dumps (stage 1) and
  // non-destructive nudges (stage 2). Stage-3 excisions/shutdowns land in
  // excised_variants / status.
  uint64_t watchdog_dumps = 0;
  uint64_t watchdog_nudges = 0;
  // Adaptive per-variable agents (docs/DESIGN.md §11): variables routed to
  // their own agent entry, and route migrations the controller (or
  // ForceMigrate) completed/aborted during the run. All zero under the
  // kNull agent or when the program binds nothing.
  uint64_t adaptive_bound_variables = 0;
  uint64_t agent_migrations = 0;
  uint64_t agent_migrations_aborted = 0;
  double wall_seconds = 0.0;
  std::string divergence_detail;
};

class Mvee : public TrapInterface {
 public:
  // `external_kernel` lets several runs (or out-of-MVEE load generators)
  // share one virtual machine; pass nullptr to own a private kernel.
  explicit Mvee(const MveeOptions& options, VirtualKernel* external_kernel = nullptr);
  ~Mvee() override;

  Mvee(const Mvee&) = delete;
  Mvee& operator=(const Mvee&) = delete;

  // Runs `program` to completion in every variant. Returns OK if all
  // variants exited cleanly, kDivergence/kTimeout if the MVEE shut them
  // down. Not reentrant.
  Status Run(Program program);

  const MveeReport& report() const { return report_; }
  VirtualKernel& kernel() { return *kernel_; }
  DivergenceReporter& reporter() { return reporter_; }

  // Snapshot of every thread-set monitor's state plus kernel wait counts;
  // intended for watchdogs diagnosing stuck runs.
  std::string DumpState();

  // Queues an asynchronous signal for logical thread `tid` from outside the
  // variants (the MVEE-level analogue of a signal arriving from the kernel).
  // Delivered to every variant's handler at that thread's next rendezvous.
  void RaiseSignal(uint32_t tid, int32_t sig);

  // TrapInterface:
  int64_t Trap(uint32_t variant, uint32_t tid, SyscallRequest& request) override;
  void StartThread(uint32_t variant, uint32_t child_tid, ThreadFn fn) override;
  void JoinThread(uint32_t variant, uint32_t tid) override;
  void SetSignalHandler(uint32_t variant, int32_t sig, SignalHandler handler) override;

 private:
  struct VariantState {
    std::unique_ptr<ProcessState> process;
    std::unique_ptr<DiversityMap> diversity;
    std::unique_ptr<SyncAgent> agent;
    std::mutex threads_mutex;
    std::map<uint32_t, std::thread> threads;
    // POSIX-style process-wide handler table (per variant).
    std::mutex handlers_mutex;
    std::map<int32_t, SignalHandler> signal_handlers;
  };

  ThreadSetMonitor* GetThreadSet(uint32_t tid);
  void RunVariantThread(uint32_t variant, uint32_t tid, const ThreadFn& fn);

  // Blocked-call watchdog (docs/DESIGN.md §9): a monitor-side sweep thread
  // that generalizes rendezvous_timeout to calls blocked inside the virtual
  // kernel (futex wait, accept, poll park), where no rendezvous deadline is
  // ticking. Escalation ladder per stuck (thread set, variant) heartbeat:
  // 1x blocked_call_timeout => log + DumpState; 1.5x => non-destructive
  // nudge (spurious futex/waitq wakes, abandoned-lease release); 2x =>
  // excise the laggard (policy permitting, never the combined-master
  // executor) or shut the MVEE down.
  void WatchdogLoop();

  MveeOptions options_;
  std::unique_ptr<VirtualKernel> owned_kernel_;
  VirtualKernel* kernel_;
  DivergenceReporter reporter_;
  std::unique_ptr<AgentFleet> fleet_;
  std::unique_ptr<OrderDomainTable> order_domains_;
  MonitorShared shared_;
  std::vector<std::unique_ptr<VariantState>> variants_;
  std::mutex sets_mutex_;
  std::map<uint32_t, std::unique_ptr<ThreadSetMonitor>> thread_sets_;
  // Lock-free fast path for GetThreadSet: tids are small sequential ints, and
  // the seed's map-under-global-mutex lookup sat on EVERY trap of EVERY
  // thread. Entries are published with release stores after construction;
  // tids beyond the array fall back to the locked map.
  static constexpr uint32_t kTidCacheSize = 512;
  std::array<std::atomic<ThreadSetMonitor*>, kTidCacheSize> set_cache_{};
  // Watchdog sweep thread state (started/joined by Run).
  std::thread watchdog_;
  std::atomic<bool> watchdog_stop_{false};
  std::atomic<uint64_t> watchdog_dumps_{0};
  std::atomic<uint64_t> watchdog_nudges_{0};
  bool armed_faults_ = false;
  MveeReport report_;
};

}  // namespace mvee

#endif  // MVEE_MONITOR_MVEE_H_
