// ThreadSetMonitor: one monitor per set of equivalent variant threads.
//
// ReMon is "a multithreaded monitor ... each of ReMon's threads monitors one
// set of equivalent variant threads" (paper §4). Here the monitor is passive
// (runs on the trapping variant threads themselves, like the decentralized
// designs of §2) but the unit of monitoring is the same: all variants' copies
// of logical thread T rendezvous here on every syscall.
//
// Round protocol:
//   1. gather    — every variant deposits its request and a scalar digest;
//                  the last arriver claims the round and compares the
//                  digests and every member's in_data bytes against the
//                  master's, in place (divergence => MVEE shutdown).
//   2. execute   — class-dependent:
//        kReplicated: master executes against the kernel (may block); the
//                     result + output bytes are published to the slaves,
//                     which apply local side effects only (§4.1).
//        kOrdered:    master executes inside the syscall-ordering critical
//                     section of the resource's ordering domain and
//                     publishes its Lamport timestamp; each slave spins
//                     until its private clock for that domain matches,
//                     executes locally, and increments the clock (§4.1,
//                     docs/syscall_ordering.md).
//        kLocal:      every variant executes locally, unordered.
//        kControl:    handled by the monitor itself (self-aware, clone,
//                     exit) without touching the kernel.
//   3. drain     — the last consumer resets the round.
//
// Lockstep rounds run on round slabs: a small ring of epoch-numbered,
// cache-padded round structs. Variants arrive with one fetch_or, whichever
// thread completes the live set claims the open (open_claim CAS), compares
// the deposits, runs the master call and publishes membership and result
// with one release store; the others spin on the slab's phase word
// (SpinWait) and fall back to a futex-style parked wait after the spin
// budget. No mutex, no condvar, no allocation on the happy path. Protocol
// walkthrough + memory ordering argument: docs/DESIGN.md §6.
//
// Failure model (docs/DESIGN.md §9): round membership is the reporter's
// live-variant mask, sampled when a round opens. A variant that crashes,
// stalls past the rendezvous budget, or diverges alone from the master is
// reported through DivergenceReporter::ReportVariantFailure; under the
// kExcise policy it leaves the live mask and every subsequent round opens
// without it, while the survivors keep running in lockstep. Under kShutdown
// (the default, the paper's posture) the same paths escalate to the classic
// fatal report.

#ifndef MVEE_MONITOR_THREAD_SET_H_
#define MVEE_MONITOR_THREAD_SET_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <vector>

#include "mvee/monitor/options.h"
#include "mvee/monitor/order_domain.h"
#include "mvee/monitor/reporter.h"
#include "mvee/syscall/record.h"
#include "mvee/util/arena.h"
#include "mvee/util/park.h"
#include "mvee/util/spsc_ring.h"
#include "mvee/vkernel/vkernel.h"

namespace mvee {

// Shared pieces every ThreadSetMonitor needs; owned by Mvee.
struct MonitorShared {
  const MveeOptions* options = nullptr;
  VirtualKernel* kernel = nullptr;
  DivergenceReporter* reporter = nullptr;
  std::vector<ProcessState*> processes;  // per variant

  // Syscall-ordering domains (§4.1, docs/syscall_ordering.md): one
  // timestamp counter + per-variant replay clock per conflicting resource.
  OrderDomainTable* order_domains = nullptr;

  // Logical tid allocator for sys_clone (identical across variants because
  // it is assigned once per rendezvous).
  std::atomic<uint32_t> next_tid{1};

  // Deferred asynchronous signals, keyed by target logical tid. Enqueued by
  // sys_tgkill rendezvous or by Mvee::RaiseSignal (the external-source
  // case); latched into the target thread set's next round so every variant
  // delivers the handler at the same syscall boundary — the way GHUMVEE-
  // style monitors make async signal delivery deterministic.
  //
  // pending_signal_count mirrors the number of queued signals so the
  // per-round latch (RouteSignals) can skip the global mutex entirely when
  // nothing is pending and the round is not a kill — the overwhelmingly
  // common case. A signal enqueued concurrently with that skip simply lands
  // at the target's NEXT rendezvous, which is within the async-delivery
  // contract.
  std::mutex signal_mutex;
  std::map<uint32_t, std::deque<int32_t>> pending_signals;
  std::atomic<uint64_t> pending_signal_count{0};
  // Logical tids whose thread sets processed their exit round. Kills aimed
  // at them are dropped (nobody will ever latch them) — otherwise one
  // undeliverable signal would hold pending_signal_count above zero forever
  // and silently disable every thread set's lock-free latch fast path.
  std::set<uint32_t> exited_tids;
};

class ThreadSetMonitor {
 public:
  ThreadSetMonitor(uint32_t tid, MonitorShared* shared);

  // Executes one syscall for (variant, this thread set) under the configured
  // synchronization model. Lockstep blocks until the round completes; loose
  // mode lets the leader run ahead (ring-buffered). Throws VariantKilled on
  // MVEE shutdown. If `delivered_signals` is non-null it receives the
  // signals latched for this round; the caller (Mvee::Trap) runs the
  // variant's handlers for them after the round — the rendezvous *is* the
  // deterministic delivery point.
  int64_t RunSyscall(uint32_t variant, SyscallRequest& request,
                     std::vector<int32_t>* delivered_signals = nullptr);

  // Wakes all parked threads (reporter shutdown hook).
  void NotifyShutdown();

  // Excision hook (docs/DESIGN.md §9): wakes every waiter so gather loops
  // re-evaluate round completeness against the shrunken live mask, and
  // detaches the dead variant's loose-mode ring cursor so the leader's
  // backpressure stops waiting for it. Runs on the excising thread, outside
  // the reporter lock.
  void OnVariantExcised(uint32_t variant);

  // Blocked-call heartbeat (watchdog input). `seq` is odd while the variant
  // is inside RunSyscall; a stuck call shows the same odd seq across sweeps.
  struct CallProgress {
    uint64_t seq = 0;
    Sysno sysno = Sysno::kExit;
    bool in_call = false;
    bool in_master = false;  // executing the combined master call (never excisable)
  };
  CallProgress Progress(uint32_t variant) const;

  // One-line state snapshot of the oldest in-flight round ("tid=3 round=12
  // phase=1 arrived=2/2 drained=0 parked=0 v0=sys_futex v1=sys_futex") for
  // hang diagnostics.
  std::string DebugString();

  // Adds this thread set's round counts into `out` (report aggregation).
  void AccumulateCounters(SyscallCounters* out) const { counters_.AccumulateInto(out); }

  uint32_t tid() const { return tid_; }

 private:
  // --- Wait-free round slabs ----------------------------------------------

  // How far a drained round's state survives before its slab is recycled.
  // Lockstep keeps at most two rounds in flight per thread set (a variant
  // cannot arrive at round r+1 before draining round r), so a shallow ring
  // suffices; depth 4 keeps the recycle gate comfortably off the hot path.
  static constexpr uint32_t kSlabRingDepth = 4;
  static constexpr uint32_t kSlabRingMask = kSlabRingDepth - 1;

  // Monotonic per-round phases (the slab's state word).
  enum : uint32_t {
    kRoundGather = 0,     // collecting arrivals, comparing, executing
    kRoundMasterDone = 1  // membership and master result published
  };

  // One variant's deposit, padded so concurrent arrivals never share a line.
  // `request` points at the arriving thread's stack and is valid only within
  // the round (arrival RMW to slab reset). `digest` is its ScalarDigest, no
  // payload bytes, after the corrupt-digest fault site. `sysno` mirrors it
  // as an atomic so diagnostics (DebugString) can name in-flight calls
  // without dereferencing a possibly-retired pointer.
  struct alignas(64) ArrivalSlot {
    SyscallRequest* request = nullptr;
    uint64_t digest = 0;
    std::atomic<Sysno> sysno{Sysno::kExit};
  };

  // One in-flight round. All non-atomic fields are handed between variants
  // exclusively through the release/acquire edges on `arrivals`, `phase`,
  // `drained`, and `epoch` (docs/DESIGN.md §6). The words written in
  // different steps of a round sit on separate lines: waiters poll `phase`
  // while the arrivals and the opener write the control line, and the
  // drains do not disturb either.
  struct RoundSlab {
    // The round number this slab currently serves; advanced by
    // +kSlabRingDepth by the last drainer (release) — the arrival gate that
    // makes slab reuse safe.
    alignas(64) std::atomic<uint64_t> epoch{0};
    // Phase word waiters spin on; advanced with release stores only.
    alignas(64) std::atomic<uint32_t> phase{kRoundGather};
    alignas(64) std::atomic<uint32_t> arrivals{0};  // bitmap of arrived variants
    // Open claim: whoever observes the live set fully arrived CASes 0 -> 1
    // and becomes the opener. With a static membership the last arriver
    // always wins this CAS uncontended; the claim exists so that when an
    // excision shrinks the live set, any already-arrived waiter can open the
    // round instead (docs/DESIGN.md §9). An unwinding arrival on a tripped
    // shutdown may claim it with kPoisonedClaim instead, which tells every
    // later unwinder that no opener will ever read their frames.
    static constexpr uint32_t kOpenerClaim = 1;
    static constexpr uint32_t kPoisonedClaim = 2;
    std::atomic<uint32_t> open_claim{0};
    // The opener's variant index, stored (release) immediately after the
    // claim CAS and before the opener's first dereference of a deposited
    // request. Exists for HoldFrameForCombiner: an arrival unwinding
    // exceptionally must know whether the opener is itself, still running
    // (wait for the phase), or already drained (its drained bit is set).
    static constexpr uint32_t kNoExecutor = 0xffffffffu;
    std::atomic<uint32_t> executor{kNoExecutor};
    // The live mask sampled by the opener; published by the
    // kRoundMasterDone release store. Arrived variants outside the mask
    // drain without executing and unwind.
    uint32_t members = 0;
    alignas(64) std::atomic<uint32_t> drained{0};  // bitmap of drained arrivals
    // Round data (no locks; see the handoff edges above):
    alignas(64) int64_t control_retval = 0;
    SyscallResult master_result;
    PayloadBuffer payload;           // master_result.out_payload views this
    std::vector<int32_t> signals;    // latched for this round; capacity kept
    std::vector<ArrivalSlot> slots;  // one per variant
  };

  // Each variant's private position in the round sequence. Written only by
  // that variant's (single) thread for this set; padded against sharing.
  struct alignas(64) VariantCursor {
    uint64_t next_round = 0;
  };

  // Per-variant heartbeat + deposit-window flag, padded against sharing.
  // `seq`/`sysno`/`in_master` feed the watchdog (relaxed; a heuristic).
  // `gathering` is load-bearing: it brackets the deposit (slot write +
  // arrival fetch_or) with seq_cst stores, forming the Dekker pair with the
  // opener's live-mask/gathering reads that pins down whether a dying
  // variant's arrival bit lands before the round opens or never lands at
  // all (docs/DESIGN.md §9).
  struct alignas(64) ProgressSlot {
    std::atomic<uint64_t> seq{0};
    std::atomic<Sysno> sysno{Sysno::kExit};
    std::atomic<bool> in_master{false};
    std::atomic<bool> gathering{false};
  };

  int64_t RunSyscallSlab(uint32_t variant, SyscallRequest& request,
                         std::vector<int32_t>* delivered_signals);

  // True when every live variant's arrival bit is set for this slab.
  bool SlabGatherComplete(const RoundSlab& slab) const;

  // Attempts to claim and open the slab round: samples membership, waits
  // out dead variants mid-deposit, compares the deposits (excising a single
  // outlier when policy permits), runs the combined master call and
  // publishes membership with kRoundMasterDone. Returns true iff this
  // thread was the opener.
  bool TryOpenSlabRound(RoundSlab& slab, uint64_t round, SyscallClass klass,
                        uint32_t variant);

  // Gather-timeout escalation (docs/DESIGN.md §9). A dead caller reports
  // nothing (it keeps waiting for the round to open without it); a live-mask
  // change since `live_at_wait` grants the stragglers a fresh window; a sole
  // missing slave — the signature of the thread set where the failure
  // actually happened — is excised after one window; an ambiguous missing
  // set (several variants, or the master among them) must persist unchanged
  // across two consecutive windows (tracked in `*deferred_missing`) before
  // its slaves are excised, and the master is fatal only when no excisable
  // laggard could explain the stall. Throws VariantKilled when the policy
  // escalates to a fatal report.
  void ExciseMissingSlab(RoundSlab& slab, uint64_t round, uint32_t variant,
                         uint32_t live_at_wait, uint32_t* deferred_missing,
                         const SyscallRequest& request);

  // Marks `self_bit` drained; the thread whose drain completes the arrival
  // set recycles the slab for round + depth.
  void DrainSlab(RoundSlab& slab, uint64_t round, uint32_t self_bit);

  // Called on every exit from a slab round, BEFORE DrainSlab, while the
  // caller's trap frame (which `slots[variant].request` points into) is
  // still alive. On normal completion this is a no-op; on an exceptional
  // unwind it holds the frame until no foreign thread can still read it:
  // the opener dereferences every member's deposited request, in_data bytes
  // included, during the compare, and keeps executing against the MASTER's
  // request until kRoundMasterDone (flat combining), the one publication
  // that ends every member's hold.
  // Unwinding through that window frees a stack another thread is reading
  // — the cause of rare shutdown-race segfaults under poll-heavy servers.
  void HoldFrameForCombiner(RoundSlab& slab, uint32_t variant);

  // Spins (then parks) until `ready(spinning)` holds; `spinning` is true
  // during SpinWait's PAUSE phase, so a predicate can poll cheap words first.
  // Returns false on rendezvous timeout when `timed`; throws VariantKilled on
  // MVEE shutdown. The untimed form is for waiting on the master, which may
  // legitimately block in the kernel (futex, accept) for longer than any
  // rendezvous budget.
  template <typename Predicate>
  bool AwaitSlabState(Predicate&& ready, bool timed);

  // Lockstep comparison across the slab's arrival slots, restricted to
  // `members` (opener only): sysno and scalar digest against the master's,
  // then the in_data bytes in place (SyscallRequest::SamePayload). No
  // payload byte is hashed. On mismatch returns a detail that names the
  // first differing field; when exactly one member disagrees with the
  // master, `*outlier` names it so the caller can attempt excision instead
  // of shutdown (a multi-way divergence leaves *outlier untouched and is
  // always fatal — the master is as likely wrong as any slave).
  std::string CompareSlabRoundLive(const RoundSlab& slab, uint32_t members,
                                   uint32_t* outlier) const;

  // --- Shared helpers ------------------------------------------------------

  // Returns true if this request's arguments must be compared under the
  // configured policy.
  bool MustCompare(const SyscallRequest& request) const;

  // Master-side execution; returns the master's result (out_payload viewing
  // request.payload_pool). `control_retval` is the round's pre-assigned
  // control result (clone tid). Runs unlocked.
  SyscallResult ExecuteMaster(SyscallRequest& request, SyscallClass klass,
                              int64_t control_retval);

  // Slave-side execution from the master's published result. Runs outside
  // any lock so that divergence reports never occur while one is held.
  int64_t ExecuteSlave(uint32_t variant, SyscallRequest& request, SyscallClass klass,
                       const SyscallResult& master, int64_t control_retval);

  // The replay clock a slave must spin on for `master`'s stamped ordering
  // position (the stamped domain's per-variant clock).
  std::atomic<uint64_t>& SlaveClockFor(uint32_t variant, const SyscallResult& master);

  // Spins (DeadlineGate-amortized) until `clock` reaches `want`; reports a
  // timeout/shutdown and throws VariantKilled if it never does. `what`
  // labels the wait in the stall report.
  void AwaitOrderClock(std::atomic<uint64_t>& clock, uint64_t want, uint32_t variant,
                       const SyscallRequest& request, const char* what);

  // VARAN-style loose path: leader deposits records, followers consume and
  // verify asynchronously (§2's reliability-oriented model).
  int64_t RunSyscallLoose(uint32_t variant, SyscallRequest& request,
                          std::vector<int32_t>* delivered_signals);

  // One leader-deposited record in loose mode. Records live in a
  // preallocated pool indexed by ring sequence — the ring carries bare
  // pointers and the retirement gate (every consumer advanced past the
  // slot) makes reuse safe, so the loose hot path allocates nothing: no
  // per-call shared_ptr, no payload vector clone.
  struct LooseRecord {
    Sysno sysno = Sysno::kExit;
    uint64_t digest = 0;
    int64_t control_retval = 0;
    SyscallResult result;
    PayloadBuffer payload;         // result.out_payload views this
    std::vector<int32_t> signals;  // latched at the leader's delivery point
  };

  // Enqueues a kill's signal (round preprocessing, exactly once) and pops
  // everything pending for this thread set into `out`. Lock-free when no
  // signals are in flight (see MonitorShared::pending_signal_count).
  void RouteSignals(const SyscallRequest& request, std::vector<int32_t>* out);

  // `digest` (lockstep: ScalarDigest, loose: ComparableDigest) with the
  // corrupt-digest fault site applied (docs/fault_injection.md): one
  // relaxed-load branch when the fault layer is disarmed.
  uint64_t DepositDigest(uint32_t variant, uint64_t digest) const;

  const uint32_t tid_;
  MonitorShared* const shared_;

  // Round counters for this thread set (relaxed; one Count per round by the
  // opener/leader, aggregated into MveeReport at the end of the run).
  AtomicSyscallCounters counters_;

  // Lockstep slab state.
  std::vector<RoundSlab> slabs_;
  std::vector<VariantCursor> cursors_;
  ParkingSpot park_;

  // Per-variant heartbeat / deposit-window flags.
  std::vector<ProgressSlot> progress_;

  // Loose mode: one ring + record pool per thread set; consumer v-1 belongs
  // to variant v.
  std::unique_ptr<BroadcastRing<LooseRecord*>> loose_ring_;
  std::vector<LooseRecord> loose_pool_;
  uint64_t loose_pool_mask_ = 0;
};

}  // namespace mvee

#endif  // MVEE_MONITOR_THREAD_SET_H_
