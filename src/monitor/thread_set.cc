#include "mvee/monitor/thread_set.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstring>
#include <optional>
#include <sstream>
#include <thread>

#include "mvee/util/fault_injection.h"
#include "mvee/util/spin.h"
#include "mvee/util/variant_killed.h"

namespace mvee {

namespace {

// Spin budget before a slab waiter parks: deep into SpinWait's yield phase
// (which starts at 64 pauses) but before its 50us-sleep tail. A wait that a
// few hundred yields did not resolve is blocked on real work, and sleep
// polling burns more context switches than one parked futex wait.
constexpr uint64_t kParkAfterSpins = 1024;
// Parked-wait slice: long enough that idle thread sets cost ~nothing, short
// enough that even a (theoretically impossible, see util/park.h) lost wakeup
// only delays a round by half a millisecond.
constexpr auto kParkSlice = std::chrono::microseconds(500);

// Set once a crash fault fired on this variant thread; every later syscall
// of the thread unwinds again.
thread_local bool t_crashed = false;

// "No single outlier" sentinel for the live lockstep comparisons.
constexpr uint32_t kNoOutlier = ~0u;

// XOR mask the corrupt-digest fault applies to a victim's deposited digest.
constexpr uint64_t kDigestCorruption = 0xBADD16E57ull;

}  // namespace

ThreadSetMonitor::ThreadSetMonitor(uint32_t tid, MonitorShared* shared)
    : tid_(tid), shared_(shared) {
  const uint32_t n = shared_->options->num_variants;
  // Round slabs: slab i starts serving round i; the last drainer of round r
  // re-arms its slab for round r + depth.
  slabs_ = std::vector<RoundSlab>(kSlabRingDepth);
  for (uint32_t i = 0; i < kSlabRingDepth; ++i) {
    slabs_[i].epoch.store(i, std::memory_order_relaxed);
    // Direct-construct: the slot's diagnostic sysno mirror makes ArrivalSlot
    // non-movable, so resize() (which relocates) is unavailable.
    slabs_[i].slots = std::vector<ArrivalSlot>(n);
  }
  cursors_ = std::vector<VariantCursor>(n);
  progress_ = std::vector<ProgressSlot>(n);
  if (shared_->options->sync_model == SyncModel::kLoose) {
    // Ring depth = how far the leader may run ahead (§2 reliability model).
    size_t depth = 2;
    while (depth < shared_->options->loose_buffer_depth) {
      depth <<= 1;
    }
    loose_ring_ = std::make_unique<BroadcastRing<LooseRecord*>>(depth);
    loose_pool_ = std::vector<LooseRecord>(depth);
    loose_pool_mask_ = depth - 1;
    for (uint32_t v = 1; v < n; ++v) {
      loose_ring_->RegisterConsumer();
      // A variant already dead at construction (mid-run thread spawn after
      // an excision) must not back-pressure the leader.
      if (shared_->reporter != nullptr && shared_->reporter->VariantDead(v)) {
        loose_ring_->DetachConsumer(v - 1);
      }
    }
  }
}

std::string ThreadSetMonitor::DebugString() {
  std::ostringstream out;
  out << "tid=" << tid_;
  if (shared_->options->sync_model == SyncModel::kLoose) {
    if (loose_ring_ != nullptr) {
      out << " loose write=" << loose_ring_->WriteCursor();
      for (uint32_t v = 1; v < shared_->options->num_variants; ++v) {
        out << " v" << v << "=" << loose_ring_->ReadCursor(v - 1)
            << (loose_ring_->ConsumerDetached(v - 1) ? "(detached)" : "");
      }
    }
    return out.str();
  }
  // Diagnostics read only atomics (epochs, phases, bitmaps and the slots'
  // mirrored sysnos) — never the deposited request pointers, which point at
  // variant stacks and may already be retired. The slab with the lowest
  // epoch serves the oldest in-flight round: that is where a stuck
  // rendezvous is parked.
  const RoundSlab* oldest = &slabs_[0];
  for (const RoundSlab& slab : slabs_) {
    if (slab.epoch.load(std::memory_order_relaxed) <
        oldest->epoch.load(std::memory_order_relaxed)) {
      oldest = &slab;
    }
  }
  const uint32_t arrivals = oldest->arrivals.load(std::memory_order_acquire);
  out << " round=" << oldest->epoch.load(std::memory_order_relaxed)
      << " phase=" << oldest->phase.load(std::memory_order_relaxed)
      << " arrived=" << std::popcount(arrivals) << "/"
      << shared_->options->num_variants << " drained="
      << std::popcount(oldest->drained.load(std::memory_order_relaxed))
      << " parked=" << park_.parked();
  for (size_t v = 0; v < oldest->slots.size(); ++v) {
    if ((arrivals & (1u << v)) != 0) {
      out << " v" << v << "="
          << SysnoName(oldest->slots[v].sysno.load(std::memory_order_relaxed));
    }
  }
  return out.str();
}

void ThreadSetMonitor::NotifyShutdown() {
  // Slab waiters re-check reporter->tripped() on every spin step; this only
  // needs to lift the parked ones out of their slice sleeps.
  park_.WakeParked();
}

void ThreadSetMonitor::OnVariantExcised(uint32_t variant) {
  // Gather loops re-check the live mask on every spin step; this lifts
  // parked waiters so they re-evaluate now, not at the end of their park
  // slice.
  park_.WakeParked();
  if (loose_ring_ != nullptr && variant >= 1 &&
      variant < shared_->options->num_variants) {
    // The dead follower's cursor must stop gating the leader's pushes.
    loose_ring_->DetachConsumer(variant - 1);
  }
}

ThreadSetMonitor::CallProgress ThreadSetMonitor::Progress(uint32_t variant) const {
  CallProgress out;
  if (variant >= progress_.size()) {
    return out;
  }
  const ProgressSlot& slot = progress_[variant];
  out.seq = slot.seq.load(std::memory_order_relaxed);
  out.sysno = slot.sysno.load(std::memory_order_relaxed);
  out.in_call = (out.seq & 1) != 0;
  out.in_master = slot.in_master.load(std::memory_order_relaxed);
  return out;
}

bool ThreadSetMonitor::MustCompare(const SyscallRequest& request) const {
  switch (shared_->options->policy) {
    case MonitorPolicy::kLockstepAll:
      return true;
    case MonitorPolicy::kLockstepSensitive:
      return SensitivityOf(request.sysno) == SyscallSensitivity::kSensitive;
  }
  return true;
}

uint64_t ThreadSetMonitor::DepositDigest(uint32_t variant, uint64_t digest) const {
  if (FaultInjector::Global().ShouldFire(FaultSite::kCorruptDigest, variant))
      [[unlikely]] {
    digest ^= kDigestCorruption;
  }
  return digest;
}

std::string ThreadSetMonitor::CompareSlabRoundLive(const RoundSlab& slab, uint32_t members,
                                                   uint32_t* outlier) const {
  if ((members & 1u) == 0 || !MustCompare(*slab.slots[0].request)) {
    return "";
  }
  const ArrivalSlot& master = slab.slots[0];
  uint32_t mismatched = 0;
  uint32_t rest = members & ~1u;
  while (rest != 0) {
    const uint32_t v = static_cast<uint32_t>(std::countr_zero(rest));
    rest &= rest - 1;
    // Scalars through the deposited digests, then the payload bytes in place
    // (sizes first): every member's frame is held until kRoundMasterDone.
    const ArrivalSlot& slot = slab.slots[v];
    if (slot.request->sysno != master.request->sysno || slot.digest != master.digest ||
        !slot.request->SamePayload(*master.request)) {
      mismatched |= 1u << v;
    }
  }
  if (mismatched == 0) {
    return "";
  }
  const uint32_t first = static_cast<uint32_t>(std::countr_zero(mismatched));
  const SyscallRequest& base = *master.request;
  const SyscallRequest& other = *slab.slots[first].request;
  std::ostringstream detail;
  if (other.sysno != base.sysno) {
    detail << "thread " << tid_ << ": syscall number mismatch: " << base.ToString()
           << " (variant 0) vs " << other.ToString() << " (variant " << first << ")";
  } else {
    // Every compared field agreeing means only the deposited digest differs
    // (the corrupt-digest fault site).
    std::string field = base.FirstComparedDifference(other);
    if (field.empty()) {
      field = "digest";
    }
    detail << "thread " << tid_ << ": argument mismatch (" << field << ") on "
           << base.ToString() << " (variant 0) vs " << other.ToString() << " (variant "
           << first << ")";
  }
  if (std::popcount(mismatched) == 1) {
    *outlier = first;
  } else {
    detail << " (+" << std::popcount(mismatched) - 1
           << " more variants diverged; multi-way divergence is never excised)";
  }
  return detail.str();
}

void ThreadSetMonitor::RouteSignals(const SyscallRequest& request, std::vector<int32_t>* out) {
  const bool is_kill = request.sysno == Sysno::kKill;
  // The exit round must take the lock even when nothing is pending: it
  // records this tid as gone so later kills aimed at it are dropped instead
  // of inflating pending_signal_count forever (once per thread, cold).
  const bool is_exit =
      request.sysno == Sysno::kExit || request.sysno == Sysno::kExitGroup;
  // Happy path: not a kill or exit, nothing pending anywhere — skip the
  // global mutex. A signal enqueued concurrently simply latches at this
  // thread set's next rendezvous (async delivery has no earlier deadline).
  if (!is_kill && !is_exit &&
      shared_->pending_signal_count.load(std::memory_order_acquire) == 0) {
    out->clear();
    return;
  }
  std::lock_guard<std::mutex> lock(shared_->signal_mutex);
  if (is_kill) {
    const auto target = static_cast<uint32_t>(request.arg0);
    // A kill aimed at an exited thread set has no future latch point; the
    // round decision happens once (opener/leader), so the drop is identical
    // in every variant.
    if (shared_->exited_tids.count(target) == 0) {
      shared_->pending_signals[target].push_back(static_cast<int32_t>(request.arg1));
      shared_->pending_signal_count.fetch_add(1, std::memory_order_release);
    }
  }
  if (is_exit) {
    shared_->exited_tids.insert(tid_);
  }
  auto pending = shared_->pending_signals.find(tid_);
  if (pending != shared_->pending_signals.end() && !pending->second.empty()) {
    out->assign(pending->second.begin(), pending->second.end());
    shared_->pending_signal_count.fetch_sub(pending->second.size(),
                                            std::memory_order_release);
    pending->second.clear();
  } else {
    out->clear();
  }
}

// Executes `request` in the ordering critical section of `domain`, stamping
// the (domain, timestamp) pair slaves replay against. `execute` performs the
// actual kernel call and returns its result.
template <typename ExecuteFn>
static SyscallResult StampOrdered(OrderDomain* domain, ExecuteFn&& execute) {
  std::lock_guard<std::mutex> order_lock(domain->mutex);
  SyscallResult result = execute();
  result.order_timestamp = domain->next_ts++;
  result.order_domain = domain->id;
  result.order_domain_hint = domain;
  return result;
}


SyscallResult ThreadSetMonitor::ExecuteMaster(SyscallRequest& request, SyscallClass klass,
                                              int64_t control_retval) {
  ProcessState& process = *shared_->processes[0];
  switch (klass) {
    case SyscallClass::kReplicated: {
      const bool ordering = shared_->options->order_resource_calls;
      // Descriptor-allocating replicated calls need their fd-table effect
      // ordered against the ordered open/close stream, or slave fd numbering
      // drifts: both stamp in the fd-namespace domain. sys_accept blocks, so
      // only its *allocation half* enters the critical section (two-phase
      // accept) — the §4.1 invariant (blocking never ordered) is preserved
      // because AcceptBlocking runs before any lock is taken; sys_socket is
      // non-blocking and runs entirely inside.
      if (ordering && request.sysno == Sysno::kAccept) {
        int64_t error = 0;
        auto conn = shared_->kernel->AcceptBlocking(process,
                                                    static_cast<int32_t>(request.arg0), &error);
        if (conn == nullptr) {
          SyscallResult result;
          result.retval = error;
          return result;
        }
        OrderDomain* domain =
            shared_->order_domains->FindOrCreate(OrderDomainIds::kFdNamespace);
        return StampOrdered(domain, [&] {
          SyscallResult result;
          result.retval = shared_->kernel->FinishAccept(process, std::move(conn));
          return result;
        });
      }
      if (ordering && request.sysno == Sysno::kSocket) {
        OrderDomain* domain =
            shared_->order_domains->FindOrCreate(OrderDomainIds::kFdNamespace);
        return StampOrdered(domain,
                            [&] { return shared_->kernel->Execute(process, request); });
      }
      // May block (I/O, futex). No ordering-clock critical section is held,
      // which is exactly why blocking calls must be in this class (§4.1
      // Limitations).
      return shared_->kernel->Execute(process, request);
    }

    case SyscallClass::kOrdered: {
      if (!shared_->options->order_resource_calls) {
        return shared_->kernel->Execute(process, request);
      }
      // Lamport timestamp under the resource domain's critical section:
      // conflicting calls replay in true execution order (§4.1), while calls
      // on disjoint resources do not serialize against each other
      // (docs/syscall_ordering.md).
      OrderDomain* domain = shared_->order_domains->FindOrCreate(
          shared_->kernel->OrderDomainOf(process, request));
      uint32_t retire_id = OrderDomainIds::kNone;
      SyscallResult result = StampOrdered(domain, [&] {
        // A close tears down its descriptor's per-fd domain; resolve the
        // victim inside the fd-namespace critical section (closes are
        // serialized here, so a racing double-close cannot retire a stale
        // id for a descriptor number that was already reused) and before
        // Execute frees the entry.
        if (request.sysno == Sysno::kClose) {
          retire_id = process.fds().OrderDomainOf(static_cast<int32_t>(request.arg0));
        }
        return shared_->kernel->Execute(process, request);
      });
      if (result.retval == 0 && retire_id != OrderDomainIds::kNone) {
        shared_->order_domains->Retire(retire_id);
      }
      return result;
    }

    case SyscallClass::kLocal:
      return shared_->kernel->Execute(process, request);

    case SyscallClass::kControl: {
      SyscallResult result;
      switch (request.sysno) {
        case Sysno::kMveeSelfAware:
          result.retval = 0;  // Master's variant index.
          break;
        case Sysno::kClone:
          result.retval = control_retval;
          break;
        default:
          result.retval = 0;
          break;
      }
      return result;
    }
  }
  return SyscallResult{};
}

std::atomic<uint64_t>& ThreadSetMonitor::SlaveClockFor(uint32_t variant,
                                                       const SyscallResult& master) {
  // The master stamps a direct domain pointer (stable until end-of-run
  // reclamation) so the replay hot path skips the table lookup.
  auto* domain = static_cast<OrderDomain*>(master.order_domain_hint);
  if (domain == nullptr) {
    domain = shared_->order_domains->FindOrCreate(master.order_domain);
  }
  return domain->SlaveClock(variant);
}

void ThreadSetMonitor::AwaitOrderClock(std::atomic<uint64_t>& clock, uint64_t want,
                                       uint32_t variant, const SyscallRequest& request,
                                       const char* what) {
  SpinWait waiter;
  DeadlineGate deadline(shared_->options->rendezvous_timeout);
  DivergenceReporter* reporter = shared_->reporter;
  while (clock.load(std::memory_order_acquire) != want) {
    if (reporter->tripped()) {
      throw VariantKilled{};
    }
    if (reporter->VariantDead(variant)) {
      // Excised (possibly from another thread set): this clock may never
      // advance again — its producers are this variant's own threads, which
      // are unwinding. Leave without a report; the caller drains the round.
      throw VariantKilled{};
    }
    if (deadline.Expired(waiter)) {
      // A stall here is the variant's own fault: the clock is advanced only
      // by this variant's sibling threads (docs/syscall_ordering.md), so the
      // variant as a whole is the stalled party.
      std::ostringstream detail;
      detail << "thread " << tid_ << ": ordering clock stall in variant " << variant
             << " on " << SysnoName(request.sysno) << " (at " << clock.load() << ", want "
             << want << ") " << what << " " << request.ToString();
      shared_->reporter->ReportVariantFailure(variant, StatusCode::kTimeout, detail.str());
      throw VariantKilled{};
    }
    waiter.Pause();
  }
}

int64_t ThreadSetMonitor::ExecuteSlave(uint32_t variant, SyscallRequest& request,
                                       SyscallClass klass, const SyscallResult& master,
                                       int64_t control_retval) {
  // Runs outside any round lock; reporting from here is safe.
  ProcessState& process = *shared_->processes[variant];
  switch (klass) {
    case SyscallClass::kReplicated: {
      // Copy only what this slave will consume: the payload prefix that fits
      // its own out buffer, straight from the master's pooled bytes.
      if (!master.out_payload.empty() && !request.out_data.empty()) {
        const size_t count = std::min(master.out_payload.size(), request.out_data.size());
        std::memcpy(request.out_data.data(), master.out_payload.data(), count);
      }
      // Shadow-fd installation must land at the same point of this variant's
      // ordered-call stream as the master's allocation did (see
      // ExecuteMaster's two-phase accept).
      const bool fd_allocating =
          request.sysno == Sysno::kAccept || request.sysno == Sysno::kSocket;
      if (fd_allocating && shared_->options->order_resource_calls && master.retval >= 0) {
        auto& clock = SlaveClockFor(variant, master);
        const uint64_t want = master.order_timestamp;
        AwaitOrderClock(clock, want, variant, request, "applying shadow fd for");
        const int64_t check = shared_->kernel->ApplyReplicatedEffect(process, request, master);
        clock.store(want + 1, std::memory_order_release);
        if (check != master.retval) {
          std::ostringstream detail;
          detail << "thread " << tid_ << ": shadow fd mismatch on " << SysnoName(request.sysno)
                 << ": master " << master.retval << " vs variant " << variant << " fd "
                 << check;
          shared_->reporter->ReportVariantFailure(variant, StatusCode::kDivergence,
                                                  detail.str());
          throw VariantKilled{};
        }
        return master.retval;
      }
      const int64_t check = shared_->kernel->ApplyReplicatedEffect(process, request, master);
      if (fd_allocating && master.retval >= 0 && check != master.retval) {
        std::ostringstream detail;
        detail << "thread " << tid_ << ": shadow fd mismatch on " << SysnoName(request.sysno)
               << ": master " << master.retval << " vs variant " << variant << " fd " << check;
        shared_->reporter->ReportVariantFailure(variant, StatusCode::kDivergence,
                                                detail.str());
        throw VariantKilled{};
      }
      return master.retval;
    }

    case SyscallClass::kOrdered: {
      if (request.sysno == Sysno::kOpen) {
        // Every variant opens the one shared VFS file: the master's
        // execution already truncated it, and a slave truncating again
        // would wipe what the master (or, in loose mode, the leader's later
        // writes) put there since. Slaves only install the descriptor.
        request.arg0 &= ~VOpenFlags::kTruncate;
      }
      if (shared_->options->order_resource_calls) {
        // Spin until this variant's private clock for the stamped domain
        // reaches the recorded timestamp (§4.1). Replays of calls on disjoint
        // domains proceed in parallel.
        auto& clock = SlaveClockFor(variant, master);
        const uint64_t want = master.order_timestamp;
        AwaitOrderClock(clock, want, variant, request, "for");
        const int64_t retval = shared_->kernel->Execute(process, request).retval;
        clock.store(want + 1, std::memory_order_release);
        return retval;
      }
      return shared_->kernel->Execute(process, request).retval;
    }

    case SyscallClass::kLocal:
      return shared_->kernel->Execute(process, request).retval;

    case SyscallClass::kControl:
      switch (request.sysno) {
        case Sysno::kMveeSelfAware:
          return variant;
        case Sysno::kClone:
          return control_retval;
        default:
          return 0;
      }
  }
  return -1;
}

int64_t ThreadSetMonitor::RunSyscallLoose(uint32_t variant, SyscallRequest& request,
                                          std::vector<int32_t>* delivered_signals) {
  const SyscallClass klass = ClassOf(request.sysno);
  DivergenceReporter* reporter = shared_->reporter;

  if (variant == 0) {
    // Leader: execute immediately into a pooled record, deposit it, never
    // wait for the followers (except for ring backpressure). The slot is
    // claimed BEFORE it is written: CanPush proves every follower has
    // advanced past this sequence, so recycling the pooled record cannot
    // race a straggling reader.
    SpinWait waiter;
    std::optional<DeadlineGate> deadline;
    deadline.emplace(shared_->options->rendezvous_timeout);
    while (!loose_ring_->CanPush()) {
      if (reporter->tripped()) {
        throw VariantKilled{};
      }
      if (deadline->Expired(waiter)) {
        // Backpressure deadline: some follower stopped consuming. Name the
        // one furthest behind and excise it (docs/DESIGN.md §9); its
        // detached cursor stops gating pushes. Fatal under kShutdown.
        const uint64_t tail = loose_ring_->WriteCursor();
        uint32_t laggard = 0;
        uint64_t worst = 0;
        for (uint32_t v = 1; v < shared_->options->num_variants; ++v) {
          if (loose_ring_->ConsumerDetached(v - 1) || reporter->VariantDead(v)) {
            continue;
          }
          const uint64_t lag = tail - loose_ring_->ReadCursor(v - 1);
          if (lag >= worst) {
            worst = lag;
            laggard = v;
          }
        }
        if (laggard != 0) {
          std::ostringstream detail;
          detail << "thread " << tid_ << ": loose follower stall: variant " << laggard
                 << " is " << worst << " records behind the leader at "
                 << SysnoName(request.sysno) << " " << request.ToString();
          if (!reporter->ReportVariantFailure(laggard, StatusCode::kTimeout, detail.str())) {
            throw VariantKilled{};
          }
        }
        deadline.emplace(shared_->options->rendezvous_timeout);
        waiter.Reset();
      }
      waiter.Pause();
    }
    LooseRecord& record = loose_pool_[loose_ring_->WriteCursor() & loose_pool_mask_];
    record.signals.clear();
    record.payload.Clear();
    record.result = SyscallResult{};
    record.sysno = request.sysno;
    record.digest = request.ComparableDigest();
    record.control_retval = request.sysno == Sysno::kClone
                                ? shared_->next_tid.fetch_add(1, std::memory_order_relaxed)
                                : 0;
    counters_.Count(klass);
    // The leader's delivery point becomes everyone's: followers replay the
    // handler at the same record index.
    RouteSignals(request, &record.signals);
    if (delivered_signals != nullptr) {
      *delivered_signals = record.signals;
    }
    request.payload_pool = &record.payload;
    progress_[variant].in_master.store(true, std::memory_order_relaxed);
    record.result = ExecuteMaster(request, klass, record.control_retval);
    progress_[variant].in_master.store(false, std::memory_order_relaxed);
    const int64_t retval =
        klass == SyscallClass::kControl ? record.control_retval : record.result.retval;
    // Fault site (docs/fault_injection.md, delay-publish): hold the record
    // back before it becomes visible to the followers. Followers tolerate
    // any bounded delay — their deadline only starts counting while the
    // ring stays empty past it.
    uint64_t delay_ms = 0;
    if (FaultInjector::Global().ShouldFire(FaultSite::kDelayRingPublish, variant, &delay_ms))
        [[unlikely]] {
      std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms != 0 ? delay_ms : 1));
    }
    const bool pushed = loose_ring_->TryPush(&record);
    (void)pushed;  // CanPush held and there is a single producer.
    if (request.sysno == Sysno::kMveeSelfAware) {
      return 0;
    }
    return retval;
  }

  // Follower: consume the leader's next record for this thread set and
  // verify it matches this variant's call — asynchronously, possibly long
  // after the leader performed it.
  const size_t consumer = variant - 1;
  LooseRecord* record = nullptr;
  SpinWait waiter;
  // Two windows, not one: the leader itself may legitimately sit out a full
  // rendezvous_timeout blocked on ring backpressure before it excises the
  // laggard holding the ring, and this follower must not declare the leader
  // starved in the meantime. A mid-wait excision resets the budget — the
  // leader just resolved exactly the stall we were riding out.
  const uint32_t full = (1u << shared_->options->num_variants) - 1;
  uint32_t live_at_wait = reporter->live_mask() & full;
  std::optional<DeadlineGate> deadline;
  deadline.emplace(2 * shared_->options->rendezvous_timeout);
  while (!loose_ring_->Peek(consumer, 0, &record)) {
    if (reporter->tripped()) {
      throw VariantKilled{};
    }
    if (reporter->VariantDead(variant)) {
      throw VariantKilled{};
    }
    const uint32_t live_now = reporter->live_mask() & full;
    if (live_now != live_at_wait) {
      live_at_wait = live_now;
      deadline.emplace(2 * shared_->options->rendezvous_timeout);
      waiter.Reset();
      continue;
    }
    if (deadline->Expired(waiter)) {
      // The leader (the master) stopped producing; master failure is never
      // excisable, so this escalates to shutdown.
      std::ostringstream detail;
      detail << "thread " << tid_ << ": loose follower starved: leader (variant 0) "
             << "produced no record for variant " << variant << " waiting at "
             << SysnoName(request.sysno) << " " << request.ToString();
      reporter->ReportVariantFailure(0, StatusCode::kTimeout, detail.str());
      throw VariantKilled{};
    }
    waiter.Pause();
  }
  // The cursor must advance only after the record's last use: the slot (and
  // its pooled payload) is recycled by the leader once every consumer has
  // passed it. Advancing on the unwind path too is safe — a thrown
  // VariantKilled means this variant (or the whole MVEE) is done consuming.
  struct SlotGuard {
    BroadcastRing<LooseRecord*>* ring;
    size_t consumer;
    ~SlotGuard() { ring->Advance(consumer); }
  } guard{loose_ring_.get(), consumer};

  if (delivered_signals != nullptr) {
    *delivered_signals = record->signals;
  }

  if (record->sysno != request.sysno) {
    reporter->ReportVariantFailure(
        variant, StatusCode::kDivergence,
        "thread " + std::to_string(tid_) + ": loose-mode syscall mismatch: leader " +
            SysnoName(record->sysno) + " vs follower (variant " + std::to_string(variant) +
            ") " + request.ToString());
    throw VariantKilled{};
  }
  if (MustCompare(request) &&
      record->digest != DepositDigest(variant, request.ComparableDigest())) {
    reporter->ReportVariantFailure(
        variant, StatusCode::kDivergence,
        "thread " + std::to_string(tid_) + ": loose-mode argument mismatch on " +
            request.ToString() + " (follower variant " + std::to_string(variant) + ")");
    throw VariantKilled{};
  }
  if (klass == SyscallClass::kControl) {
    // Handle control calls from the record directly: the record's control
    // result was fixed by the leader at deposit time.
    switch (request.sysno) {
      case Sysno::kMveeSelfAware:
        return variant;
      case Sysno::kClone:
        return record->control_retval;
      default:
        return 0;
    }
  }
  return ExecuteSlave(variant, request, klass, record->result, record->control_retval);
}

template <typename Predicate>
bool ThreadSetMonitor::AwaitSlabState(Predicate&& ready, bool timed) {
  SpinWait waiter;
  DeadlineGate deadline(shared_->options->rendezvous_timeout);
  DivergenceReporter* reporter = shared_->reporter;
  for (;;) {
    if (ready(waiter.Spinning())) {
      return true;
    }
    if (reporter->tripped()) {
      throw VariantKilled{};
    }
    if (waiter.spins() < kParkAfterSpins) {
      // The PAUSE phase (nanoseconds per step) stays deadline-blind;
      // from the first yield on every step is already a syscall, so a clock
      // read per step costs comparatively nothing — and on an oversubscribed
      // host a yield can take milliseconds, so sparser checks would let the
      // deadline slip far past its budget (and let a late-arriving sibling
      // turn a timeout verdict into a bogus divergence).
      if (timed && !waiter.Spinning() && deadline.ExpiredNow()) {
        return false;
      }
      waiter.Pause();
      continue;
    }
    // Spin budget exhausted: futex-style parked wait. BeginPark / re-check /
    // WaitTicket is the lost-wakeup-free discipline documented in
    // util/park.h; publishers WakeParked after every phase/epoch store.
    park_.BeginPark();
    const uint64_t ticket = park_.Ticket();
    if (ready(false) || reporter->tripped()) {
      park_.EndPark();
      continue;
    }
    park_.WaitTicket(ticket, kParkSlice);
    park_.EndPark();
    // Re-check readiness before the deadline: a round that completed right
    // at the wire must win over a just-expired budget, as on the spin path.
    if (ready(false)) {
      return true;
    }
    if (timed && deadline.ExpiredNow()) {
      return false;
    }
  }
}

bool ThreadSetMonitor::SlabGatherComplete(const RoundSlab& slab) const {
  const uint32_t full = (1u << shared_->options->num_variants) - 1;
  const uint32_t live = shared_->reporter->live_mask() & full;
  return (slab.arrivals.load(std::memory_order_seq_cst) & live) == live;
}

void ThreadSetMonitor::ExciseMissingSlab(RoundSlab& slab, uint64_t round, uint32_t variant,
                                         uint32_t live_at_wait, uint32_t* deferred_missing,
                                         const SyscallRequest& request) {
  DivergenceReporter* reporter = shared_->reporter;
  const uint32_t full = (1u << shared_->options->num_variants) - 1;
  // A waiter that was itself excised mid-round passes no verdicts: its live
  // siblings are still progressing, the round will open without it, and the
  // membership check unwinds it (the guard drains its arrival). Reporting
  // from here would let a dead variant shut the survivors down.
  if (reporter->VariantDead(variant)) {
    return;
  }
  const uint32_t live = reporter->live_mask() & full;
  if (live != live_at_wait) {
    // Membership changed while we waited: the stragglers were likely stalled
    // behind that same excision's recovery (e.g. a replay chain threaded
    // through the dead variant's rendezvous elsewhere). Grant them a fresh
    // window and forget any deferred verdict.
    *deferred_missing = 0;
    return;
  }
  const uint32_t missing = live & ~slab.arrivals.load(std::memory_order_seq_cst);
  if (missing == 0) {
    *deferred_missing = 0;
    return;  // resolved at the wire
  }
  // Escalation asymmetry (docs/DESIGN.md §9): a sole missing SLAVE is the
  // unambiguous signature of the thread set where the failure actually
  // happened — every other variant arrived here, so nothing upstream can
  // explain the absence — and is excised after one quiet window. Anything
  // else (several variants missing, or the master among them) is ambiguous:
  // the stragglers may merely sit behind the true failure's rendezvous or
  // replay chain on ANOTHER thread set, whose waiters see the singleton and
  // excise the culprit first. Those waiters defer one window; escalating
  // needs the same missing set to survive two consecutive full windows.
  const bool sole_missing_slave = std::popcount(missing) == 1 && (missing & 1u) == 0;
  if (!sole_missing_slave && missing != *deferred_missing) {
    *deferred_missing = missing;
    return;
  }
  *deferred_missing = 0;
  uint32_t pending = missing;
  bool excised_any = false;
  bool master_missing = false;
  while (pending != 0) {
    const uint32_t m = static_cast<uint32_t>(std::countr_zero(pending));
    pending &= pending - 1;
    if (m == 0) {
      // Even now, the master goes last: it is only declared stuck when no
      // excisable laggard could explain the stall.
      master_missing = true;
      continue;
    }
    std::ostringstream detail;
    detail << "thread " << tid_ << ": lockstep rendezvous timeout: variant " << m
           << " never arrived at round " << round << " (variant " << variant
           << " waiting on " << SysnoName(request.sysno) << " " << request.ToString() << ")";
    if (!reporter->ReportVariantFailure(m, StatusCode::kTimeout, detail.str(), round)) {
      throw VariantKilled{};
    }
    excised_any = true;
  }
  if (master_missing && !excised_any) {
    std::ostringstream detail;
    detail << "thread " << tid_ << ": lockstep rendezvous timeout: variant 0"
           << " never arrived at round " << round << " (variant " << variant
           << " waiting on " << SysnoName(request.sysno) << " " << request.ToString() << ")";
    // Variant 0 is never excisable: this files the fatal report.
    reporter->ReportVariantFailure(0, StatusCode::kTimeout, detail.str(), round);
    throw VariantKilled{};
  }
}

bool ThreadSetMonitor::TryOpenSlabRound(RoundSlab& slab, uint64_t round, SyscallClass klass,
                                        uint32_t variant) {
  DivergenceReporter* reporter = shared_->reporter;
  if (slab.open_claim.load(std::memory_order_relaxed) != 0) {
    return false;
  }
  const uint32_t full = (1u << shared_->options->num_variants) - 1;
  SpinWait resolve;
  for (;;) {
    const uint32_t live = reporter->live_mask() & full;
    const uint32_t arrivals = slab.arrivals.load(std::memory_order_seq_cst);
    if ((arrivals & live) != live) {
      return false;
    }
    // Every live variant arrived. A dead variant may still be inside its
    // deposit window: wait those few stores out so the arrival set is frozen
    // before membership is fixed. The Dekker pairing — depositor stores
    // `gathering` then loads the live mask, we (after the mask store became
    // visible) load `gathering` — guarantees that once every dead variant's
    // flag reads false here, any deposit it starts later will see itself
    // dead and abort: no arrival bit can land after this loop exits clean
    // (docs/DESIGN.md §9).
    bool unresolved = false;
    uint32_t pending = full & ~arrivals & ~live;
    while (pending != 0) {
      const uint32_t v = static_cast<uint32_t>(std::countr_zero(pending));
      pending &= pending - 1;
      if (progress_[v].gathering.load(std::memory_order_seq_cst)) {
        unresolved = true;
      }
    }
    if (!unresolved) {
      break;
    }
    if (reporter->tripped()) {
      throw VariantKilled{};
    }
    resolve.Pause();
  }
  uint32_t expect = 0;
  if (!slab.open_claim.compare_exchange_strong(expect, RoundSlab::kOpenerClaim,
                                               std::memory_order_acq_rel)) {
    return false;
  }
  // Identify the combiner before the first deposited-request dereference:
  // HoldFrameForCombiner keys an unwinding arrival's wait on this.
  slab.executor.store(variant, std::memory_order_release);

  // ---- Opener. The arrival set is frozen; sample membership fresh so a
  // variant excised between the completeness check and the claim already
  // drops out of this round (it drains without executing).
  uint32_t members =
      reporter->live_mask() & full & slab.arrivals.load(std::memory_order_seq_cst);
  uint32_t outlier = kNoOutlier;
  const std::string mismatch = CompareSlabRoundLive(slab, members, &outlier);
  if (!mismatch.empty()) {
    bool excised = false;
    if (outlier != kNoOutlier) {
      excised =
          reporter->ReportVariantFailure(outlier, StatusCode::kDivergence, mismatch, round);
    } else {
      reporter->Report(StatusCode::kDivergence, mismatch);
    }
    if (!excised) {
      throw VariantKilled{};
    }
    members &= ~(1u << outlier);
  }
  slab.members = members;
  SyscallRequest& master_request = *slab.slots[0].request;
  // Control-call preprocessing shared by all variants.
  if (master_request.sysno == Sysno::kClone) {
    slab.control_retval = shared_->next_tid.fetch_add(1, std::memory_order_relaxed);
  }
  // Route signals exactly once per round: a kill enqueues for its target,
  // and anything pending for THIS thread set is latched so every variant
  // delivers at this same syscall boundary.
  RouteSignals(master_request, &slab.signals);
  counters_.Count(klass);
  if (reporter->excision_probe_armed()) [[unlikely]] {
    // First round to open after an excision: recovery is complete.
    reporter->CompleteExcisionProbe();
  }
  // Flat-combining master execution: the opener — whichever variant it
  // belongs to — performs the master call itself, against the MASTER's
  // deposited request (variant-local pointers: buffers, futex word,
  // local_addr) and the master's process state. The virtual kernel is
  // executor-agnostic, and combining saves the wake-the-master-then-wake-
  // the-slaves double handoff per round — on oversubscribed hosts that
  // halves the context switches. Membership, the latched signals and the
  // result (payload in the slab's pooled buffer) are published with one
  // release store; the others read them in place — no per-slave clone, no
  // allocation. Waiters stopped their rendezvous deadline when they saw the
  // claim, so a master call that blocks is no timeout. (Even an opener
  // excised as the digest outlier completes this duty before unwinding: its
  // thread is alive, and the survivors need the round.)
  slab.payload.Clear();
  master_request.payload_pool = &slab.payload;
  progress_[variant].in_master.store(true, std::memory_order_relaxed);
  slab.master_result = ExecuteMaster(master_request, klass, slab.control_retval);
  progress_[variant].in_master.store(false, std::memory_order_relaxed);
  slab.phase.store(kRoundMasterDone, std::memory_order_release);
  park_.WakeParked();
  return true;
}

void ThreadSetMonitor::HoldFrameForCombiner(RoundSlab& slab, uint32_t variant) {
  // How long a foreign thread may read slots[variant].request: the opener
  // compares every member's request (in_data bytes, and the fields a
  // divergence report names), then feeds the MASTER's request to
  // RouteSignals, the kClone check and the combined execution. Its one
  // publication, kRoundMasterDone, ends every hold.
  if (slab.phase.load(std::memory_order_acquire) >= kRoundMasterDone) {
    return;  // normal completion, or the round already left the window
  }
  if (shared_->reporter->tripped()) {
    // Whole-MVEE shutdown: try to take the open claim ourselves. Winning
    // poisons the round — no opener can ever claim it, so no thread will
    // dereference our frame, and every other arrival unwinds on tripped().
    uint32_t expect = 0;
    if (slab.open_claim.compare_exchange_strong(expect, RoundSlab::kPoisonedClaim,
                                                std::memory_order_acq_rel)) {
      return;
    }
  } else if (slab.open_claim.load(std::memory_order_acquire) == 0) {
    // Excised (not a shutdown) with no opener in flight: any future opener
    // samples members AFTER our VariantDead publication (we only unwind
    // once it is visible), so our slot is outside its compare set. The
    // round must stay openable for the survivors — do not poison it.
    return;
  }
  // An opener holds the claim. Wait until it publishes kRoundMasterDone,
  // or until it turns out to be us, or until it abandoned the round (its
  // drained bit set during unwind — after which it touches no slot). The
  // wait is bounded: blocking kernel calls are shutdown-interruptible
  // (ShutdownBlockedCalls), so the combiner always reaches one of these.
  // A poisoned claim ends the wait at once: the poisoner never sets the
  // executor or the phase, and no opener can claim the round after it. It
  // may land after our tripped() check above, so it is re-checked here.
  SpinWait waiter;
  for (;;) {
    if (slab.phase.load(std::memory_order_acquire) >= kRoundMasterDone ||
        slab.open_claim.load(std::memory_order_acquire) == RoundSlab::kPoisonedClaim) {
      return;
    }
    const uint32_t executor = slab.executor.load(std::memory_order_acquire);
    if (executor == variant) {
      return;  // we are the combiner; nobody else reads our frame
    }
    if (executor != RoundSlab::kNoExecutor &&
        (slab.drained.load(std::memory_order_acquire) & (1u << executor)) != 0) {
      return;
    }
    waiter.Pause();
  }
}

void ThreadSetMonitor::DrainSlab(RoundSlab& slab, uint64_t round, uint32_t self_bit) {
  const uint32_t prev = slab.drained.fetch_or(self_bit, std::memory_order_acq_rel);
  if ((prev & self_bit) != 0) {
    return;  // double-fire guard (unwind paths)
  }
  const uint32_t now = prev | self_bit;
  if (now != slab.arrivals.load(std::memory_order_seq_cst)) {
    return;
  }
  // Last drainer: every arrival's reads of the round state happened before
  // its drain fetch_or (acq_rel chain), and the arrival set has been frozen
  // since the round opened (deposit Dekker, docs/DESIGN.md §9), so exactly
  // one thread observes the completed bitmap and the plain resets are safe.
  for (auto& reset_slot : slab.slots) {
    reset_slot.request = nullptr;
    reset_slot.digest = 0;
  }
  slab.signals.clear();
  slab.master_result = SyscallResult{};
  slab.control_retval = 0;
  slab.members = 0;
  slab.arrivals.store(0, std::memory_order_relaxed);
  slab.drained.store(0, std::memory_order_relaxed);
  slab.open_claim.store(0, std::memory_order_relaxed);
  slab.executor.store(RoundSlab::kNoExecutor, std::memory_order_relaxed);
  slab.phase.store(kRoundGather, std::memory_order_relaxed);
  // Re-arm for round + depth; the release publishes all resets to the
  // next round's arrivers (their recycle gate acquires epoch).
  slab.epoch.store(round + kSlabRingDepth, std::memory_order_release);
  park_.WakeParked();
}

int64_t ThreadSetMonitor::RunSyscallSlab(uint32_t variant, SyscallRequest& request,
                                         std::vector<int32_t>* delivered_signals) {
  const SyscallClass klass = ClassOf(request.sysno);
  DivergenceReporter* reporter = shared_->reporter;

  // This variant's position in the round sequence is private state: exactly
  // one thread per variant serves a thread set, so no atomics are needed.
  const uint64_t round = cursors_[variant].next_round++;
  RoundSlab& slab = slabs_[round & kSlabRingMask];
  const uint32_t self_bit = 1u << variant;

  // 1. Recycle gate: the slab serves round `round` only once the last
  //    drainer of round `round - depth` re-armed it (release store on
  //    epoch). In steady state this is a single acquire load. An excised
  //    variant parked here (its siblings moved on without it) unwinds.
  if (!AwaitSlabState(
          [&](bool) {
            return slab.epoch.load(std::memory_order_acquire) == round ||
                   reporter->VariantDead(variant);
          },
          /*timed=*/true)) {
    std::ostringstream detail;
    detail << "thread " << tid_ << ": round " << round
           << " slab never recycled for variant " << variant << " waiting on "
           << SysnoName(request.sysno) << " " << request.ToString()
           << " (stale arrivals=0x" << std::hex
           << slab.arrivals.load(std::memory_order_relaxed) << " drained=0x"
           << slab.drained.load(std::memory_order_relaxed) << std::dec << ")";
    reporter->Report(StatusCode::kTimeout, detail.str());
    throw VariantKilled{};
  }
  if (reporter->VariantDead(variant)) {
    throw VariantKilled{};
  }

  // 2. Deposit + arrive, bracketed by the gathering flag: the seq_cst
  //    store/dead-load here against TryOpenSlabRound's mask-load/gathering-
  //    load pins down that by the time a round opens, a dying variant's
  //    arrival bit has either landed (it joins the drain accounting) or can
  //    never land (docs/DESIGN.md §9). The acq_rel fetch_or makes every
  //    earlier arriver's plain slot writes visible to the opener.
  progress_[variant].gathering.store(true, std::memory_order_seq_cst);
  if (reporter->VariantDead(variant)) {
    progress_[variant].gathering.store(false, std::memory_order_seq_cst);
    throw VariantKilled{};
  }
  ArrivalSlot& slot = slab.slots[variant];
  slot.request = &request;
  slot.digest = DepositDigest(variant, request.ScalarDigest());
  slot.sysno.store(request.sysno, std::memory_order_relaxed);
  slab.arrivals.fetch_or(self_bit, std::memory_order_acq_rel);
  progress_[variant].gathering.store(false, std::memory_order_seq_cst);

  // From here on this thread is part of the round's drain accounting: every
  // exit — completion, excision, shutdown — must drain, or the slab never
  // recycles for the survivors. (A pre-open exceptional drain can only
  // happen on a fatal trip, where recycling no longer matters.)
  struct DrainGuard {
    ThreadSetMonitor* self;
    RoundSlab* slab;
    uint64_t round;
    uint32_t bit;
    uint32_t variant;
    ~DrainGuard() {
      // Order matters: the frame hold must complete while this thread's
      // trap frame (the deposited request's referent) is still intact,
      // and before our drain can make us the round's last drainer.
      self->HoldFrameForCombiner(*slab, variant);
      self->DrainSlab(*slab, round, bit);
    }
  } drain_guard{this, &slab, round, self_bit, variant};

  // 3. Open the round — usually as the last arriver (the claim CAS is then
  //    uncontended); after an excision shrank the live set, as whichever
  //    waiter re-observes completeness first.
  bool opened_by_me = false;
  uint32_t deferred_missing = 0;  // timeout verdict deferred from the last window
  for (;;) {
    if (TryOpenSlabRound(slab, round, klass, variant)) {
      opened_by_me = true;
      break;
    }
    // Lockstep: no variant proceeds until all live variants made an
    // equivalent call (§2). A sibling that never arrives (crash, stall,
    // divergence through an uninstrumented sync op) trips the timeout. The
    // live mask is snapshotted per window so a mid-wait excision (from any
    // thread set) resets the stragglers' deadline instead of cascading.
    // The deadline covers the gather only: it stops once the round is
    // claimed.
    const uint32_t live_at_wait =
        reporter->live_mask() & ((1u << shared_->options->num_variants) - 1);
    if (AwaitSlabState(
            [&](bool spinning) {
              if (slab.phase.load(std::memory_order_acquire) >= kRoundMasterDone) {
                return true;  // claimed, compared and executed already
              }
              // While spinning, poll only the phase line: the opener writes
              // the control line several times per round (arrival, claim,
              // executor, members), and a waiter polling it would pull the
              // line away between those stores.
              if (spinning) {
                return false;
              }
              return slab.open_claim.load(std::memory_order_acquire) != 0 ||
                     SlabGatherComplete(slab);
            },
            /*timed=*/true)) {
      const uint32_t claim = slab.open_claim.load(std::memory_order_acquire);
      if (claim == RoundSlab::kOpenerClaim) {
        break;
      }
      if (claim == RoundSlab::kPoisonedClaim) {
        throw VariantKilled{};  // shutdown: no opener will ever claim it
      }
      continue;  // complete (an excision shrank the set): retry the claim
    }
    // Throws when fatal; may defer its verdict to the next window.
    ExciseMissingSlab(slab, round, variant, live_at_wait, &deferred_missing, request);
  }

  if (!opened_by_me) {
    // Untimed: the combined master call may legitimately block in the
    // kernel (futex, accept) far longer than any rendezvous budget;
    // shutdown still interrupts via reporter->tripped() + WakeParked, and an
    // excision of THIS variant lifts the wait (skip execution, drain).
    AwaitSlabState(
        [&](bool) {
          return slab.phase.load(std::memory_order_acquire) >= kRoundMasterDone ||
                 reporter->VariantDead(variant);
        },
        /*timed=*/false);
    if (slab.phase.load(std::memory_order_acquire) < kRoundMasterDone) {
      throw VariantKilled{};  // excised while the master was still pending
    }
  }

  // 4. Membership check: arrived but excluded when the round opened (excised
  //    mid-gather, or the digest outlier). Leave without executing; the
  //    guard drains our arrival so the survivors can recycle.
  if ((slab.members & self_bit) == 0) {
    throw VariantKilled{};
  }

  // 5. Per-variant completion. The master's thread only picks up the
  //    published retval (its process state was already advanced by the
  //    combined execution); slave threads apply their local side effects.
  int64_t retval = 0;
  if (variant == 0) {
    retval = slab.master_result.retval;
  } else if (reporter->VariantDead(variant)) {
    // Excised mid-round (from another thread set): skip the replay — this
    // variant's ordering clocks may never advance again. Guard drains.
    throw VariantKilled{};
  } else {
    retval = ExecuteSlave(variant, request, klass, slab.master_result, slab.control_retval);
  }

  // 6. Copy this round's latched signals out before the guard drains — the
  //    caller delivers them once the rendezvous is fully unwound.
  if (delivered_signals != nullptr) {
    *delivered_signals = slab.signals;
  }
  return retval;
}

int64_t ThreadSetMonitor::RunSyscall(uint32_t variant, SyscallRequest& request,
                                     std::vector<int32_t>* delivered_signals) {
  FaultInjector& faults = FaultInjector::Global();
  // Fault sites (docs/fault_injection.md). Crash: the thread unwinds
  // silently, exactly like a variant whose process died — siblings detect
  // the absence through the rendezvous timeout and excise (or shut down)
  // from there. The crash is sticky: a crash fired inside a destructor-
  // driven call (LockGuard's unlock swallows VariantKilled) would otherwise
  // let the thread run on and reach its NEXT syscall, which its siblings
  // then report as a divergence instead of a missing arrival. Stall: sleep
  // through the arrival window so siblings expire first; the dead-check
  // below then reaps the stallion on wakeup.
  if (t_crashed || faults.ShouldFire(FaultSite::kCrashAtSyscall, variant)) [[unlikely]] {
    t_crashed = true;
    throw VariantKilled{};
  }
  uint64_t stall_ms = 0;
  if (faults.ShouldFire(FaultSite::kStallArrival, variant, &stall_ms)) [[unlikely]] {
    auto delay = std::chrono::milliseconds(stall_ms);
    if (stall_ms == 0) {
      delay = 2 * std::chrono::duration_cast<std::chrono::milliseconds>(
                      shared_->options->rendezvous_timeout);
    }
    std::this_thread::sleep_for(delay);
  }

  // Heartbeat for the blocked-call watchdog: odd seq = inside the call.
  ProgressSlot& progress = progress_[variant];
  progress.sysno.store(request.sysno, std::memory_order_relaxed);
  progress.seq.fetch_add(1, std::memory_order_relaxed);
  struct HeartbeatGuard {
    std::atomic<uint64_t>* seq;
    ~HeartbeatGuard() { seq->fetch_add(1, std::memory_order_relaxed); }
  } heartbeat{&progress.seq};

  DivergenceReporter* reporter = shared_->reporter;
  // A variant arriving after shutdown must unwind, not join (and possibly
  // open) a dead MVEE's round — e.g. the stalled sibling of a rendezvous
  // timeout waking up with its sys_exit. An excised variant likewise
  // unwinds at its next syscall, wherever the excision caught it.
  if (reporter->tripped() || reporter->VariantDead(variant)) {
    throw VariantKilled{};
  }

  if (shared_->options->sync_model == SyncModel::kLoose) {
    return RunSyscallLoose(variant, request, delivered_signals);
  }
  return RunSyscallSlab(variant, request, delivered_signals);
}

}  // namespace mvee
