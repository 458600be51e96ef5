// The virtual kernel: executes SyscallRequests against shared machine state
// and per-process state.
//
// This is the substitution for the real Linux kernel underneath the MVEE
// (see docs/DESIGN.md §2). The monitor is the only component that calls Execute;
// variant code always traps through the monitor first, which is what gives
// the MVEE its interposition point (paper Figure 1).
//
// Concurrency: every shared structure is sharded or lock-free on its hot
// path (docs/DESIGN.md §7) — striped VFS namespace with a per-thread handle
// cache, lock-free generation-tagged fd lookups, hashed futex shards with
// intrusive wait queues, per-thread-set counted RNG streams, and a
// wait-queue readiness subsystem that poll/accept block on instead of
// busy-polling.

#ifndef MVEE_VKERNEL_VKERNEL_H_
#define MVEE_VKERNEL_VKERNEL_H_

#include <cstdint>
#include <mutex>
#include <vector>

#include "mvee/syscall/record.h"
#include "mvee/util/rng.h"
#include "mvee/vkernel/clock.h"
#include "mvee/vkernel/futex.h"
#include "mvee/vkernel/net.h"
#include "mvee/vkernel/process.h"
#include "mvee/vkernel/vfs.h"
#include "mvee/vkernel/waitq.h"

namespace mvee {

// Plain snapshot of the kernel's wait/readiness counters (MveeReport carries
// these so "poll blocks on wakeups, not spins" is observable in runs).
struct VKernelStatsSnapshot {
  uint64_t waitq_waits = 0;
  uint64_t waitq_wakeups = 0;
  uint64_t waitq_shutdown_wakes = 0;
};

// Calling conventions per sysno (args in SyscallRequest):
//   open(path, arg0=flags) -> fd
//   close(arg0=fd) -> 0
//   read(arg0=fd, out_data) -> n           write(arg0=fd, in_data) -> n
//   pread/pwrite(arg0=fd, arg1=off, ...) -> n
//   lseek(arg0=fd, arg1=off, arg2=whence{0,1,2}) -> new offset
//   stat(path) -> size                      unlink(path) -> 0
//   dup(arg0=fd) -> fd                      fcntl(arg0=fd, arg1=cmd) -> flags
//   pipe() -> read_fd | (write_fd << 32)
//   brk(arg0=increment) -> new break        mmap(arg0=len, arg1=prot) -> addr
//   munmap(local_addr, arg1=len) -> 0       mprotect(local_addr, arg1=len, arg2=prot) -> 0
//   futex(arg0=op, arg1=val, logical_addr, futex_word) -> 0 / -EAGAIN / woken count
//   socket() -> fd    bind(arg0=fd, arg1=port)    listen(arg0=fd, arg1=backlog)
//   accept(arg0=fd) -> fd   connect(arg0=fd, arg1=port) -> 0
//   send(arg0=fd, in_data) -> n   recv(arg0=fd, out_data) -> n   shutdown(arg0=fd)
//   gettimeofday() -> usec   clock_gettime() -> nsec   rdtsc -> tsc
//   nanosleep(arg0=nsec) -> 0               getrandom(out_data) -> n
//   getpid() -> logical pid                 gettid(arg0=logical tid) -> arg0
//   clone() -> new kernel tid               sched_yield() -> 0
class VirtualKernel {
 public:
  explicit VirtualKernel(uint64_t rng_seed = 42);

  // Executes one syscall for `process`. Thread-safe.
  SyscallResult Execute(ProcessState& process, const SyscallRequest& request);

  // Two-phase accept for the monitor: sys_accept both blocks *and* allocates
  // a descriptor. The blocking half must run outside the syscall-ordering
  // critical section (§4.1 forbids ordering blocking calls) while the fd
  // allocation must run inside it, or slave fd tables drift relative to
  // ordered close/open traffic. AcceptBlocking performs only the wait (on
  // the listener's wait queue) and fails with -ECONNABORTED once the
  // listener is closed or the kernel shuts down; FinishAccept installs the
  // descriptor (fast, order-section safe).
  VRef<VConnection> AcceptBlocking(ProcessState& process, int32_t listen_fd, int64_t* error);
  int64_t FinishAccept(ProcessState& process, VRef<VConnection> conn);

  // Applies the side effects of a master-executed (replicated) syscall to a
  // slave process: advances file offsets, installs shadow descriptors for
  // accept/connect. Returns the slave-local result that must match the
  // master's (e.g. the shadow fd number) or 0 when there is nothing to check.
  int64_t ApplyReplicatedEffect(ProcessState& process, const SyscallRequest& request,
                                const SyscallResult& master_result);

  // The syscall-ordering domain `request` conflicts on, resolved against
  // `process`'s descriptor table (docs/syscall_ordering.md): per-fd domain
  // for descriptor-scoped ops (lseek/fcntl), kMemory for address-space ops,
  // kProcess for clone, kFdNamespace for everything that mutates or scans
  // the fd/path namespace. Called by the master monitor only; slaves take
  // the domain id from the master's stamped result.
  uint32_t OrderDomainOf(ProcessState& process, const SyscallRequest& request);

  // Wakes/closes everything a variant thread could be blocked on; used by
  // the monitor when tearing the variants down after a divergence. Drains
  // ONE registry: every waitable object (pipe, connection, listener, the
  // futex table) registered itself at creation (waitq.h).
  void ShutdownBlockedCalls();

  // Watchdog escalation stage 2 (docs/DESIGN.md §9): wakes every futex
  // waiter WITHOUT closing anything. Futex semantics permit spurious wakes
  // (waiters re-check their word and re-queue), so a nudge against a healthy
  // run is harmless — and it is the sound remedy for a lost wakeup, where
  // the dropped signal left the waiters queued forever.
  void NudgeBlockedCalls();

  Vfs& vfs() { return vfs_; }
  VirtualNetwork& network() { return network_; }
  VirtualClock& clock() { return clock_; }
  FutexTable& futexes() { return futexes_; }
  WaitRegistry& wait_registry() { return wait_registry_; }

  VKernelStatsSnapshot stats() const {
    // Const-correct read of the registry's relaxed counters.
    auto& stats = const_cast<VirtualKernel*>(this)->wait_registry_.stats();
    VKernelStatsSnapshot snapshot;
    snapshot.waitq_waits = stats.waits.load(std::memory_order_relaxed);
    snapshot.waitq_wakeups = stats.wakeups.load(std::memory_order_relaxed);
    snapshot.waitq_shutdown_wakes = stats.shutdown_wakes.load(std::memory_order_relaxed);
    return snapshot;
  }

 private:
  SyscallResult ExecuteFile(ProcessState& process, const SyscallRequest& request);
  SyscallResult ExecuteMemory(ProcessState& process, const SyscallRequest& request);
  SyscallResult ExecuteNet(ProcessState& process, const SyscallRequest& request);
  SyscallResult ExecutePoll(ProcessState& process, const SyscallRequest& request);
  SyscallResult ExecuteTime(const SyscallRequest& request);
  SyscallResult ExecuteGetrandom(const SyscallRequest& request);

  // Scans the poll set once. Returns the ready count; `waiter`, when
  // non-null, is subscribed to every waitable fd's queue before its state is
  // read (the subscribe-then-scan ordering the wakeup protocol needs).
  int64_t ScanPollSet(ProcessState& process, const SyscallRequest& request,
                      uint8_t* revents_buf, size_t nfds, Waiter* waiter,
                      std::vector<VRef<VObject>>* pinned);

  // Per-thread-set counted RNG streams: getrandom from logical tid T draws
  // from stream T, so concurrent thread sets never serialize on one lock —
  // and each stream's sequence depends only on (seed, tid, draw index),
  // which makes traces reproducible regardless of cross-thread timing. The
  // monitor's rendezvous guarantees at most one in-flight syscall per thread
  // set, so a stream needs no lock at all. Tids beyond the static range
  // share rng_ under rng_mutex_.
  static constexpr uint32_t kRngStreams = 256;
  struct alignas(64) RngStream {
    Rng rng;
  };

  WaitRegistry wait_registry_;
  Vfs vfs_;
  VirtualNetwork network_;
  VirtualClock clock_;
  FutexTable futexes_;
  std::mutex rng_mutex_;
  Rng rng_;
  RngStream rng_streams_[kRngStreams];
};

}  // namespace mvee

#endif  // MVEE_VKERNEL_VKERNEL_H_
