#include <algorithm>
#include <sstream>

#include "mvee/syscall/record.h"
#include "mvee/syscall/sysno.h"

namespace mvee {

SyscallClass ClassOf(Sysno sysno) {
  switch (sysno) {
    // I/O and blocking calls: master executes, results replicated (§4.1).
    case Sysno::kRead:
    case Sysno::kWrite:
    case Sysno::kPread:
    case Sysno::kPwrite:
    case Sysno::kAccept:
    case Sysno::kConnect:
    case Sysno::kSend:
    case Sysno::kRecv:
    case Sysno::kGettimeofday:
    case Sysno::kClockGettime:
    case Sysno::kNanosleep:
    case Sysno::kRdtsc:
    case Sysno::kGetrandom:
    case Sysno::kFutex:  // Blocking; "treated as an I/O operation" (§4.1 fn 5).
    // Network establishment touches the machine-shared port namespace, so
    // only the master may perform it; slaves get shadow descriptors.
    case Sysno::kSocket:
    case Sysno::kBind:
    case Sysno::kListen:
    case Sysno::kShutdown:
    // Poll blocks until readiness; only the master observes the real
    // network, so followers take the replicated revents.
    case Sysno::kPoll:
    // Unlink destructively mutates the shared filesystem: executing it once
    // per variant is not idempotent (the slaves would observe -ENOENT).
    case Sysno::kUnlink:
      return SyscallClass::kReplicated;

    // Shared-resource calls: executed per-variant, ordered across threads so
    // resource identifiers (fds, mappings) match in all variants (§3.1).
    case Sysno::kOpen:
    case Sysno::kClose:
    case Sysno::kLseek:
    case Sysno::kStat:
    case Sysno::kDup:
    case Sysno::kFcntl:
    case Sysno::kPipe:
    case Sysno::kBrk:
    case Sysno::kMmap:
    case Sysno::kMunmap:
    case Sysno::kMprotect:
    case Sysno::kClone:
      return SyscallClass::kOrdered;

    // Benign local calls.
    case Sysno::kSchedYield:
    case Sysno::kGettid:
    case Sysno::kGetpid:
      return SyscallClass::kLocal;

    // MVEE control. Signal calls are control calls too: the monitor itself
    // is the signal-routing authority (registration is variant-local state;
    // kill enqueues into the monitor's pending queue exactly once per
    // rendezvous).
    case Sysno::kExit:
    case Sysno::kExitGroup:
    case Sysno::kSigaction:
    case Sysno::kKill:
    case Sysno::kMveeSelfAware:
    case Sysno::kMveeCheckpoint:
    case Sysno::kCount:
      return SyscallClass::kControl;
  }
  return SyscallClass::kControl;
}

SyscallSensitivity SensitivityOf(Sysno sysno) {
  switch (sysno) {
    // Calls that touch the outside world or the address space.
    case Sysno::kOpen:
    case Sysno::kWrite:
    case Sysno::kPwrite:
    case Sysno::kUnlink:
    case Sysno::kMmap:
    case Sysno::kMunmap:
    case Sysno::kMprotect:
    case Sysno::kSocket:
    case Sysno::kBind:
    case Sysno::kListen:
    case Sysno::kAccept:
    case Sysno::kConnect:
    case Sysno::kSend:
    case Sysno::kClone:
    case Sysno::kExit:
    case Sysno::kExitGroup:
    case Sysno::kSigaction:  // Handler installation redirects control flow.
    case Sysno::kKill:
      return SyscallSensitivity::kSensitive;
    default:
      return SyscallSensitivity::kBenign;
  }
}

const char* SysnoName(Sysno sysno) {
  switch (sysno) {
    case Sysno::kOpen:
      return "sys_open";
    case Sysno::kClose:
      return "sys_close";
    case Sysno::kRead:
      return "sys_read";
    case Sysno::kWrite:
      return "sys_write";
    case Sysno::kPread:
      return "sys_pread";
    case Sysno::kPwrite:
      return "sys_pwrite";
    case Sysno::kLseek:
      return "sys_lseek";
    case Sysno::kStat:
      return "sys_stat";
    case Sysno::kUnlink:
      return "sys_unlink";
    case Sysno::kDup:
      return "sys_dup";
    case Sysno::kFcntl:
      return "sys_fcntl";
    case Sysno::kPipe:
      return "sys_pipe";
    case Sysno::kBrk:
      return "sys_brk";
    case Sysno::kMmap:
      return "sys_mmap";
    case Sysno::kMunmap:
      return "sys_munmap";
    case Sysno::kMprotect:
      return "sys_mprotect";
    case Sysno::kFutex:
      return "sys_futex";
    case Sysno::kSchedYield:
      return "sys_sched_yield";
    case Sysno::kGettid:
      return "sys_gettid";
    case Sysno::kGetpid:
      return "sys_getpid";
    case Sysno::kClone:
      return "sys_clone";
    case Sysno::kGettimeofday:
      return "sys_gettimeofday";
    case Sysno::kClockGettime:
      return "sys_clock_gettime";
    case Sysno::kNanosleep:
      return "sys_nanosleep";
    case Sysno::kRdtsc:
      return "rdtsc";
    case Sysno::kSocket:
      return "sys_socket";
    case Sysno::kBind:
      return "sys_bind";
    case Sysno::kListen:
      return "sys_listen";
    case Sysno::kAccept:
      return "sys_accept";
    case Sysno::kConnect:
      return "sys_connect";
    case Sysno::kSend:
      return "sys_send";
    case Sysno::kRecv:
      return "sys_recv";
    case Sysno::kShutdown:
      return "sys_shutdown";
    case Sysno::kPoll:
      return "sys_poll";
    case Sysno::kGetrandom:
      return "sys_getrandom";
    case Sysno::kExit:
      return "sys_exit";
    case Sysno::kExitGroup:
      return "sys_exit_group";
    case Sysno::kSigaction:
      return "sys_rt_sigaction";
    case Sysno::kKill:
      return "sys_tgkill";
    case Sysno::kMveeSelfAware:
      return "sys_mvee_self_aware";
    case Sysno::kMveeCheckpoint:
      return "sys_mvee_checkpoint";
    case Sysno::kCount:
      return "sys_invalid";
  }
  return "sys_unknown";
}

std::string SyscallRequest::ToString() const {
  std::ostringstream out;
  out << SysnoName(sysno) << "(" << arg0 << ", " << arg1 << ", " << arg2;
  if (!path.empty()) {
    out << ", path=\"" << path << "\"";
  }
  if (!in_data.empty()) {
    out << ", in=" << in_data.size() << "B";
  }
  if (!out_data.empty()) {
    out << ", out=" << out_data.size() << "B";
  }
  out << ")";
  return out.str();
}

std::string SyscallRequest::FirstComparedDifference(const SyscallRequest& other) const {
  if (sysno != other.sysno) {
    return "sysno";
  }
  const int64_t args[] = {arg0, arg1, arg2, arg3};
  const int64_t other_args[] = {other.arg0, other.arg1, other.arg2, other.arg3};
  for (int i = 0; i < 4; ++i) {
    if (args[i] != other_args[i]) {
      return "arg" + std::to_string(i);
    }
  }
  if (path != other.path) {
    return "path";
  }
  if (logical_addr != other.logical_addr) {
    return "logical_addr";
  }
  if (in_data.size() != other.in_data.size()) {
    return "in_data size";
  }
  const auto differ = std::mismatch(in_data.begin(), in_data.end(), other.in_data.begin());
  if (differ.first != in_data.end()) {
    return "in_data byte " + std::to_string(differ.first - in_data.begin());
  }
  return "";
}

}  // namespace mvee
