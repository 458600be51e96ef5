#include "mvee/vkernel/vkernel.h"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <optional>
#include <thread>

#include "mvee/util/fault_injection.h"

namespace mvee {

namespace {

// Whence values for lseek.
constexpr int64_t kSeekSet = 0;
constexpr int64_t kSeekCur = 1;
constexpr int64_t kSeekEnd = 2;

SyscallResult Err(int64_t negative_errno) {
  SyscallResult result;
  result.retval = negative_errno;
  return result;
}

SyscallResult Ret(int64_t value) {
  SyscallResult result;
  result.retval = value;
  return result;
}

// Publishes the first `size` bytes of the caller's out buffer as the
// result's replication payload. With a pooled buffer (the monitor's round
// slab / loose record) the bytes are copied once into the recycled pool and
// the result carries a span into it — no per-call heap allocation. Without a
// pool (native runner, direct kernel calls) there is nobody to replicate to,
// so the result carries no payload.
void PublishPayload(const SyscallRequest& request, SyscallResult* result, size_t size) {
  if (request.payload_pool == nullptr || size == 0) {
    return;
  }
  request.payload_pool->Assign(request.out_data.data(), size);
  result->out_payload = request.payload_pool->view();
}

}  // namespace

VirtualKernel::VirtualKernel(uint64_t rng_seed)
    : network_(&wait_registry_),
      futexes_(&wait_registry_, &wait_registry_.stats()),
      rng_(rng_seed) {
  // One counted stream per logical tid: the sequence a thread set observes
  // depends only on (seed, tid, draw index) — scheduling-independent, and
  // never behind rng_mutex_.
  for (uint32_t i = 0; i < kRngStreams; ++i) {
    rng_streams_[i].rng.Seed(SplitMix64(rng_seed ^ (0x9e3779b97f4a7c15ULL * (i + 1))));
  }
}

SyscallResult VirtualKernel::Execute(ProcessState& process, const SyscallRequest& request) {
  switch (request.sysno) {
    case Sysno::kOpen:
    case Sysno::kClose:
    case Sysno::kRead:
    case Sysno::kWrite:
    case Sysno::kPread:
    case Sysno::kPwrite:
    case Sysno::kLseek:
    case Sysno::kStat:
    case Sysno::kUnlink:
    case Sysno::kDup:
    case Sysno::kFcntl:
    case Sysno::kPipe:
      return ExecuteFile(process, request);

    case Sysno::kBrk:
    case Sysno::kMmap:
    case Sysno::kMunmap:
    case Sysno::kMprotect:
      return ExecuteMemory(process, request);

    case Sysno::kSocket:
    case Sysno::kBind:
    case Sysno::kListen:
    case Sysno::kAccept:
    case Sysno::kConnect:
    case Sysno::kSend:
    case Sysno::kRecv:
    case Sysno::kShutdown:
      return ExecuteNet(process, request);

    case Sysno::kPoll:
      return ExecutePoll(process, request);

    case Sysno::kGettimeofday:
    case Sysno::kClockGettime:
    case Sysno::kRdtsc:
    case Sysno::kNanosleep:
      return ExecuteTime(request);

    case Sysno::kFutex: {
      // Futex words are keyed by the master variant's own address
      // (local_addr): waits and wakes both come from master threads, so the
      // key never needs to be comparable across variants.
      if (request.arg0 == FutexOp::kWait) {
        return Ret(futexes_.Wait(request.local_addr, request.futex_word,
                                 static_cast<int32_t>(request.arg1)));
      }
      if (request.arg0 == FutexOp::kWake) {
        // Fault site (docs/fault_injection.md, drop-futex-wake): swallow the
        // wake. The targeted waiters stay queued — a genuine lost-wakeup
        // shape — until the watchdog's NudgeBlockedCalls issues a legal
        // spurious WakeAll.
        if (FaultInjector::Global().ShouldFire(FaultSite::kDropFutexWake,
                                              process.variant_index())) {
          return Ret(0);
        }
        return Ret(futexes_.Wake(request.local_addr, static_cast<int32_t>(request.arg1)));
      }
      return Err(-EINVAL);
    }

    case Sysno::kGetrandom:
      return ExecuteGetrandom(request);

    case Sysno::kSchedYield:
      std::this_thread::yield();
      return Ret(0);

    case Sysno::kGetpid:
      return Ret(process.pid());

    case Sysno::kGettid:
      // The runtime passes the logical thread id; identical across variants.
      return Ret(request.arg0);

    case Sysno::kClone:
      return Ret(process.NextTid());

    case Sysno::kExit:
    case Sysno::kExitGroup:
      return Ret(0);

    case Sysno::kMveeSelfAware:
    case Sysno::kMveeCheckpoint:
      // Non-existing kernel syscalls: the real kernel would return -ENOSYS;
      // the monitor intercepts them before they get here (paper §4.5).
      return Err(-ENOSYS);

    case Sysno::kCount:
      break;
  }
  return Err(-ENOSYS);
}

SyscallResult VirtualKernel::ExecuteGetrandom(const SyscallRequest& request) {
  SyscallResult result;
  if (request.tid < kRngStreams) {
    // Per-thread-set stream: no lock. The monitor's rendezvous admits one
    // in-flight call per thread set, so stream `tid` is never raced.
    Rng& rng = rng_streams_[request.tid].rng;
    for (auto& byte : request.out_data) {
      byte = static_cast<uint8_t>(rng.Next());
    }
  } else {
    std::lock_guard<std::mutex> lock(rng_mutex_);
    for (auto& byte : request.out_data) {
      byte = static_cast<uint8_t>(rng_.Next());
    }
  }
  PublishPayload(request, &result, request.out_data.size());
  result.retval = static_cast<int64_t>(request.out_data.size());
  return result;
}

SyscallResult VirtualKernel::ExecuteFile(ProcessState& process, const SyscallRequest& request) {
  FdTable& fds = process.fds();
  switch (request.sysno) {
    case Sysno::kOpen: {
      const bool create = (request.arg0 & VOpenFlags::kCreate) != 0;
      auto file = vfs_.Open(request.path, create);
      if (file == nullptr) {
        return Err(-ENOENT);
      }
      if ((request.arg0 & VOpenFlags::kTruncate) != 0) {
        file->Truncate();
      }
      FdEntry entry;
      entry.kind = FdKind::kFile;
      entry.offset = (request.arg0 & VOpenFlags::kAppend) != 0 ? file->Size() : 0;
      entry.object = std::move(file);
      entry.flags = request.arg0;
      entry.path = request.path;
      return Ret(fds.Allocate(std::move(entry)));
    }

    case Sysno::kClose:
      return Ret(fds.Close(static_cast<int32_t>(request.arg0)));

    case Sysno::kRead: {
      FdTable::Ref entry = fds.Get(static_cast<int32_t>(request.arg0));
      if (!entry) {
        return Err(-EBADF);
      }
      // One snapshot of (kind, object): a concurrent connect() must not pair
      // a stale kind with a new object across two reads.
      const FdTable::Ref::ObjectView view = entry.view();
      if (view.object == nullptr) {
        return Err(-EBADF);
      }
      SyscallResult result;
      if (view.kind == FdKind::kFile) {
        auto* file = static_cast<VFile*>(view.object);
        result.retval =
            file->ReadAt(entry.offset(), request.out_data.data(), request.out_data.size());
        if (result.retval > 0) {
          entry.AdvanceOffset(static_cast<uint64_t>(result.retval));
        }
      } else if (view.kind == FdKind::kPipeRead) {
        // Blocking call: share the pipe out of the slot so the lease is not
        // held across the wait (a concurrent close must be able to drain).
        VRef<VObject> pipe = entry.ShareObject(view);
        entry = FdTable::Ref{};
        result.retval = static_cast<VPipe*>(pipe.get())
                            ->Read(request.out_data.data(), request.out_data.size());
      } else if (view.kind == FdKind::kConnServer) {
        VRef<VObject> conn = entry.ShareObject(view);
        entry = FdTable::Ref{};
        result.retval = static_cast<VConnection*>(conn.get())
                            ->ServerRead(request.out_data.data(), request.out_data.size());
      } else if (view.kind == FdKind::kConnClient) {
        VRef<VObject> conn = entry.ShareObject(view);
        entry = FdTable::Ref{};
        result.retval = static_cast<VConnection*>(conn.get())
                            ->ClientRead(request.out_data.data(), request.out_data.size());
      } else {
        return Err(-EBADF);
      }
      // Fault site (docs/fault_injection.md, leak-fd-lease): forget to
      // return the reader lease. A later Close of this fd wedges in its
      // drain until ReleaseAbandonedLeases repairs the count. No-op for the
      // blocking kinds above (their lease was already returned).
      if (FaultInjector::Global().ShouldFire(FaultSite::kLeakFdLease,
                                            process.variant_index())) {
        entry.LeakLease();
      }
      if (result.retval > 0) {
        PublishPayload(request, &result, static_cast<size_t>(result.retval));
      }
      return result;
    }

    case Sysno::kWrite: {
      FdTable::Ref entry = fds.Get(static_cast<int32_t>(request.arg0));
      if (!entry) {
        return Err(-EBADF);
      }
      const FdTable::Ref::ObjectView view = entry.view();
      if (view.object == nullptr) {
        return Err(-EBADF);
      }
      if (view.kind == FdKind::kFile) {
        auto* file = static_cast<VFile*>(view.object);
        const int64_t n =
            file->WriteAt(entry.offset(), request.in_data.data(), request.in_data.size());
        if (n > 0) {
          entry.AdvanceOffset(static_cast<uint64_t>(n));
        }
        return Ret(n);
      }
      if (view.kind == FdKind::kPipeWrite) {
        VRef<VObject> pipe = entry.ShareObject(view);
        entry = FdTable::Ref{};
        return Ret(static_cast<VPipe*>(pipe.get())
                       ->Write(request.in_data.data(), request.in_data.size()));
      }
      if (view.kind == FdKind::kConnServer) {
        VRef<VObject> conn = entry.ShareObject(view);
        entry = FdTable::Ref{};
        return Ret(static_cast<VConnection*>(conn.get())
                       ->ServerWrite(request.in_data.data(), request.in_data.size()));
      }
      if (view.kind == FdKind::kConnClient) {
        VRef<VObject> conn = entry.ShareObject(view);
        entry = FdTable::Ref{};
        return Ret(static_cast<VConnection*>(conn.get())
                       ->ClientWrite(request.in_data.data(), request.in_data.size()));
      }
      return Err(-EBADF);
    }

    case Sysno::kPread: {
      FdTable::Ref entry = fds.Get(static_cast<int32_t>(request.arg0));
      if (!entry) {
        return Err(-EBADF);
      }
      VFile* file = entry.file();
      if (file == nullptr) {
        return Err(-EBADF);
      }
      SyscallResult result;
      result.retval = file->ReadAt(static_cast<uint64_t>(request.arg1),
                                   request.out_data.data(), request.out_data.size());
      if (result.retval > 0) {
        PublishPayload(request, &result, static_cast<size_t>(result.retval));
      }
      return result;
    }

    case Sysno::kPwrite: {
      FdTable::Ref entry = fds.Get(static_cast<int32_t>(request.arg0));
      if (!entry) {
        return Err(-EBADF);
      }
      VFile* file = entry.file();
      if (file == nullptr) {
        return Err(-EBADF);
      }
      return Ret(file->WriteAt(static_cast<uint64_t>(request.arg1),
                               request.in_data.data(), request.in_data.size()));
    }

    case Sysno::kLseek: {
      FdTable::Ref entry = fds.Get(static_cast<int32_t>(request.arg0));
      if (!entry) {
        return Err(-EBADF);
      }
      VFile* file = entry.file();
      if (file == nullptr) {
        return Err(-EBADF);
      }
      int64_t base = 0;
      switch (request.arg2) {
        case kSeekSet:
          base = 0;
          break;
        case kSeekCur:
          base = static_cast<int64_t>(entry.offset());
          break;
        case kSeekEnd:
          base = static_cast<int64_t>(file->Size());
          break;
        default:
          return Err(-EINVAL);
      }
      const int64_t target = base + request.arg1;
      if (target < 0) {
        return Err(-EINVAL);
      }
      entry.set_offset(static_cast<uint64_t>(target));
      return Ret(target);
    }

    case Sysno::kStat: {
      VStat st;
      const int64_t rc = vfs_.Stat(request.path, &st);
      if (rc != 0) {
        return Err(rc);
      }
      return Ret(static_cast<int64_t>(st.size));
    }

    case Sysno::kUnlink:
      return Ret(vfs_.Unlink(request.path));

    case Sysno::kDup:
      return Ret(fds.Dup(static_cast<int32_t>(request.arg0)));

    case Sysno::kFcntl: {
      FdTable::Ref entry = fds.Get(static_cast<int32_t>(request.arg0));
      if (!entry) {
        return Err(-EBADF);
      }
      return Ret(entry.flags());
    }

    case Sysno::kPipe: {
      // The pipe registers itself in the wait registry (slot reuse, no
      // grow-forever side list) and is owned by its two descriptors.
      auto pipe = MakeVRef<VPipe>(/*capacity=*/size_t{65536}, &wait_registry_);
      FdEntry read_end;
      read_end.kind = FdKind::kPipeRead;
      read_end.object = pipe;
      FdEntry write_end;
      write_end.kind = FdKind::kPipeWrite;
      write_end.object = std::move(pipe);
      const int32_t rfd = fds.Allocate(std::move(read_end));
      if (rfd < 0) {
        return Err(rfd);
      }
      const int32_t wfd = fds.Allocate(std::move(write_end));
      if (wfd < 0) {
        fds.Close(rfd);  // Partial failure must not leak the read end.
        return Err(wfd);
      }
      return Ret(static_cast<int64_t>(rfd) | (static_cast<int64_t>(wfd) << 32));
    }

    default:
      return Err(-ENOSYS);
  }
}

SyscallResult VirtualKernel::ExecuteMemory(ProcessState& process, const SyscallRequest& request) {
  AddressSpace& mem = process.memory();
  switch (request.sysno) {
    case Sysno::kBrk: {
      uint64_t new_break = 0;
      const int64_t rc = mem.Brk(request.arg0, &new_break);
      if (rc != 0) {
        return Err(rc);
      }
      return Ret(static_cast<int64_t>(new_break));
    }
    case Sysno::kMmap: {
      uint64_t addr = 0;
      const int64_t rc = mem.Mmap(static_cast<uint64_t>(request.arg0), request.arg1, &addr);
      if (rc != 0) {
        return Err(rc);
      }
      return Ret(static_cast<int64_t>(addr));
    }
    case Sysno::kMunmap:
      return Ret(mem.Munmap(request.local_addr, static_cast<uint64_t>(request.arg1)));
    case Sysno::kMprotect:
      return Ret(mem.Mprotect(request.local_addr, static_cast<uint64_t>(request.arg1),
                              request.arg2));
    default:
      return Err(-ENOSYS);
  }
}

SyscallResult VirtualKernel::ExecuteNet(ProcessState& process, const SyscallRequest& request) {
  FdTable& fds = process.fds();
  switch (request.sysno) {
    case Sysno::kSocket: {
      FdEntry entry;
      entry.kind = FdKind::kListener;  // Becomes a real listener at listen().
      return Ret(fds.Allocate(std::move(entry)));
    }

    case Sysno::kBind: {
      FdTable::Ref entry = fds.Get(static_cast<int32_t>(request.arg0));
      if (!entry) {
        return Err(-EBADF);
      }
      entry.set_port(static_cast<uint16_t>(request.arg1));
      return Ret(0);
    }

    case Sysno::kListen: {
      FdTable::Ref entry = fds.Get(static_cast<int32_t>(request.arg0));
      if (!entry) {
        return Err(-EBADF);
      }
      VRef<VListener> listener;
      const int64_t rc = network_.Listen(entry.port(), static_cast<int>(request.arg1),
                                         &listener);
      if (rc != 0) {
        return Err(rc);
      }
      entry.InstallListener(std::move(listener));
      return Ret(0);
    }

    case Sysno::kAccept: {
      // Direct-execution path (native runner, tests): same two halves the
      // monitor drives separately for ordering.
      int64_t error = 0;
      VRef<VConnection> conn =
          AcceptBlocking(process, static_cast<int32_t>(request.arg0), &error);
      if (conn == nullptr) {
        return Err(error);
      }
      return Ret(FinishAccept(process, std::move(conn)));
    }

    case Sysno::kConnect: {
      FdTable::Ref entry = fds.Get(static_cast<int32_t>(request.arg0));
      if (!entry) {
        return Err(-EBADF);
      }
      auto conn = network_.Connect(static_cast<uint16_t>(request.arg1));
      if (conn == nullptr) {
        return Err(-ECONNREFUSED);
      }
      entry.PromoteToClientConn(std::move(conn));
      return Ret(0);
    }

    case Sysno::kSend: {
      FdTable::Ref entry = fds.Get(static_cast<int32_t>(request.arg0));
      if (!entry) {
        return Err(-EBADF);
      }
      const FdTable::Ref::ObjectView view = entry.view();
      if (view.object == nullptr ||
          (view.kind != FdKind::kConnServer && view.kind != FdKind::kConnClient)) {
        return Err(-EBADF);
      }
      VRef<VObject> conn = entry.ShareObject(view);
      entry = FdTable::Ref{};  // Blocking call: do not hold the lease.
      auto* connection = static_cast<VConnection*>(conn.get());
      if (view.kind == FdKind::kConnServer) {
        return Ret(connection->ServerWrite(request.in_data.data(), request.in_data.size()));
      }
      return Ret(connection->ClientWrite(request.in_data.data(), request.in_data.size()));
    }

    case Sysno::kRecv: {
      FdTable::Ref entry = fds.Get(static_cast<int32_t>(request.arg0));
      if (!entry) {
        return Err(-EBADF);
      }
      const FdTable::Ref::ObjectView view = entry.view();
      if (view.object == nullptr ||
          (view.kind != FdKind::kConnServer && view.kind != FdKind::kConnClient)) {
        return Err(-EBADF);
      }
      VRef<VObject> conn = entry.ShareObject(view);
      entry = FdTable::Ref{};  // Blocking call: do not hold the lease.
      auto* connection = static_cast<VConnection*>(conn.get());
      SyscallResult result;
      if (view.kind == FdKind::kConnServer) {
        result.retval = connection->ServerRead(request.out_data.data(), request.out_data.size());
      } else {
        result.retval = connection->ClientRead(request.out_data.data(), request.out_data.size());
      }
      if (result.retval > 0) {
        PublishPayload(request, &result, static_cast<size_t>(result.retval));
      }
      return result;
    }

    case Sysno::kShutdown: {
      FdTable::Ref entry = fds.Get(static_cast<int32_t>(request.arg0));
      if (!entry) {
        return Err(-EBADF);
      }
      const FdTable::Ref::ObjectView view = entry.view();
      if (view.object != nullptr &&
          (view.kind == FdKind::kConnServer || view.kind == FdKind::kConnClient)) {
        static_cast<VConnection*>(view.object)->CloseBoth();
      }
      if (view.object != nullptr && view.kind == FdKind::kListener) {
        network_.CloseListener(entry.port());
      }
      return Ret(0);
    }

    default:
      return Err(-ENOSYS);
  }
}

int64_t VirtualKernel::ScanPollSet(ProcessState& process, const SyscallRequest& request,
                                   uint8_t* revents_buf, size_t nfds, Waiter* waiter,
                                   std::vector<VRef<VObject>>* pinned) {
  FdTable& fds = process.fds();
  int64_t ready = 0;
  for (size_t i = 0; i < nfds; ++i) {
    int32_t fd = 0;
    std::memcpy(&fd, request.in_data.data() + i * 5, sizeof(fd));
    const uint8_t events = request.in_data[i * 5 + 4];
    uint8_t revents = 0;
    FdTable::Ref entry = fds.Get(fd);
    if (!entry) {
      revents = PollEvents::kHup;  // Invalid fd reported as hangup.
    } else {
      // One snapshot of (kind, object) drives both the subscription and the
      // readiness check — two reads could pair a stale kind with a new
      // object across a concurrent connect().
      const FdTable::Ref::ObjectView view = entry.view();
      // Subscribe BEFORE reading the object's state: a change published
      // after the scan then either predates the subscription fence or
      // signals the waiter (waitq.h protocol). The pinned VRef keeps the
      // object (and its queue) alive for the subscription's lifetime even
      // if the fd is closed/reused mid-poll.
      if (waiter != nullptr && view.object != nullptr && view.object->waitq() != nullptr) {
        waiter->Subscribe(view.object->waitq());
        pinned->push_back(entry.ShareObject(view));
      }
      switch (view.kind) {
        case FdKind::kFile:
          revents = static_cast<uint8_t>(events & (PollEvents::kIn | PollEvents::kOut));
          break;
        case FdKind::kPipeRead:
          if (auto* pipe = static_cast<VPipe*>(view.object);
              pipe != nullptr && (events & PollEvents::kIn) != 0 &&
              (pipe->BytesBuffered() > 0 || pipe->write_closed())) {
            revents |= PollEvents::kIn;
          }
          break;
        case FdKind::kPipeWrite:
          if ((events & PollEvents::kOut) != 0) {
            revents |= PollEvents::kOut;  // Bounded pipe: treat as writable.
          }
          break;
        case FdKind::kListener:
          if (auto* listener = static_cast<VListener*>(view.object);
              listener != nullptr && (events & PollEvents::kIn) != 0 &&
              listener->HasPending()) {
            revents |= PollEvents::kIn;
          }
          break;
        case FdKind::kConnServer:
          if (auto* conn = static_cast<VConnection*>(view.object); conn != nullptr) {
            if ((events & PollEvents::kIn) != 0 && conn->ServerReadable()) {
              revents |= PollEvents::kIn;
            }
            if ((events & PollEvents::kOut) != 0 && conn->ServerWritable()) {
              revents |= PollEvents::kOut;
            }
          }
          break;
        case FdKind::kConnClient:
          if (auto* conn = static_cast<VConnection*>(view.object); conn != nullptr) {
            if ((events & PollEvents::kIn) != 0 && conn->ClientReadable()) {
              revents |= PollEvents::kIn;
            }
            if ((events & PollEvents::kOut) != 0 && conn->ClientWritable()) {
              revents |= PollEvents::kOut;
            }
          }
          break;
        case FdKind::kFree:
          revents = PollEvents::kHup;
          break;
      }
    }
    revents_buf[i] = revents;
    ready += revents != 0 ? 1 : 0;
  }
  return ready;
}

// sys_poll over the virtual fd space. Request payload: nfds records of
// (int32 fd little-endian, uint8 events); arg0 = nfds, arg1 = timeout in
// milliseconds (<0 = wait indefinitely). Returns the number of fds with a
// non-zero revents byte in the replicated revents payload (one byte per
// fd, out_payload), 0 on timeout.
//
// Readiness is wait-queue-driven: the poller subscribes a Waiter to every
// waitable fd's queue and parks until one fires, so a pipe write wakes the
// poll immediately instead of after a sleep quantum.
SyscallResult VirtualKernel::ExecutePoll(ProcessState& process,
                                         const SyscallRequest& request) {
  const auto nfds = static_cast<size_t>(request.arg0);
  if (request.in_data.size() < nfds * 5) {
    return Err(-EINVAL);
  }
  const int64_t timeout_ms = request.arg1;
  const bool timed = timeout_ms > 0;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timed ? timeout_ms : 0);

  SyscallResult result;
  // Revents scratch: one byte per fd. The monitor's pooled buffer when
  // provided (the payload slaves replicate), a local fallback otherwise.
  std::vector<uint8_t> local_revents;
  uint8_t* revents_buf;
  if (request.payload_pool != nullptr) {
    revents_buf = request.payload_pool->Reserve(nfds);
  } else {
    local_revents.resize(nfds);
    revents_buf = local_revents.data();
  }

  // `pinned` outlives `waiter` (declared first => destroyed last): the
  // Waiter's destructor unsubscribes from the pinned objects' queues, so the
  // objects must still be alive at that point even if their fds were closed
  // mid-poll. The Waiter itself is constructed lazily: a poll whose first
  // scan is ready (the common event-loop case) must not touch the
  // process-wide registry at all.
  std::vector<VRef<VObject>> pinned;
  std::optional<Waiter> waiter;
  for (;;) {
    if (waiter.has_value()) {
      waiter->Prepare();
    }
    // Subscriptions survive across iterations (idempotent); the first scan
    // with a waiter establishes them, later scans only recheck state. An fd
    // re-pointed at a brand-new object mid-poll is picked up by the bounded
    // park slice.
    const bool subscribe = waiter.has_value() && pinned.empty();
    const int64_t ready =
        ScanPollSet(process, request, revents_buf, nfds, subscribe ? &*waiter : nullptr,
                    subscribe ? &pinned : nullptr);
    const bool timed_out = timed && std::chrono::steady_clock::now() >= deadline;
    if (ready > 0 || timeout_ms == 0 || timed_out || wait_registry_.shutdown()) {
      // Master-side delivery: revents go straight into the caller's buffer;
      // the monitor replicates result.out_payload to the slaves.
      if (!request.out_data.empty()) {
        const size_t count = std::min(nfds, request.out_data.size());
        std::copy(revents_buf, revents_buf + count, request.out_data.begin());
      }
      if (request.payload_pool != nullptr) {
        result.out_payload = request.payload_pool->view();
      }
      result.retval = ready;
      return result;
    }
    if (!waiter.has_value()) {
      // Not ready: arm the waiter and rescan — the subscription must precede
      // the scan whose verdict licenses the park (waitq.h protocol).
      waiter.emplace(&wait_registry_);
      continue;
    }
    waiter->Wait(deadline, timed);
  }
}

SyscallResult VirtualKernel::ExecuteTime(const SyscallRequest& request) {
  switch (request.sysno) {
    case Sysno::kGettimeofday:
      return Ret(static_cast<int64_t>(clock_.NowMicros()));
    case Sysno::kClockGettime:
      return Ret(static_cast<int64_t>(clock_.NowNanos()));
    case Sysno::kRdtsc:
      return Ret(static_cast<int64_t>(clock_.Rdtsc()));
    case Sysno::kNanosleep:
      std::this_thread::sleep_for(std::chrono::nanoseconds(request.arg0));
      return Ret(0);
    default:
      return Err(-ENOSYS);
  }
}

uint32_t VirtualKernel::OrderDomainOf(ProcessState& process, const SyscallRequest& request) {
  switch (request.sysno) {
    // Descriptor-scoped ops: conflict only with ops on the same descriptor.
    // An invalid fd falls back to the namespace domain, which totally orders
    // the close/reopen traffic that decides *why* the fd was invalid — so
    // the -EBADF replays at the equivalent point in every variant.
    case Sysno::kLseek:
    case Sysno::kFcntl: {
      const uint32_t domain = process.fds().OrderDomainOf(static_cast<int32_t>(request.arg0));
      return domain == OrderDomainIds::kNone ? OrderDomainIds::kFdNamespace : domain;
    }

    // Address-space ops share one allocator; allocation order decides the
    // addresses every variant must agree on.
    case Sysno::kBrk:
    case Sysno::kMmap:
    case Sysno::kMunmap:
    case Sysno::kMprotect:
      return OrderDomainIds::kMemory;

    // Tid allocation.
    case Sysno::kClone:
      return OrderDomainIds::kProcess;

    // open/close/dup/pipe mutate the fd namespace; stat scans the shared
    // VFS, so it must order against open-with-create. socket/accept (the
    // replicated fd-allocating calls) are stamped here too by the monitor.
    default:
      return OrderDomainIds::kFdNamespace;
  }
}

VRef<VConnection> VirtualKernel::AcceptBlocking(ProcessState& process, int32_t listen_fd,
                                                int64_t* error) {
  VRef<VObject> listener_ref;
  {
    FdTable::Ref entry = process.fds().Get(listen_fd);
    if (!entry) {
      *error = -EBADF;
      return nullptr;
    }
    // One (kind, object) snapshot licenses the downcast; then share the
    // listener out of the slot — the lease must not be held across the wait
    // (a concurrent close needs to drain it).
    const FdTable::Ref::ObjectView view = entry.view();
    if (view.kind != FdKind::kListener || view.object == nullptr) {
      *error = -EBADF;
      return nullptr;
    }
    listener_ref = entry.ShareObject(view);
  }
  auto* listener = static_cast<VListener*>(listener_ref.get());
  // Wait-queue-driven accept: try, then subscribe-and-park until a
  // connection arrives, the listener closes, or the MVEE shuts down. The
  // Waiter is armed lazily so an accept with a pending connection (a loaded
  // server's common case) never touches the process-wide registry.
  std::optional<Waiter> waiter;
  for (;;) {
    if (waiter.has_value()) {
      waiter->Prepare();
    }
    bool closed = false;
    VRef<VConnection> conn = listener->TryAccept(&closed);
    if (conn != nullptr) {
      *error = 0;
      return conn;
    }
    if (closed || wait_registry_.shutdown()) {
      *error = -ECONNABORTED;
      return nullptr;
    }
    if (!waiter.has_value()) {
      // Subscribe, then re-try: the subscription must precede the check
      // whose verdict licenses the park (waitq.h protocol).
      waiter.emplace(&wait_registry_);
      waiter->Subscribe(listener->waitq());
      continue;
    }
    waiter->Wait({}, /*timed=*/false);
  }
}

int64_t VirtualKernel::FinishAccept(ProcessState& process, VRef<VConnection> conn) {
  FdEntry conn_entry;
  conn_entry.kind = FdKind::kConnServer;
  conn_entry.object = std::move(conn);
  return process.fds().Allocate(std::move(conn_entry));
}

void VirtualKernel::ShutdownBlockedCalls() {
  // One registry: every waitable object (pipes, connections, listeners, the
  // futex table) registered at creation; ShutdownAll closes them all and
  // wakes every parked waiter (waitq.h). No per-kind side lists.
  wait_registry_.ShutdownAll();
}

void VirtualKernel::NudgeBlockedCalls() {
  // Non-destructive wake of everything that could be stuck on a lost signal
  // (docs/DESIGN.md §9 watchdog ladder, stage 2). Futex waiters re-check
  // their word and re-queue if it still holds the expected value — a legal
  // spurious wake, exactly what FUTEX_WAKE permits. Waitq parks need no
  // nudge: every park is slice-bounded and re-scans (waitq.h).
  futexes_.WakeAll();
}

int64_t VirtualKernel::ApplyReplicatedEffect(ProcessState& process,
                                             const SyscallRequest& request,
                                             const SyscallResult& master_result) {
  FdTable& fds = process.fds();
  switch (request.sysno) {
    case Sysno::kRead: {
      // Advance the slave's file offset to keep later lseek(SEEK_CUR) and
      // sequential reads consistent. Pipes/sockets have no offset.
      FdTable::Ref entry = fds.Get(static_cast<int32_t>(request.arg0));
      if (entry && entry.file() != nullptr && master_result.retval > 0) {
        entry.AdvanceOffset(static_cast<uint64_t>(master_result.retval));
      }
      return 0;
    }
    case Sysno::kWrite: {
      FdTable::Ref entry = fds.Get(static_cast<int32_t>(request.arg0));
      if (entry && entry.file() != nullptr && master_result.retval > 0) {
        entry.AdvanceOffset(static_cast<uint64_t>(master_result.retval));
      }
      return 0;
    }
    case Sysno::kAccept: {
      // Install a shadow descriptor so the slave's fd numbering stays in sync
      // with the master's. The shadow has no connection: the slave never
      // performs real network I/O.
      if (master_result.retval < 0) {
        return 0;
      }
      FdEntry shadow;
      shadow.kind = FdKind::kConnServer;
      return fds.Allocate(std::move(shadow));
    }
    case Sysno::kSocket: {
      // Shadow socket descriptor; never backed by a real listener (the port
      // namespace is machine-shared, master-only).
      if (master_result.retval < 0) {
        return 0;
      }
      FdEntry shadow;
      shadow.kind = FdKind::kListener;
      return fds.Allocate(std::move(shadow));
    }
    case Sysno::kBind: {
      FdTable::Ref entry = fds.Get(static_cast<int32_t>(request.arg0));
      if (entry && master_result.retval == 0) {
        entry.set_port(static_cast<uint16_t>(request.arg1));
      }
      return 0;
    }
    case Sysno::kListen:
    case Sysno::kShutdown:
      return 0;  // Shadow descriptors carry no kernel object to act on.
    case Sysno::kConnect: {
      FdTable::Ref entry = fds.Get(static_cast<int32_t>(request.arg0));
      if (entry && master_result.retval == 0) {
        entry.PromoteToClientConn(nullptr);  // Shadow: kind flip only.
      }
      return 0;
    }
    default:
      return 0;
  }
}

}  // namespace mvee
