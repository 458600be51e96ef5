// Syscall request/result records.
//
// A variant thread that performs a virtual system call builds a
// SyscallRequest and traps into the monitor. The monitor compares the
// *comparable view* of equivalent requests across variants (paper §2: "use a
// monitor to compare the variants' behavior at the level of system calls").
//
// The comparable view must be layout-diversity-agnostic: raw pointers differ
// across variants under ASLR, so buffer arguments are compared by length and
// content, and in-variant addresses are compared after normalization to
// logical (base-relative) form by the variant runtime. In lockstep the
// monitor compares a scalar digest (which covers the buffer's length) and
// then the buffer bytes themselves, in place; loose mode, whose leader has
// moved on by the time a follower checks, compares a digest of everything.

#ifndef MVEE_SYSCALL_RECORD_H_
#define MVEE_SYSCALL_RECORD_H_

#include <atomic>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "mvee/syscall/sysno.h"
#include "mvee/util/arena.h"
#include "mvee/util/hash.h"

namespace mvee {

// Operational arguments for every virtual syscall. A plain struct (not a
// variant type) keeps trap-site code simple; unused fields stay default.
struct SyscallRequest {
  Sysno sysno = Sysno::kExit;

  // Scalar arguments (fds, flags, sizes, ports, futex ops...).
  int64_t arg0 = 0;
  int64_t arg1 = 0;
  int64_t arg2 = 0;
  int64_t arg3 = 0;

  // Path-like argument (open/stat/unlink).
  std::string path;

  // Logical thread id of the caller, stamped by VariantEnv::Syscall.
  // Identical across variants by construction (the monitor assigns logical
  // tids at clone rendezvous), so it is redundant with — and excluded from —
  // the comparison. The kernel keys per-thread-set state on it (the
  // counted getrandom RNG streams); direct kernel calls default to stream 0.
  uint32_t tid = 0;

  // Input data (write/send/pwrite): owned by the caller for the duration of
  // the call.
  std::span<const uint8_t> in_data;

  // Output buffer (read/recv/pread): filled by the kernel (master) or from
  // the replication buffer (slaves).
  std::span<uint8_t> out_data;

  // Normalized (diversity-agnostic) address token for memory calls. The
  // variant runtime translates its diversified virtual address to this
  // logical form before trapping.
  uint64_t logical_addr = 0;

  // Raw in-variant address (munmap/mprotect target). Differs across variants
  // under ASLR, so it is *excluded* from the comparison; the monitor
  // compares logical_addr instead.
  uint64_t local_addr = 0;

  // Futex word the kernel re-checks under the bucket lock (sys_futex WAIT).
  // Master-variant memory; never dereferenced for slaves. Not compared.
  const std::atomic<int32_t>* futex_word = nullptr;

  // Monitor-provided pooled buffer the kernel writes replicated output
  // payloads into (round-slab / loose-record scoped; see util/arena.h).
  // nullptr (native runner, direct kernel calls) means the kernel fills only
  // out_data and the result carries no payload. Not compared.
  PayloadBuffer* payload_pool = nullptr;

  // Digest of the compared scalar fields: sysno, arg0..3, path,
  // logical_addr and in_data's size. Excludes raw pointers and the in_data
  // bytes: the lockstep opener compares those in place (SamePayload).
  uint64_t ScalarDigest() const {
    uint64_t digest = MixWord(0, static_cast<uint64_t>(sysno));
    digest = MixWord(digest, static_cast<uint64_t>(arg0));
    digest = MixWord(digest, static_cast<uint64_t>(arg1));
    digest = MixWord(digest, static_cast<uint64_t>(arg2));
    digest = MixWord(digest, static_cast<uint64_t>(arg3));
    digest = MixWord(digest, WordHashBytes(path.data(), path.size()));
    digest = MixWord(digest, logical_addr);
    return MixWord(digest, static_cast<uint64_t>(in_data.size()));
  }

  // The loose-mode digest: the scalar digest plus a word-wise hash of the
  // in_data bytes.
  uint64_t ComparableDigest() const {
    return MixWord(ScalarDigest(), WordHashBytes(in_data.data(), in_data.size()));
  }

  // True iff in_data holds the same bytes as `other`'s, compared in place.
  // Sizes are compared first, so a scalar-digest collision never makes the
  // memcmp read past the shorter buffer.
  bool SamePayload(const SyscallRequest& other) const {
    return in_data.size() == other.in_data.size() &&
           (in_data.empty() ||
            std::memcmp(in_data.data(), other.in_data.data(), in_data.size()) == 0);
  }

  // Names the first compared field that differs from `other`: "sysno",
  // "arg0".."arg3", "path", "logical_addr", "in_data size" or
  // "in_data byte <offset>". Empty when every compared field agrees. For
  // divergence reports only.
  std::string FirstComparedDifference(const SyscallRequest& other) const;

  // Human-readable one-liner for divergence reports.
  std::string ToString() const;
};

// Well-known syscall-ordering domain ids (docs/syscall_ordering.md).
//
// Under sharded ordering the monitor partitions ordered calls by the
// resource they touch instead of funnelling them through one global clock.
// Ids below kFirstFd are process-wide domains; ids >= kFirstFd are per-fd
// domains handed out by the fd table at descriptor allocation and retired at
// close. The master stamps the domain id into every ordered result so slaves
// know which clock to replay against — slaves never compute domains locally.
struct OrderDomainIds {
  // Calls that mutate or scan the fd/path namespace (open, close, dup, pipe,
  // stat, plus the allocation half of socket/accept). Serializing these is
  // what keeps fd numbering identical across variants (§3.1).
  static constexpr uint32_t kFdNamespace = 0;
  // Address-space calls (brk/mmap/munmap/mprotect): one allocator per
  // process, so allocation order decides addresses.
  static constexpr uint32_t kMemory = 1;
  // Process-level calls (clone): the tid namespace.
  static constexpr uint32_t kProcess = 2;
  // First per-fd domain id; everything below is a fixed process-wide domain.
  static constexpr uint32_t kFirstFd = 16;
  // Sentinel for "no domain" (e.g. a close() target with no per-fd domain).
  static constexpr uint32_t kNone = UINT32_MAX;
};

// Result of a virtual syscall. retval follows the Linux convention: >= 0 on
// success, negative errno on failure.
struct SyscallResult {
  int64_t retval = 0;
  // For replicated calls: the bytes produced into the caller's out buffer,
  // viewing the pooled buffer passed via SyscallRequest::payload_pool. Valid
  // until that round/record is recycled — i.e. until every variant drained
  // the round — so slaves copy straight from the pool into their own out
  // buffers with no intermediate clone. Empty when no pool was provided.
  std::span<const uint8_t> out_payload;
  // Timestamp from the master monitor's syscall-ordering clock (kOrdered
  // calls only); slaves spin until their private clock matches (§4.1).
  // Under sharded ordering the timestamp counts within `order_domain` only.
  uint64_t order_timestamp = 0;
  // Ordering domain the timestamp belongs to (sharded ordering only; the
  // global-clock baseline leaves it at kFdNamespace and ignores it).
  uint32_t order_domain = OrderDomainIds::kFdNamespace;
  // Monitor-internal pointer to the stamped OrderDomain, letting slaves
  // replay without a domain-table lookup. Type-erased so the syscall layer
  // stays free of monitor types; never crosses the process boundary and is
  // only valid while the owning monitor lives (domains are stable until
  // end-of-run reclamation). nullptr => resolve via order_domain.
  void* order_domain_hint = nullptr;

  bool ok() const { return retval >= 0; }
};

// Counters kept by the monitor per thread-set; Table 2 of the paper reports
// syscall and sync-op rates per benchmark.
struct SyscallCounters {
  uint64_t total = 0;
  uint64_t replicated = 0;
  uint64_t ordered = 0;
  uint64_t local = 0;
  uint64_t control = 0;

  void Count(SyscallClass klass) {
    ++total;
    switch (klass) {
      case SyscallClass::kReplicated:
        ++replicated;
        break;
      case SyscallClass::kOrdered:
        ++ordered;
        break;
      case SyscallClass::kLocal:
        ++local;
        break;
      case SyscallClass::kControl:
        ++control;
        break;
    }
  }
};

// Relaxed-atomic counterpart, sharded one-per-thread-set by the monitor (the
// seed funneled every round of every thread set through one counters mutex —
// a global lock and a shared cache line on the hottest path). Cache-line
// aligned so co-located shards don't false-share; aggregated into a plain
// SyscallCounters snapshot at report time, exact once threads are quiescent.
struct alignas(64) AtomicSyscallCounters {
  std::atomic<uint64_t> total{0};
  std::atomic<uint64_t> replicated{0};
  std::atomic<uint64_t> ordered{0};
  std::atomic<uint64_t> local{0};
  std::atomic<uint64_t> control{0};

  void Count(SyscallClass klass) {
    total.fetch_add(1, std::memory_order_relaxed);
    switch (klass) {
      case SyscallClass::kReplicated:
        replicated.fetch_add(1, std::memory_order_relaxed);
        break;
      case SyscallClass::kOrdered:
        ordered.fetch_add(1, std::memory_order_relaxed);
        break;
      case SyscallClass::kLocal:
        local.fetch_add(1, std::memory_order_relaxed);
        break;
      case SyscallClass::kControl:
        control.fetch_add(1, std::memory_order_relaxed);
        break;
    }
  }

  void AccumulateInto(SyscallCounters* out) const {
    out->total += total.load(std::memory_order_relaxed);
    out->replicated += replicated.load(std::memory_order_relaxed);
    out->ordered += ordered.load(std::memory_order_relaxed);
    out->local += local.load(std::memory_order_relaxed);
    out->control += control.load(std::memory_order_relaxed);
  }

  SyscallCounters Snapshot() const {
    SyscallCounters out;
    AccumulateInto(&out);
    return out;
  }
};

}  // namespace mvee

#endif  // MVEE_SYSCALL_RECORD_H_
