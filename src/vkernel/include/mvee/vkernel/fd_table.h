// Per-process file descriptor table.
//
// Descriptors are allocated lowest-available-first, exactly like Linux. This
// is the property the paper's motivating example in §3.1 relies on: if two
// threads open files and the MVEE does not order the sys_open calls, the
// variants can hand different fd numbers to equivalent threads and diverge
// when the fds are printed or used.
//
// Layout (docs/DESIGN.md §7): a fixed, directly-indexed slot array. Each
// slot carries one generation-tagged state word ([gen:32][readers:32], gen
// odd = live) and ONE intrusive-refcounted VObject* instead of the seed's
// four shared_ptr fields. The hot lookup path is lock-free: Get() is a
// reader lease (one fetch_add, one parity check, one fetch_sub at release)
// that pins the slot against teardown; Close flips the generation so new
// lookups fail, drains the leases, then reclaims. The mutate paths
// (allocate/dup/close) serialize on one allocation mutex — they are
// fd-namespace-ordered by the monitor anyway.

#ifndef MVEE_VKERNEL_FD_TABLE_H_
#define MVEE_VKERNEL_FD_TABLE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "mvee/vkernel/net.h"
#include "mvee/vkernel/pipe.h"
#include "mvee/vkernel/vfs.h"
#include "mvee/vkernel/vobject.h"

namespace mvee {

enum class FdKind : uint8_t {
  kFree = 0,
  kFile,
  kPipeRead,
  kPipeWrite,
  kListener,
  kConnServer,  // accepted side
  kConnClient,  // connecting side
};

// Allocation descriptor for FdTable::Allocate: what the new fd points at.
// One polymorphic object reference; the kind says how to downcast it.
struct FdEntry {
  FdKind kind = FdKind::kFree;
  VRef<VObject> object;
  uint64_t offset = 0;
  int64_t flags = 0;
  std::string path;
  uint16_t port = 0;
};

// Thread-safe fd table. fds 0..2 are reserved at construction for
// stdin/stdout/stderr (backed by VFiles so output can be inspected).
class FdTable {
 public:
  // Fixed capacity: descriptors are dense small ints (Linux: RLIMIT_NOFILE);
  // a full table fails Allocate with -EMFILE. Fixed storage is what makes
  // the lock-free lookup safe — the seed's growable vector could relocate
  // under a concurrent Get.
  static constexpr int32_t kMaxFds = 1024;

  FdTable();
  ~FdTable();
  FdTable(const FdTable&) = delete;
  FdTable& operator=(const FdTable&) = delete;

  struct Slot;

  // Leased view of a live descriptor. While a Ref is held the slot cannot be
  // torn down: Close drains leases before reclaiming, so the
  // object pointer stays valid. Scalar fields that legitimately change on a
  // live descriptor (offset, port, kind on connect, the object on listen)
  // are atomics in the slot; everything else is frozen after allocation.
  // Do not hold a Ref across a blocking call or cache it across syscalls.
  class Ref {
   public:
    Ref() = default;
    Ref(Ref&& other) noexcept
        : table_(other.table_), slot_(other.slot_), leased_(other.leased_) {
      other.table_ = nullptr;
      other.slot_ = nullptr;
      other.leased_ = false;
    }
    Ref& operator=(Ref&& other) noexcept;
    Ref(const Ref&) = delete;
    Ref& operator=(const Ref&) = delete;
    ~Ref();

    explicit operator bool() const { return slot_ != nullptr; }

    // Atomic snapshot of the slot's (kind, object) pair — ONE load of the
    // packed word. Use this whenever a decision spans more than one kind or
    // object read (blocking-call dispatch, poll scans): separate accessor
    // calls re-read the word, and a concurrent connect() flipping the slot
    // between reads would pair a stale kind with a new object. The raw
    // pointer stays valid for the lease's lifetime (teardown drains leases;
    // displaced objects are retired, not freed).
    struct ObjectView {
      FdKind kind = FdKind::kFree;
      VObject* object = nullptr;
    };
    ObjectView view() const;

    FdKind kind() const;
    // Kind-checked downcasts; nullptr when the kind does not match (or the
    // slot carries no object, e.g. slave shadow descriptors). Each reads the
    // packed word once; do not chain two calls for one decision (see view).
    VFile* file() const;
    VPipe* pipe() const;
    VListener* listener() const;
    VConnection* conn() const;
    VObject* object() const;
    // Shares `view.object` out of the slot (for use past the lease lifetime,
    // e.g. poll subscriptions, blocking accept).
    VRef<VObject> ShareObject(const ObjectView& view) const;

    uint64_t offset() const;
    void set_offset(uint64_t offset);
    void AdvanceOffset(uint64_t delta);
    int64_t flags() const;
    uint16_t port() const;
    void set_port(uint16_t port);
    uint32_t order_domain() const;
    const std::string& path() const;

    // sys_listen: installs the listener object on a bare socket slot.
    void InstallListener(VRef<VListener> listener);
    // sys_connect: installs the connection and flips the kind.
    void PromoteToClientConn(VRef<VConnection> conn);

    // Fault injection only (docs/fault_injection.md, leak-fd-lease): forgets
    // to release the lease on destruction, leaving the slot's reader count
    // permanently elevated — a later Close wedges in its drain until
    // ReleaseAbandonedLeases repairs the count. No-op for an empty Ref.
    void LeakLease();

   private:
    friend class FdTable;
    Ref(FdTable* table, Slot* slot) : table_(table), slot_(slot), leased_(true) {}
    void Release();

    FdTable* table_ = nullptr;
    Slot* slot_ = nullptr;
    bool leased_ = false;
  };

  // Allocates the lowest free descriptor and installs `entry`; -EMFILE when
  // the table is full.
  int32_t Allocate(FdEntry entry);
  // Duplicates `fd` into the lowest free slot; -EBADF if invalid.
  int32_t Dup(int32_t fd);
  // Returns an empty Ref if `fd` is invalid or free.
  Ref Get(int32_t fd);
  // Releases the descriptor; returns 0 or -EBADF. Closing the last pipe /
  // connection descriptor closes the underlying endpoint.
  int64_t Close(int32_t fd);
  // Number of live descriptors (including stdio).
  size_t LiveCount() const;

  // The ordering domain of `fd`, or OrderDomainIds::kNone if the descriptor
  // is invalid/free. Returned by value so the monitor can read it without
  // holding a lease across the call.
  uint32_t OrderDomainOf(int32_t fd) const;

  // The VFile behind stdout (fd 1); convenient for output assertions.
  VRef<VFile> StdoutFile() const { return stdout_file_; }

  // Excision repair (docs/DESIGN.md §9): returns every lease recorded by
  // Ref::LeakLease to its slot (one fetch_sub per leak), unwedging any Close
  // stuck draining readers. Safe from any thread; returns the number of
  // leases repaired.
  size_t ReleaseAbandonedLeases();
  // Leaked leases recorded and not yet repaired.
  size_t AbandonedLeaseCount() const;

  // One descriptor slot. [gen:32][readers:32]; gen odd = live. The state
  // word is the only rendezvous between lock-free readers and the mutate
  // paths: Allocate publishes the filled slot with a release gen bump,
  // readers validate with an acquire RMW, Close bumps gen again and drains
  // the reader count before tearing the payload down.
  //
  // `obj_kind` packs the owned VObject* and the FdKind into ONE atomic word
  // ([ptr:61][kind:3]; VObject alignment >= 8 keeps the low bits free) so a
  // lock-free reader can never pair a stale kind with a new object — the
  // kind is what licenses the downcast, so splitting them would be a
  // type-confusion window on connect's listener -> connection flip.
  struct alignas(64) Slot {
    std::atomic<uint64_t> state{0};
    std::atomic<uintptr_t> obj_kind{0};
    std::atomic<uint64_t> offset{0};
    std::atomic<uint16_t> port{0};
    int64_t flags = 0;          // frozen after allocation
    uint32_t order_domain = 0;  // frozen after allocation
    std::string path;           // frozen after allocation
  };

 private:
  static constexpr uint64_t kReaderOne = 1;
  static constexpr uint64_t kGenOne = uint64_t{1} << 32;
  static constexpr bool LiveState(uint64_t state) { return ((state >> 32) & 1) != 0; }
  static constexpr uint32_t ReadersOf(uint64_t state) {
    return static_cast<uint32_t>(state & 0xffffffffu);
  }

  static constexpr uintptr_t kKindMask = 7;
  static FdKind KindOf(uintptr_t word) { return static_cast<FdKind>(word & kKindMask); }
  static VObject* ObjectOf(uintptr_t word) {
    return reinterpret_cast<VObject*>(word & ~kKindMask);
  }
  static uintptr_t PackObjKind(VObject* object, FdKind kind) {
    return reinterpret_cast<uintptr_t>(object) | static_cast<uintptr_t>(kind);
  }

  // Defers the release of an object displaced from a live slot (degenerate
  // re-listen / re-connect): a leased reader may still hold the raw pointer,
  // and the lease pins the slot, not the object. Displacements are
  // essentially nonexistent in real traffic, so parking them until table
  // destruction is cheaper than a reclamation protocol.
  void RetireObject(VObject* object);

  // Records a lease deliberately dropped by Ref::LeakLease (fault injection)
  // so ReleaseAbandonedLeases can repair the reader count later.
  void RecordLeakedLease(Slot* slot);

  // Fills `slot` from `entry` and publishes it live. Allocation lock held.
  void Publish(Slot& slot, FdEntry&& entry);
  // Finds the lowest free fd in the bitmap, or -1. Allocation lock held.
  int32_t LowestFree() const;
  // Drains reader leases and tears the slot down. Allocation lock held;
  // `state_after_kill` is the state word right after the gen flip.
  void TearDown(Slot& slot, uint64_t state_after_kill);

  mutable std::mutex mutex_;  // allocation/teardown
  std::array<Slot, kMaxFds> slots_;
  std::array<uint64_t, kMaxFds / 64> live_bitmap_{};
  // Displaced-object parking lot (RetireObject). Own mutex: retirement runs
  // under a slot lease, and mutex_ may be held by a Close draining leases.
  mutable std::mutex retired_mutex_;
  std::vector<VObject*> retired_;
  // Slots with a deliberately-leaked reader lease (fault injection); guarded
  // by retired_mutex_ (same cold-path locking domain as the parking lot).
  std::vector<Slot*> leaked_leases_;
  VRef<VFile> stdout_file_;
  // Next per-fd ordering domain id. Monotonic (no reuse); every variant's
  // table hands out the same sequence because fd-namespace calls are totally
  // ordered by the monitor, so only the master's ids ever reach the wire.
  uint32_t next_order_domain_;
};

}  // namespace mvee

#endif  // MVEE_VKERNEL_FD_TABLE_H_
