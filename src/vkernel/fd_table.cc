#include "mvee/vkernel/fd_table.h"

#include <bit>
#include <cerrno>

#include "mvee/syscall/record.h"
#include "mvee/util/spin.h"

namespace mvee {

// --- FdTable::Ref ------------------------------------------------------------

// The kind licenses the downcast, so every kind-checked accessor reads the
// packed word ONCE: kind and pointer can never be paired across a connect's
// listener -> connection flip.
static_assert(alignof(VObject) >= 8, "low obj_kind bits must be free for the FdKind");
static_assert(static_cast<uintptr_t>(FdKind::kConnClient) <= 7, "FdKind must fit 3 bits");

FdTable::Ref& FdTable::Ref::operator=(Ref&& other) noexcept {
  if (this != &other) {
    Release();
    table_ = other.table_;
    slot_ = other.slot_;
    leased_ = other.leased_;
    other.table_ = nullptr;
    other.slot_ = nullptr;
    other.leased_ = false;
  }
  return *this;
}

FdTable::Ref::~Ref() { Release(); }

void FdTable::Ref::Release() {
  if (leased_) {
    slot_->state.fetch_sub(kReaderOne, std::memory_order_release);
  }
  table_ = nullptr;
  slot_ = nullptr;
  leased_ = false;
}

FdTable::Ref::ObjectView FdTable::Ref::view() const {
  const uintptr_t word = slot_->obj_kind.load(std::memory_order_acquire);
  return ObjectView{KindOf(word), ObjectOf(word)};
}

FdKind FdTable::Ref::kind() const {
  return KindOf(slot_->obj_kind.load(std::memory_order_acquire));
}

VObject* FdTable::Ref::object() const {
  return ObjectOf(slot_->obj_kind.load(std::memory_order_acquire));
}

VFile* FdTable::Ref::file() const {
  const uintptr_t word = slot_->obj_kind.load(std::memory_order_acquire);
  return KindOf(word) == FdKind::kFile ? static_cast<VFile*>(ObjectOf(word)) : nullptr;
}

VPipe* FdTable::Ref::pipe() const {
  const uintptr_t word = slot_->obj_kind.load(std::memory_order_acquire);
  const FdKind k = KindOf(word);
  return k == FdKind::kPipeRead || k == FdKind::kPipeWrite
             ? static_cast<VPipe*>(ObjectOf(word))
             : nullptr;
}

VListener* FdTable::Ref::listener() const {
  const uintptr_t word = slot_->obj_kind.load(std::memory_order_acquire);
  return KindOf(word) == FdKind::kListener ? static_cast<VListener*>(ObjectOf(word))
                                           : nullptr;
}

VConnection* FdTable::Ref::conn() const {
  const uintptr_t word = slot_->obj_kind.load(std::memory_order_acquire);
  const FdKind k = KindOf(word);
  return k == FdKind::kConnServer || k == FdKind::kConnClient
             ? static_cast<VConnection*>(ObjectOf(word))
             : nullptr;
}

VRef<VObject> FdTable::Ref::ShareObject(const ObjectView& view) const {
  return ShareVRef(view.object);
}

uint64_t FdTable::Ref::offset() const { return slot_->offset.load(std::memory_order_relaxed); }
void FdTable::Ref::set_offset(uint64_t offset) {
  slot_->offset.store(offset, std::memory_order_relaxed);
}
void FdTable::Ref::AdvanceOffset(uint64_t delta) {
  slot_->offset.fetch_add(delta, std::memory_order_relaxed);
}
int64_t FdTable::Ref::flags() const { return slot_->flags; }
uint16_t FdTable::Ref::port() const { return slot_->port.load(std::memory_order_relaxed); }
void FdTable::Ref::set_port(uint16_t port) {
  slot_->port.store(port, std::memory_order_relaxed);
}
uint32_t FdTable::Ref::order_domain() const { return slot_->order_domain; }
const std::string& FdTable::Ref::path() const { return slot_->path; }

void FdTable::Ref::InstallListener(VRef<VListener> listener) {
  // Common case: a bare socket (null object) becoming a listener; the slot
  // owns the reference until Close. The release exchange pairs with the
  // readers' acquire loads. A displaced non-null object (degenerate
  // re-listen) cannot be Unref'd here — a concurrent leased reader may
  // still hold its raw pointer — so it parks in the table's retired list.
  const uintptr_t desired = PackObjKind(listener.Release(), FdKind::kListener);
  const uintptr_t previous = slot_->obj_kind.exchange(desired, std::memory_order_acq_rel);
  if (ObjectOf(previous) != nullptr) {
    table_->RetireObject(ObjectOf(previous));
  }
}

void FdTable::Ref::PromoteToClientConn(VRef<VConnection> conn) {
  const uintptr_t desired = PackObjKind(conn.Release(), FdKind::kConnClient);
  const uintptr_t previous = slot_->obj_kind.exchange(desired, std::memory_order_acq_rel);
  if (ObjectOf(previous) != nullptr) {
    table_->RetireObject(ObjectOf(previous));
  }
}

void FdTable::Ref::LeakLease() {
  if (!leased_) {
    return;  // Empty (or already leaked): no lease to leak.
  }
  table_->RecordLeakedLease(slot_);
  leased_ = false;  // ~Ref will not release; the reader count stays elevated.
}

// --- FdTable -----------------------------------------------------------------

FdTable::FdTable() : next_order_domain_(OrderDomainIds::kFirstFd) {
  stdout_file_ = MakeVRef<VFile>();

  FdEntry in;
  in.kind = FdKind::kFile;
  in.object = MakeVRef<VFile>();
  in.path = "<stdin>";
  FdEntry out;
  out.kind = FdKind::kFile;
  out.object = stdout_file_;
  out.path = "<stdout>";
  FdEntry err;
  err.kind = FdKind::kFile;
  err.object = MakeVRef<VFile>();
  err.path = "<stderr>";
  Allocate(std::move(in));
  Allocate(std::move(out));
  Allocate(std::move(err));
}

FdTable::~FdTable() {
  for (Slot& slot : slots_) {
    VObject* object = ObjectOf(slot.obj_kind.exchange(0, std::memory_order_relaxed));
    if (object != nullptr) {
      object->Unref();
    }
  }
  for (VObject* object : retired_) {
    object->Unref();
  }
}

void FdTable::RetireObject(VObject* object) {
  std::lock_guard<std::mutex> lock(retired_mutex_);
  retired_.push_back(object);
}

void FdTable::RecordLeakedLease(Slot* slot) {
  std::lock_guard<std::mutex> lock(retired_mutex_);
  leaked_leases_.push_back(slot);
}

size_t FdTable::ReleaseAbandonedLeases() {
  std::vector<Slot*> leaked;
  {
    std::lock_guard<std::mutex> lock(retired_mutex_);
    leaked.swap(leaked_leases_);
  }
  for (Slot* slot : leaked) {
    // Same release a ~Ref would have performed; a Close spinning in its
    // reader drain observes the count reach zero and completes.
    slot->state.fetch_sub(kReaderOne, std::memory_order_release);
  }
  return leaked.size();
}

size_t FdTable::AbandonedLeaseCount() const {
  std::lock_guard<std::mutex> lock(retired_mutex_);
  return leaked_leases_.size();
}

int32_t FdTable::LowestFree() const {
  for (size_t word = 0; word < live_bitmap_.size(); ++word) {
    if (live_bitmap_[word] != ~uint64_t{0}) {
      const int bit = std::countr_one(live_bitmap_[word]);
      return static_cast<int32_t>(word * 64 + static_cast<size_t>(bit));
    }
  }
  return -1;
}

void FdTable::Publish(Slot& slot, FdEntry&& entry) {
  slot.obj_kind.store(PackObjKind(entry.object.Release(), entry.kind),
                      std::memory_order_relaxed);
  slot.offset.store(entry.offset, std::memory_order_relaxed);
  slot.port.store(entry.port, std::memory_order_relaxed);
  slot.flags = entry.flags;
  slot.path = std::move(entry.path);
  slot.order_domain = next_order_domain_++;
  // The release gen bump is the publication edge: a reader whose acquire RMW
  // observes the odd generation observes every plain field written above.
  slot.state.fetch_add(kGenOne, std::memory_order_release);
}

int32_t FdTable::Allocate(FdEntry entry) {
  std::lock_guard<std::mutex> lock(mutex_);
  const int32_t fd = LowestFree();
  if (fd < 0) {
    return -EMFILE;
  }
  live_bitmap_[static_cast<size_t>(fd) / 64] |= uint64_t{1} << (fd % 64);
  Publish(slots_[static_cast<size_t>(fd)], std::move(entry));
  return fd;
}

int32_t FdTable::Dup(int32_t fd) {
  // The duplicate has its own offset/flags state in this kernel (entries
  // are copied, not shared descriptions), so it gets its own ordering
  // domain (assigned by Publish).
  FdEntry copy;
  {
    // Copy under the source's lease FIRST, then allocate — holding a lease
    // while taking the allocation mutex would deadlock against a Close that
    // holds the mutex while draining leases.
    Ref source = Get(fd);
    if (!source) {
      return -EBADF;
    }
    const Ref::ObjectView view = source.view();
    copy.kind = view.kind;
    copy.object = source.ShareObject(view);
    copy.offset = source.offset();
    copy.flags = source.flags();
    copy.path = source.path();
    copy.port = source.port();
  }
  return Allocate(std::move(copy));
}

FdTable::Ref FdTable::Get(int32_t fd) {
  if (fd < 0 || fd >= kMaxFds) {
    return Ref{};
  }
  Slot& slot = slots_[static_cast<size_t>(fd)];
  // Lock-free lease: one acquire RMW in, parity check, one release RMW out
  // (in ~Ref). A transient bump on a free slot never touches the payload.
  const uint64_t state = slot.state.fetch_add(kReaderOne, std::memory_order_acquire);
  if (!LiveState(state)) {
    slot.state.fetch_sub(kReaderOne, std::memory_order_release);
    return Ref{};
  }
  return Ref{this, &slot};
}

void FdTable::TearDown(Slot& slot, uint64_t state_after_kill) {
  // Drain reader leases: the gen is already even, so no new lease succeeds;
  // transient failed-lookup bumps resolve in a few instructions.
  SpinWait waiter;
  uint64_t state = state_after_kill;
  while (ReadersOf(state) != 0) {
    waiter.Pause();
    state = slot.state.load(std::memory_order_acquire);
  }
  const uintptr_t word = slot.obj_kind.exchange(0, std::memory_order_relaxed);
  const FdKind kind = KindOf(word);
  VObject* object = ObjectOf(word);
  // Shadow entries in slave variants carry no kernel object; guard for null.
  if (object != nullptr) {
    switch (kind) {
      case FdKind::kPipeRead:
        static_cast<VPipe*>(object)->CloseReadEnd();
        break;
      case FdKind::kPipeWrite:
        static_cast<VPipe*>(object)->CloseWriteEnd();
        break;
      case FdKind::kConnServer:
        static_cast<VConnection*>(object)->CloseServerSide();
        break;
      case FdKind::kConnClient:
        static_cast<VConnection*>(object)->CloseClientSide();
        break;
      case FdKind::kListener:
        static_cast<VListener*>(object)->Close();
        break;
      default:
        break;
    }
    object->Unref();
  }
  slot.offset.store(0, std::memory_order_relaxed);
  slot.port.store(0, std::memory_order_relaxed);
  slot.flags = 0;
  slot.order_domain = 0;
  slot.path.clear();
}

int64_t FdTable::Close(int32_t fd) {
  if (fd < 0 || fd >= kMaxFds) {
    return -EBADF;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  Slot& slot = slots_[static_cast<size_t>(fd)];
  if (!LiveState(slot.state.load(std::memory_order_relaxed))) {
    return -EBADF;
  }
  // Kill: flip the generation so new lookups fail, then drain and reclaim.
  const uint64_t state = slot.state.fetch_add(kGenOne, std::memory_order_acq_rel) + kGenOne;
  TearDown(slot, state);
  live_bitmap_[static_cast<size_t>(fd) / 64] &= ~(uint64_t{1} << (fd % 64));
  return 0;
}

uint32_t FdTable::OrderDomainOf(int32_t fd) const {
  // const_cast: Get only manipulates the slot's atomic state word.
  Ref ref = const_cast<FdTable*>(this)->Get(fd);
  if (!ref) {
    return OrderDomainIds::kNone;
  }
  return ref.order_domain();
}

size_t FdTable::LiveCount() const {
  std::lock_guard<std::mutex> lock(mutex_);
  size_t live = 0;
  for (const uint64_t word : live_bitmap_) {
    live += static_cast<size_t>(std::popcount(word));
  }
  return live;
}

}  // namespace mvee
