// Per-variant kernel-side process state.
//
// Each variant of the protected program gets its own process state: a file
// descriptor table and an address space. Shared machine state (filesystem,
// network, clock, futex table) lives in VirtualKernel.

#ifndef MVEE_VKERNEL_PROCESS_H_
#define MVEE_VKERNEL_PROCESS_H_

#include <atomic>
#include <cstdint>

#include "mvee/vkernel/fd_table.h"
#include "mvee/vkernel/memory.h"

namespace mvee {

class ProcessState {
 public:
  // `heap_base` / `map_base` encode the variant's (simulated) address-space
  // layout diversity.
  ProcessState(int32_t pid, uint64_t heap_base, uint64_t map_base)
      : pid_(pid), address_space_(heap_base, map_base) {}

  int32_t pid() const { return pid_; }
  FdTable& fds() { return fds_; }
  AddressSpace& memory() { return address_space_; }

  // Which MVEE variant owns this process state. Defaults to 0 (standalone
  // constructions); the monitor stamps it so kernel-side fault attribution
  // (docs/fault_injection.md) can name the victim variant.
  uint32_t variant_index() const { return variant_index_; }
  void set_variant_index(uint32_t index) { variant_index_ = index; }

  // Allocates a kernel thread id for sys_clone.
  int32_t NextTid() { return next_tid_.fetch_add(1, std::memory_order_relaxed); }

 private:
  const int32_t pid_;
  uint32_t variant_index_ = 0;
  FdTable fds_;
  AddressSpace address_space_;
  std::atomic<int32_t> next_tid_{2};  // tid 1 is the initial thread.
};

}  // namespace mvee

#endif  // MVEE_VKERNEL_PROCESS_H_
