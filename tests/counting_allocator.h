// Test helper: a binary-wide heap allocation counter.
//
// Every operator new in the including binary bumps g_heap_allocs, so a test
// can snapshot the counter around a steady-state loop and assert a zero
// delta on an allocation-free hot path. Deletes are not tracked (only
// allocation matters). Every replaceable new/delete pair is defined here,
// sized and aligned forms included, so memory from the aligned allocator is
// always returned through a matching delete. Include it from exactly one
// translation unit per test binary: it defines the global replacement
// operators.

#ifndef MVEE_TESTS_COUNTING_ALLOCATOR_H_
#define MVEE_TESTS_COUNTING_ALLOCATOR_H_

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace {
std::atomic<uint64_t> g_heap_allocs{0};

void* CountedAlloc(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* ptr = std::malloc(size == 0 ? 1 : size)) {
    return ptr;
  }
  throw std::bad_alloc{};
}

void* CountedAlignedAlloc(std::size_t size, std::size_t align) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  void* ptr = nullptr;
  if (posix_memalign(&ptr, align < sizeof(void*) ? sizeof(void*) : align,
                     size == 0 ? 1 : size) != 0) {
    throw std::bad_alloc{};
  }
  return ptr;
}
}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::align_val_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::align_val_t) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t, std::align_val_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t, std::align_val_t) noexcept { std::free(ptr); }

#endif  // MVEE_TESTS_COUNTING_ALLOCATOR_H_
