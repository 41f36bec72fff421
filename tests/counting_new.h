// Counting replacements for the whole global operator new/delete family,
// for the zero-allocation contracts in span_test and observability_test
// and the hostile-payload allocation bound in durability_test.
//
// Include from exactly ONE translation unit per test binary: this header
// defines the replaceable global allocation functions. Every variant is
// replaced — plain, array, sized, nothrow, and aligned — so memory taken
// by one form (std::stable_sort's nothrow temporary buffer, say) is
// always released by a replaced counterpart of the same family, which is
// what AddressSanitizer's alloc-dealloc-mismatch check verifies.
#ifndef AUTOSTATS_TESTS_COUNTING_NEW_H_
#define AUTOSTATS_TESTS_COUNTING_NEW_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace {

// Every allocation in the process. Tests snapshot the counter around an
// instrumented region; the region is allocation-free iff it did not move.
std::atomic<uint64_t> g_allocations{0};

// The largest single request since a test last reset it to 0: bounds the
// memory a hostile input can make a decoder ask for.
std::atomic<std::size_t> g_largest_allocation{0};

void* CountedAlloc(std::size_t size, std::size_t align = 0) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  std::size_t largest = g_largest_allocation.load(std::memory_order_relaxed);
  while (size > largest &&
         !g_largest_allocation.compare_exchange_weak(
             largest, size, std::memory_order_relaxed)) {
  }
  if (size == 0) size = 1;
  if (align <= alignof(std::max_align_t)) return std::malloc(size);
  void* p = nullptr;
  return ::posix_memalign(&p, align, size) == 0 ? p : nullptr;
}

void* CountedAllocOrThrow(std::size_t size, std::size_t align = 0) {
  if (void* p = CountedAlloc(size, align)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return CountedAllocOrThrow(n); }
void* operator new[](std::size_t n) { return CountedAllocOrThrow(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  return CountedAllocOrThrow(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return CountedAllocOrThrow(n, static_cast<std::size_t>(a));
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return CountedAlloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return CountedAlloc(n);
}
void* operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  return CountedAlloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  return CountedAlloc(n, static_cast<std::size_t>(a));
}

// malloc and posix_memalign memory both release through free.
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

#endif  // AUTOSTATS_TESTS_COUNTING_NEW_H_
