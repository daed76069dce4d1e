// Global operator new/delete replacements that count allocations per
// thread (the same technique as bench/micro_ops.cc), so the benchmark can
// report allocations per ThreadedCluster::Serve and ServingCore::ServeInto.
// Allocation itself is plain malloc/free.
#include <cstdint>
#include <cstdlib>
#include <new>

#include "bench.h"

namespace {
thread_local std::uint64_t g_allocs = 0;

void* Counted(std::size_t size) {
  ++g_allocs;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* CountedAligned(std::size_t size, std::align_val_t align) {
  ++g_allocs;
  const auto a = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(a, (size + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}
}  // namespace

namespace helios::perfbench {
std::uint64_t ThreadAllocations() { return g_allocs; }
}  // namespace helios::perfbench

// The compiler cannot see that both sides use malloc/free.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) { return Counted(size); }
void* operator new[](std::size_t size) { return Counted(size); }
void* operator new(std::size_t size, std::align_val_t align) { return CountedAligned(size, align); }
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAligned(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
