// Counting replacements for the global allocation functions, so the
// benchmark can report heap allocations per prediction as an exact
// count. Each thread counts its own allocations in a thread_local, so
// counting adds no shared-cache-line traffic to the pooled workers.
#include <cstdlib>
#include <new>

#include "alloc_count.hpp"

namespace perfbench {
namespace {
thread_local std::uint64_t t_allocations = 0;

void* counted_alloc(std::size_t size) {
  ++t_allocations;
  if (size == 0) size = 1;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  ++t_allocations;
  const std::size_t a = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded)) return p;
  throw std::bad_alloc();
}
}  // namespace

std::uint64_t thread_allocations() { return t_allocations; }

}  // namespace perfbench

void* operator new(std::size_t size) { return perfbench::counted_alloc(size); }
void* operator new[](std::size_t size) {
  return perfbench::counted_alloc(size);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return perfbench::counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return perfbench::counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return perfbench::counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return perfbench::counted_aligned_alloc(size, align);
}

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
