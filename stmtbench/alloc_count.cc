#include "alloc_count.h"

#include <cstdlib>
#include <new>

// Replacement global allocation functions for this binary only. Every
// form funnels into malloc / posix_memalign and bumps a thread-local
// counter; deallocation is the matching free.

namespace stmtbench {
namespace {

thread_local uint64_t t_allocations = 0;

void* Allocate(std::size_t size) {
  ++t_allocations;
  if (size == 0) size = 1;
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* AllocateAligned(std::size_t size, std::align_val_t align) {
  ++t_allocations;
  if (size == 0) size = 1;
  std::size_t alignment = static_cast<std::size_t>(align);
  if (alignment < sizeof(void*)) alignment = sizeof(void*);
  void* p = nullptr;
  if (posix_memalign(&p, alignment, size) != 0) throw std::bad_alloc();
  return p;
}

}  // namespace

uint64_t ThreadAllocations() { return t_allocations; }

}  // namespace stmtbench

void* operator new(std::size_t size) { return stmtbench::Allocate(size); }
void* operator new[](std::size_t size) { return stmtbench::Allocate(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return stmtbench::Allocate(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return stmtbench::Allocate(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return stmtbench::AllocateAligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return stmtbench::AllocateAligned(size, align);
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
