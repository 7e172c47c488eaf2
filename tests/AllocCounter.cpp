//===--- AllocCounter.cpp - Allocation-counting global operator new ------------===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//
//
// Counts the calling thread's global allocations so a test can assert a
// path allocates nothing; the array and nothrow forms call the scalar
// operator new. The replacements get their own translation unit so no
// caller sees operator new inlined next to std::free.
//
//===----------------------------------------------------------------------===//

#include <cstdint>
#include <cstdlib>
#include <new>

static thread_local uint64_t GThreadAllocs = 0;

uint64_t threadAllocations() { return GThreadAllocs; }

void *operator new(std::size_t Size) {
  ++GThreadAllocs;
  if (void *P = std::malloc(Size))
    return P;
  throw std::bad_alloc();
}
void operator delete(void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
