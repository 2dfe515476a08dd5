#ifndef STMTBENCH_ALLOC_COUNT_H_
#define STMTBENCH_ALLOC_COUNT_H_

#include <cstdint>

// Heap allocations made by the calling thread since it started, counted by
// the replacement operator new in alloc_count.cc. Counting is always on —
// one thread-local increment per allocation — so traced and untraced runs
// execute the same allocator code. The difference of two readings around
// a call is that call's allocation count, and it repeats exactly for the
// same statement text.

namespace stmtbench {

uint64_t ThreadAllocations();

}  // namespace stmtbench

#endif  // STMTBENCH_ALLOC_COUNT_H_
