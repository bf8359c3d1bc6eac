// The two builds of the benchmark binary differ only here. The traced
// build (PERFBENCH_TRACED=1) links the counting allocator, which replaces
// the global operator new for the whole process; the untraced build keeps
// the system allocator so end-to-end figures carry no counting cost.
#include "bench.h"

#if PERFBENCH_TRACED
#include "common/alloc_hook.h"
#endif

namespace perfbench {

#if PERFBENCH_TRACED
std::uint64_t allocations() { return marlin::alloc_hook::allocations(); }
bool traced_build() { return true; }
#else
std::uint64_t allocations() { return 0; }
bool traced_build() { return false; }
#endif

}  // namespace perfbench
