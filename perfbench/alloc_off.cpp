// Linked into the untraced binary in place of bench/alloc_interpose.cpp, so
// its end-to-end numbers carry no counting allocator and no tracing.
#include "bench/alloc_counter.h"

namespace tempest::bench {

AllocSnapshot alloc_counts() { return {}; }

bool alloc_counting_enabled() { return false; }

}  // namespace tempest::bench
