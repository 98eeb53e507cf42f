// Live-heap accounting for the benchmark process.
//
// heap.cpp replaces the global operator new/delete family with a thin
// wrapper over malloc/free that keeps three process-wide counters: live
// bytes (malloc_usable_size of every block still allocated), the peak of
// live bytes since the last reset_peak(), and the number of allocations.
// Because replacement is link-time global, the library's own allocations
// are counted too — this is what peak_heap_mb and
// campaign.allocs_per_shard read, instead of RSS (which moves with page
// reuse and allocator arenas, not with what the program holds).
//
// Threads publish their changes in batches (see heap.cpp), so the totals
// may lag by up to 16 KiB and 256 allocations per running thread. The
// readers below first publish the calling thread's own batch.
#pragma once

#include <cstdint>

namespace perfbench::heap {

/// Bytes currently allocated through operator new.
[[nodiscard]] std::int64_t live_bytes();

/// Highest live_bytes() seen since the last reset_peak().
[[nodiscard]] std::int64_t peak_bytes();

/// Restarts peak tracking from the current live byte count.
void reset_peak();

/// Allocations (operator new calls) since the process started.
[[nodiscard]] std::uint64_t allocations();

}  // namespace perfbench::heap
