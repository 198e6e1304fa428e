// The index-claim worker pool shared by `solve_batch`, the experiment
// grid's shard pass and the Section 5 ensembles: `parallel_for(count,
// threads, body)` calls `body(i)` exactly once for every i in [0, count)
// unless a body throws.
//
// Threads claim the next index from one atomic counter, so the order in
// which bodies run is unspecified; callers write each result into its own
// slot and fold them in index order afterwards, which keeps results
// bit-identical for every thread count.
#pragma once

#include <cstddef>
#include <functional>

namespace dlsched {

/// `threads` = 0 means one per hardware thread; the pool never has more
/// threads than `count`, and a pool of one runs every body inline on the
/// calling thread in index order.  The first exception a body throws stops
/// the pool from claiming further indices (bodies already running finish)
/// and is rethrown on the calling thread once every thread has joined.
void parallel_for(std::size_t count, std::size_t threads,
                  const std::function<void(std::size_t)>& body);

}  // namespace dlsched
