// The three perfbench workloads.  Each entry point runs either the
// end-to-end pass (tracing off) or the per-layer pass (`Options::trace`)
// and returns the metrics the harness prints.
#pragma once

#include "common.hpp"

namespace perfbench {

/// grid_solve and grid_cluster: in-process or cluster `run_spec` over a
/// seeded grid.
[[nodiscard]] RunResult run_grid(const Options& options);

/// `perfbench_harness worker --endpoint tcp://HOST:PORT --id ID`: one
/// grid_cluster TCP worker, run in its own process until the coordinator
/// answers Done or drains.
int cluster_worker(int argc, char** argv);

/// serve_mix: an open-loop request stream against a daemon process.
[[nodiscard]] RunResult run_serve(const Options& options);

/// `perfbench_harness daemon --socket PATH --cache-dir DIR`: the serve_mix
/// daemon, run in its own process; exits on SIGTERM after a graceful drain.
int serve_daemon(int argc, char** argv);

/// Seeds a spec or stream from the workload seed (splitmix64).
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed,
                                        std::uint64_t stream);

}  // namespace perfbench
