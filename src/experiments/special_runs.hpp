// Runners for the special-shaped paper figures -- everything that is not a
// plain solver grid.  Internal to the engine; consumers go through
// experiments/engine.hpp.
#pragma once

#include <ostream>

#include "experiments/emitter.hpp"
#include "experiments/engine.hpp"

namespace dlsched::experiments::detail {

/// Figure 8: per-worker linear fits of transfer time vs message size, on
/// the threaded runtime (skipped under `quick`) and the noisy DES.
void run_linearity(const ExperimentSpec& spec, const RunOptions& options,
                   BenchJsonWriter* json, std::ostream* csv,
                   RunSummary& summary, std::ostream& log);

/// Figure 9: one heterogeneous execution -- LP solve (cached), DES replay,
/// ASCII Gantt to the log, SVG next to the JSON artifact.
void run_trace(const ExperimentSpec& spec, const RunOptions& options,
               ResultCache& cache, BenchJsonWriter* json, std::ostream* csv,
               RunSummary& summary, std::ostream& log);

/// Figure 14: LP vs DES time and enrolled workers as availability grows.
void run_participation(const ExperimentSpec& spec, const RunOptions& options,
                       ResultCache& cache, BenchJsonWriter* json,
                       std::ostream* csv, RunSummary& summary,
                       std::ostream& log);

/// Ablation: optimal (selecting) FIFO vs forced full participation.
void run_selection(const ExperimentSpec& spec, const RunOptions& options,
                   ResultCache& cache, BenchJsonWriter* json,
                   std::ostream* csv, RunSummary& summary, std::ostream& log);

/// Ablation: multi-round makespan across round counts and latencies.
void run_multiround(const ExperimentSpec& spec, const RunOptions& options,
                    BenchJsonWriter* json, std::ostream* csv,
                    RunSummary& summary, std::ostream& log);

/// Substrate microbenchmarks (exact vs double LP, DES events, gemm).
void run_micro(const ExperimentSpec& spec, const RunOptions& options,
               BenchJsonWriter* json, std::ostream* csv, RunSummary& summary,
               std::ostream& log);

/// Platform churn surface: per chained join/leave/slowdown event, the cold
/// re-solve wall and pivot count and the stale-schedule throughput
/// retention from the DES replay.
void run_churn(const ExperimentSpec& spec, const RunOptions& options,
               BenchJsonWriter* json, std::ostream* csv, RunSummary& summary,
               std::ostream& log);

}  // namespace dlsched::experiments::detail
