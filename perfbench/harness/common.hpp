// Shared pieces of the perfbench harness: run options, the metric record
// every workload fills, process-level clocks (CPU time, peak RSS) read
// from outside the library, and the small statistics the report needs.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/solver.hpp"
#include "service/wire.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return seconds_between(start, Clock::now());
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< length of the timed phase
  bool trace = false;     ///< false: end-to-end pass, true: per-layer pass
  std::string scratch;    ///< run-private directory inside the checkout
  std::string self_exe;   ///< this binary (daemon and workers exec it)
  /// serve_mix: the p99 a rate step must meet to count toward max_rps.
  double latency_limit_ms = 0.0;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports.  `attempted` counts operations (solver
/// jobs or requests); `failed` counts failed, refused and wrong-output
/// operations, so a failed output check is never silent.
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
};

/// One per-layer metric: its unit and the end-to-end metric and workload
/// it should move (the closure table prints them side by side).
struct LayerInfo {
  const char* name;
  const char* unit;
  const char* moves;
};
[[nodiscard]] const std::vector<LayerInfo>& layer_table();

/// Per-layer values a workload measured, by name.  A layer the workload
/// does not exercise is absent and reported as 0.
using LayerValues = std::map<std::string, double>;
/// Appends every metric of `layer_table()` in table order; throws on a
/// name the table does not know.
void add_layer_metrics(RunResult& result, const LayerValues& values);

// ------------------------------------------------------------ statistics --

/// Nearest-rank quantile (q in [0, 1]); 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}
/// a / b, or 0 when b is 0 (a layer with no work reports 0).
[[nodiscard]] double ratio(double a, double b);

// --------------------------------------------------------- process clocks --

[[nodiscard]] double self_cpu_s();
/// CPU of every child this process has reaped.
[[nodiscard]] double reaped_children_cpu_s();
/// CPU of a live process (from /proc; 0 when unreadable).
[[nodiscard]] double pid_cpu_s(pid_t pid);
[[nodiscard]] double self_peak_rss_mb();
/// Peak RSS of the largest reaped child.
[[nodiscard]] double reaped_children_peak_rss_mb();
/// VmHWM of a live process (0 when unreadable).
[[nodiscard]] double pid_peak_rss_mb(pid_t pid);

// ------------------------------------------------------------ result data --

/// Order-sensitive digest of (solver, throughput bits, participants).
class Digest {
 public:
  void add(const std::string& solver, double throughput,
           const std::vector<std::size_t>& participants);
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  void mix(std::uint64_t word);
  std::uint64_t hash_ = 1469598103934665603ULL;
};

/// One row of a BENCH JSON artifact, as far as the checks need it.
struct ArtifactRow {
  std::string solver;
  bool solved = false;
  double throughput = 0.0;
  double wall_seconds = 0.0;
  std::vector<std::size_t> participants;
};

/// Reads the rows of a BENCH_<spec>.json artifact (one row per line).
[[nodiscard]] std::vector<ArtifactRow> read_artifact_rows(
    const std::string& path);

/// Bit equality of doubles (the checks compare exact throughputs).
[[nodiscard]] bool same_bits(double a, double b);

/// The cacheable record of a directly solved job.
[[nodiscard]] dlsched::service::SolveRecord record_of(
    const std::string& solver, const dlsched::SolveResult& result);

// ------------------------------------------------------------- per-layer --

/// Sums over direct single-thread `Solver::solve` calls, the indirect
/// measurements the per-layer table is built from.
struct SolveLedger {
  /// Solve seconds by solver family: closed form (single-scenario
  /// solvers: closed forms and one LP), search, affine.
  double solve_s[3] = {0.0, 0.0, 0.0};
  double validate_s = 0.0;
  double replay_s = 0.0;
  std::uint64_t arena_acquires = 0;
  std::uint64_t arena_pool_hits = 0;
  std::uint64_t pivots = 0;
  std::uint64_t fallbacks = 0;
  std::uint64_t scenarios_tried = 0;
  std::uint64_t pruned = 0;
  std::uint64_t screened = 0;
  std::size_t jobs = 0;
  std::size_t invalid = 0;  ///< throwing solves or validator failures

  /// Solves one job on the calling thread, timing the solve, the validator
  /// and (for affine results) the DES replay separately.
  dlsched::SolveResult solve(const std::string& solver,
                             const dlsched::SolveRequest& request);
};

/// Medians of timed `ResultCache::store` (into a new directory) and hit
/// `lookup` calls over the given records; `mismatches` counts lookups that
/// did not return the stored bytes.
struct CacheTiming {
  double store_us = 0.0;
  double lookup_us = 0.0;
  std::size_t mismatches = 0;
};
struct KeyedRecord {
  std::string hash;
  std::string key;
  dlsched::service::SolveRecord record;
};
[[nodiscard]] CacheTiming time_cache(const std::string& directory,
                                     const std::vector<KeyedRecord>& records);

/// Medians of timed wire codec calls (request and result bodies).
struct WireTiming {
  double encode_us = 0.0;
  double decode_us = 0.0;
  double request_bytes = 0.0;
  std::size_t mismatches = 0;  ///< decode(encode(x)) != x
};
struct WireSample {
  std::string solver;
  const dlsched::SolveRequest* request = nullptr;
  const dlsched::service::SolveRecord* record = nullptr;
};
[[nodiscard]] WireTiming time_wire(const std::vector<WireSample>& samples);

/// The run's scratch tree, from construction to destruction.  Deleting
/// files on this kind of disk (ext4 with online discard) slows the file
/// creations that follow it in the same block group, so nothing is deleted
/// while a run measures: every pass writes into a directory of its own,
/// and the whole tree goes when the run ends, followed by a filesystem
/// sync so the next run starts from a settled disk.  `TMPDIR` points into
/// the tree, which keeps the library's temporary directories (the cluster
/// workers' scratch caches) inside the checkout too.
class Scratch {
 public:
  explicit Scratch(std::string root);
  ~Scratch();
  Scratch(const Scratch&) = delete;
  Scratch& operator=(const Scratch&) = delete;

 private:
  std::string root_;
};

/// Creates and returns a new directory `parent/label_N`.
[[nodiscard]] std::string unique_dir(const std::string& parent,
                                     const std::string& label);

/// Runs `body(i)` for i in [0, n) on `threads` threads (the harness's own
/// checks; never timed).
void parallel_for(std::size_t n, std::size_t threads,
                  const std::function<void(std::size_t)>& body);

}  // namespace perfbench
