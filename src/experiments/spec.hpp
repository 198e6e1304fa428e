// Declarative experiment specifications.
//
// The paper's Section 5 is a family of sweeps over (platform family, worker
// count p, return ratio z, solver set); an `ExperimentSpec` names those
// axes once and the engine (experiments/engine.hpp) compiles them into a
// job grid, so a figure is data, not a bench binary.  Specs come from the
// built-in registry (experiments/spec_registry.hpp, one per paper figure
// and ablation) or from a TOML file / CLI flags via `parse_spec_toml`.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/solver.hpp"
#include "platform/generators.hpp"

namespace dlsched::experiments {

/// How the engine interprets a spec.  `Grid` is the declarative core --
/// generator x p x z x repetition x solver, cached and sharded.  The other
/// kinds are the paper's special-shaped figures, still spec-configured but
/// with bespoke run loops.
enum class SpecKind {
  Grid,           ///< generic solver-comparison sweep
  Ensemble,       ///< Figures 10-13: matrix-size ensembles vs INC_C LP
  Linearity,      ///< Figure 8: transfer-time linearity fits
  Trace,          ///< Figure 9: one execution trace + Gantt
  Participation,  ///< Figure 14: worker-participation study
  Selection,      ///< ablation: resource selection vs forced participation
  Multiround,     ///< ablation: rounds x latency makespan surface
  Micro,          ///< substrate microbenchmarks (LP, DES, gemm)
  Churn,          ///< platform churn: re-solve cost + retention
};

[[nodiscard]] std::string kind_name(SpecKind kind);
/// Inverse of `kind_name`; throws with the known kinds on a miss.
[[nodiscard]] SpecKind kind_from_name(const std::string& name);

/// One experiment: named axes compiled by the engine into jobs.  Fields
/// are grouped by the kinds that read them; unused fields are ignored.
struct ExperimentSpec {
  std::string name;    ///< registry / file name, also names the outputs
  std::string title;   ///< one-line human description
  std::string figure;  ///< paper anchor ("Figure 10", "Section 7", ...)
  SpecKind kind = SpecKind::Grid;

  // ----- grid axes --------------------------------------------------------
  std::string generator = "random_star";  ///< gen::GeneratorRegistry name
  gen::GenParams generator_params;        ///< fixed generator parameters
  std::vector<std::size_t> workers;       ///< p axis (empty: generator default)
  std::vector<double> z_values;           ///< z axis (empty: generator default)
  /// Affine latency axes (empty: linear model).  Each grid point sets
  /// `AffineCosts::send_latency` / `return_latency` to the axis value;
  /// when the generator draws per-worker latency factors they are scaled
  /// by the axis value into per-worker overrides.
  std::vector<double> send_latencies;
  std::vector<double> return_latencies;
  double compute_latency = 0.0;           ///< fixed affine compute overhead
  std::size_t repetitions = 1;            ///< instances per (p, z) point
  std::uint64_t seed = 20061408;          ///< base of the seed block
  std::vector<std::string> solvers;       ///< registry names (empty: all)
  std::string baseline;                   ///< ratio denominator in the CSV
  Precision precision = Precision::Fast;
  double time_budget_seconds = 0.0;
  std::size_t max_workers_brute = 7;      ///< forwarded p!^2 guard

  // ----- ensemble (Figures 10-13) -----------------------------------------
  std::vector<std::size_t> matrix_sizes{40,  60,  80,  100, 120,
                                        140, 160, 180, 200};
  std::size_t platforms = 50;             ///< ensemble size per data point
  std::uint64_t total_tasks = 1000;       ///< M
  double comm_speed_up = 1.0;             ///< Figure 13(b) uses 10
  double comp_speed_up = 1.0;             ///< Figure 13(a) uses 10
  bool include_inc_w = true;

  // ----- participation (Figure 14) ----------------------------------------
  std::vector<double> x_values{1.0, 3.0};

  // ----- multiround ablation ----------------------------------------------
  std::vector<double> latencies{0.0, 0.002, 0.01, 0.05};
  std::size_t max_rounds = 12;

  // ----- churn surface ----------------------------------------------------
  /// Number of chained platform-churn events (join / leave / slowdown)
  /// re-solved per generated instance.
  std::size_t churn_events = 8;
};

/// Parses the TOML subset used for spec files: `key = value` pairs with
/// strings, numbers, booleans and flat arrays, `#` comments, and one
/// optional `[generator.params]` table.  Unknown keys throw, naming the
/// accepted ones.
[[nodiscard]] ExperimentSpec parse_spec_toml(const std::string& text,
                                             const std::string& source =
                                                 "<string>");

/// `parse_spec_toml` over a file's contents; the spec name defaults to the
/// file's stem when the file does not set one.
[[nodiscard]] ExperimentSpec load_spec_file(const std::string& path);

/// Renders a spec as the TOML subset `parse_spec_toml` reads, with every
/// double as a C99 hexfloat so the round-trip is bit-exact:
/// `parse_spec_toml(render_spec_toml(s))` rebuilds `s` field for field.
/// This is how the TCP coordinator ships a spec to its workers -- a
/// worker re-plans the shard grid locally and the plan fingerprints must
/// agree, which only holds when the axis doubles survive unchanged.
[[nodiscard]] std::string render_spec_toml(const ExperimentSpec& spec);

/// Structural checks (generator exists, solvers exist, axes present for
/// the kind).  Throws dlsched::Error with a spec-named message.
void validate_spec(const ExperimentSpec& spec);

/// Restricts a spec's grid axes in place from a `--filter` expression:
/// comma-separated `key=value` pairs where a value may be a |-separated
/// list.  Keys: `p`, `z`, `send_latency`, `return_latency`, `solver`
/// (each keeps only the listed axis values, in spec order) and
/// `repetitions` (caps the repetition count).  Values must name existing
/// axis points -- a typo throws instead of silently running the full
/// grid.  The filtered spec is itself a plain spec: a cold + warm re-run
/// of the same filter stays byte-identical and shares the cache with the
/// unfiltered sweep.
void apply_spec_filter(ExperimentSpec& spec, const std::string& filter);

}  // namespace dlsched::experiments
