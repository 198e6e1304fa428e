#include "experiments/spec_registry.hpp"

#include "util/error.hpp"

namespace dlsched::experiments {

namespace {

ExperimentSpec base(std::string name, std::string title, std::string figure,
                    SpecKind kind) {
  ExperimentSpec spec;
  spec.name = std::move(name);
  spec.title = std::move(title);
  spec.figure = std::move(figure);
  spec.kind = kind;
  return spec;
}

ExperimentSpec ensemble(std::string name, std::string title,
                        std::string figure, std::string generator,
                        bool include_inc_w) {
  ExperimentSpec spec =
      base(std::move(name), std::move(title), std::move(figure),
           SpecKind::Ensemble);
  spec.generator = std::move(generator);
  spec.workers = {11};  // the paper's 12-node cluster: 1 master + 11
  spec.include_inc_w = include_inc_w;
  return spec;
}

std::vector<ExperimentSpec> make_builtins() {
  std::vector<ExperimentSpec> specs;

  specs.push_back(base("fig08",
                       "linearity test: transfer time vs message size on "
                       "the threaded runtime and the DES",
                       "Figure 8", SpecKind::Linearity));

  specs.push_back(base("fig09",
                       "execution trace on a heterogeneous platform "
                       "(resource selection drops two of five workers)",
                       "Figure 9", SpecKind::Trace));

  specs.push_back(ensemble(
      "fig10", "homogeneous random platforms (bus, identical workers)",
      "Figure 10", "matrix_homogeneous", /*include_inc_w=*/false));

  specs.push_back(ensemble(
      "fig11", "homogeneous communication / heterogeneous computation",
      "Figure 11", "matrix_bus_hetero_comp", /*include_inc_w=*/true));

  specs.push_back(ensemble("fig12", "heterogeneous random star platforms",
                           "Figure 12", "matrix_heterogeneous",
                           /*include_inc_w=*/true));

  {
    ExperimentSpec spec = ensemble(
        "fig13a", "heterogeneous platforms, computation power x10",
        "Figure 13(a)", "matrix_heterogeneous", /*include_inc_w=*/true);
    spec.comp_speed_up = 10.0;
    specs.push_back(spec);
  }
  {
    ExperimentSpec spec = ensemble(
        "fig13b", "heterogeneous platforms, communication power x10",
        "Figure 13(b)", "matrix_heterogeneous", /*include_inc_w=*/true);
    spec.comm_speed_up = 10.0;
    specs.push_back(spec);
  }

  {
    ExperimentSpec spec = base(
        "fig14",
        "participation test: workers enrolled vs available (x = 1, 3)",
        "Figure 14", SpecKind::Participation);
    spec.x_values = {1.0, 3.0};
    spec.total_tasks = 1000;
    spec.matrix_sizes = {400};
    specs.push_back(spec);
  }

  {
    ExperimentSpec spec =
        base("ablation_ordering",
             "FIFO ordering choice: throughput relative to INC_C",
             "Theorem 1 / Section 5", SpecKind::Grid);
    spec.generator = "random_star";
    spec.workers = {4, 8};
    spec.z_values = {0.5};
    spec.repetitions = 30;
    spec.solvers = {"inc_c", "inc_w",       "dec_c",
                    "lifo",  "random_fifo", "brute_force"};
    spec.baseline = "inc_c";
    spec.max_workers_brute = 4;  // exhaustive comparator only where cheap
    specs.push_back(spec);
  }

  {
    ExperimentSpec spec = base(
        "ablation_local_search",
        "local search over (sigma1, sigma2) pairs vs structured optima",
        "Section 7 (open problem)", SpecKind::Grid);
    spec.generator = "random_star";
    spec.workers = {3, 4, 6, 9};
    spec.z_values = {0.5};
    spec.repetitions = 20;
    spec.solvers = {"fifo_optimal", "lifo", "local_search", "brute_force"};
    spec.baseline = "fifo_optimal";
    spec.max_workers_brute = 4;
    specs.push_back(spec);
  }

  {
    ExperimentSpec spec =
        base("ablation_two_port",
             "one-port vs two-port FIFO throughput across z",
             "Refs [7,8] / Figure 7", SpecKind::Grid);
    spec.generator = "random_star";
    spec.workers = {8};
    spec.z_values = {0.1, 0.25, 0.5, 0.75, 1.0, 1.5, 3.0};
    spec.repetitions = 25;
    spec.solvers = {"fifo_optimal", "two_port_fifo"};
    spec.baseline = "fifo_optimal";
    spec.precision = Precision::Exact;
    specs.push_back(spec);
  }

  {
    ExperimentSpec spec = base(
        "ablation_selection",
        "resource selection: optimal FIFO vs forced full participation "
        "on straggler platforms",
        "Section 5.3.4", SpecKind::Selection);
    spec.generator = "bimodal";
    // One deliberately weak worker in ten: a strong cluster with factors
    // ~20x better than the straggler, the regime where selection engages.
    spec.generator_params = {{"fast_fraction", 0.9}, {"slow_factor", 20.0},
                             {"c_lo", 0.02},         {"c_hi", 0.2},
                             {"w_lo", 0.05},         {"w_hi", 0.5}};
    spec.workers = {10};
    spec.z_values = {0.1, 0.25, 0.5, 0.8, 1.5, 3.0};
    spec.repetitions = 25;
    specs.push_back(spec);
  }

  {
    ExperimentSpec spec =
        base("ablation_multiround",
             "multi-round dispatch: makespan vs round count and latency",
             "Section 6, ref [3]", SpecKind::Multiround);
    spec.workers = {4};
    spec.latencies = {0.0, 0.002, 0.01, 0.05};
    spec.max_rounds = 12;
    specs.push_back(spec);
  }

  {
    ExperimentSpec spec =
        base("micro_solvers",
             "per-solver wall time across platform sizes (JSON perf rows)",
             "all solvers", SpecKind::Grid);
    spec.generator = "random_star";
    spec.workers = {4, 8, 12};
    spec.z_values = {0.5};
    spec.repetitions = 3;
    // solvers empty: every registered, inapplicable ones skipped per size.
    specs.push_back(spec);
  }

  {
    ExperimentSpec spec =
        base("micro_substrate",
             "substrate microbenchmarks: exact vs double LP, DES event "
             "throughput, gemm",
             "Section 5 tooling", SpecKind::Micro);
    spec.repetitions = 5;
    specs.push_back(spec);
  }

  {
    ExperimentSpec spec = base(
        "hetero_stress",
        "heterogeneity stress sweep: correlated bounded-Pareto (c, w) "
        "draws across return ratios",
        "Section 5 (extended)", SpecKind::Grid);
    // Power-law speed magnitudes (mostly cheap workers, a heavy tail of
    // fast outliers) with rank-correlated (c, w) -- the big machines get
    // the fat pipes -- over sub- and super-critical return ratios.  This
    // accumulates BENCH history for both new generator mechanisms.
    spec.generator = "power_law";
    spec.generator_params = {{"alpha", 1.5}, {"rho", 0.6},
                             {"c_lo", 0.05},  {"c_hi", 2.0},
                             {"w_lo", 0.1},   {"w_hi", 8.0}};
    spec.workers = {6, 10};
    spec.z_values = {0.5, 1.5};
    spec.repetitions = 10;
    spec.solvers = {"fifo_optimal", "lifo", "inc_c", "inc_w", "mirror_fifo"};
    spec.baseline = "fifo_optimal";
    specs.push_back(spec);
  }

  {
    ExperimentSpec spec = base(
        "affine_surface",
        "affine model: latency x subset-size surface with DES-replayed "
        "realizations and latency-correlated per-worker draws",
        "Section 6", SpecKind::Grid);
    // The resource-selection regime of Section 6: the p axis sets the
    // subset-size budget (2^p enumeration stays cheap), the latency axes
    // span "latency-free" through "start-ups dominate", and the correlated
    // generator draws per-worker latency factors rank-correlated with link
    // slowness (remote workers pay both ways).  Every affine solve
    // realizes its timeline, validates it, and replays it on the DES
    // engine; the replay_rel_error column is the acceptance gate.
    spec.generator = "correlated";
    spec.generator_params = {{"rho", 0.6},    {"lat_lo", 0.5},
                             {"lat_hi", 1.5}, {"lat_rho", 0.8},
                             {"c_lo", 0.05},  {"c_hi", 0.6},
                             {"w_lo", 0.2},   {"w_hi", 2.0}};
    spec.workers = {4, 6, 8};
    spec.z_values = {0.5};
    spec.send_latencies = {0.0, 0.01, 0.05};
    spec.return_latencies = {0.005, 0.02};
    spec.repetitions = 3;
    spec.precision = Precision::Exact;  // the affine LP is exact-only
    spec.solvers = {"affine_subset", "affine_greedy", "affine_local_search",
                    "affine_fifo"};
    spec.baseline = "affine_subset";
    specs.push_back(spec);
  }

  {
    ExperimentSpec spec = base(
        "churn_surface",
        "platform churn: re-solve latency, pivots and throughput "
        "retention across chained join/leave/slowdown events",
        "Section 6 (extended)", SpecKind::Churn);
    spec.generator = "random_star";
    spec.workers = {6, 10};
    spec.repetitions = 3;
    spec.churn_events = 8;
    specs.push_back(spec);
  }

  {
    ExperimentSpec spec = base(
        "smoke", "tiny deterministic sweep for CI and cache smoke tests",
        "CI", SpecKind::Grid);
    spec.generator = "random_star";
    spec.workers = {4, 6};
    spec.z_values = {0.5};
    spec.repetitions = 2;
    spec.solvers = {"fifo_optimal", "lifo", "inc_c", "mirror_fifo"};
    spec.baseline = "fifo_optimal";
    specs.push_back(spec);
  }

  return specs;
}

}  // namespace

const std::vector<ExperimentSpec>& builtin_specs() {
  static const std::vector<ExperimentSpec>* specs =
      new std::vector<ExperimentSpec>(make_builtins());
  return *specs;
}

bool has_builtin_spec(const std::string& name) {
  for (const ExperimentSpec& spec : builtin_specs()) {
    if (spec.name == name) return true;
  }
  return false;
}

const ExperimentSpec& find_builtin_spec(const std::string& name) {
  for (const ExperimentSpec& spec : builtin_specs()) {
    if (spec.name == name) return spec;
  }
  std::string known;
  for (const ExperimentSpec& spec : builtin_specs()) {
    if (!known.empty()) known += ", ";
    known += spec.name;
  }
  DLSCHED_FAIL("unknown spec '" + name + "' (known: " + known + ")");
}

}  // namespace dlsched::experiments
