// Platform churn: incremental re-solving when the star changes under a
// running computation (a worker joins, leaves, or slows down).
//
// The paper's LPs are solved for a fixed platform; in a deployment the
// platform drifts.  `resolve` applies the churn event and solves the new
// INC_C FIFO LP from scratch: at p <= 12 a cold exact solve costs a few
// milliseconds, so there is nothing to gain from reusing the old basis.
//
// `execute_stale` quantifies what churn costs when nobody re-solves: the
// pre-churn loads are replayed on the churned platform by the DES engine
// (a departed worker's load is simply lost; a slowed worker drags the
// makespan), giving the stale throughput that the churn_surface spec
// reports as "retention" against the re-solved optimum.
#pragma once

#include <cstddef>
#include <vector>

#include "core/affine.hpp"
#include "core/scenario_lp.hpp"
#include "core/solver.hpp"
#include "platform/star_platform.hpp"

namespace dlsched {

/// One platform-churn event.
struct PlatformDelta {
  enum class Kind { Join, Leave, Slowdown };
  Kind kind = Kind::Slowdown;
  std::size_t worker = 0;  ///< target, pre-churn index (Leave / Slowdown)
  Worker joined;           ///< the new worker (Join; appended at the end)
  double factor = 1.0;     ///< Slowdown: w' = w * factor (> 1 = slower)

  static PlatformDelta join(Worker w);
  static PlatformDelta leave(std::size_t worker);
  static PlatformDelta slowdown(std::size_t worker, double factor);

  [[nodiscard]] const char* kind_name() const noexcept;
};

/// A churned platform plus the pre -> post index map (SIZE_MAX marks the
/// departed worker; a joined worker takes the last index) and the request
/// costs re-indexed to the new platform (a joined worker falls back to the
/// global latency scalars).
struct ChurnedPlatform {
  StarPlatform platform;
  std::vector<std::size_t> old_to_new;
  AffineCosts costs;
};

[[nodiscard]] ChurnedPlatform apply_delta(const StarPlatform& platform,
                                          const AffineCosts& costs,
                                          const PlatformDelta& delta);

/// Outcome of a churn re-solve.
struct ResolveResult {
  ScenarioSolution solution;  ///< FIFO optimum on the churned platform
  StarPlatform platform;      ///< the churned platform
  std::vector<std::size_t> old_to_new;
  AffineCosts costs;          ///< re-indexed costs used for the solve
};

/// Re-solves the INC_C FIFO LP after `delta` hits `request.platform`.
/// Honours `request.two_port` and the request's affine costs; the result
/// equals `solve_scenario` on the churned platform exactly.
[[nodiscard]] ResolveResult resolve(const SolveRequest& request,
                                    const PlatformDelta& delta);

/// What happens when nobody re-solves: the pre-churn loads, replayed on
/// the churned platform by the DES engine.
struct StaleExecution {
  double rate = 0.0;            ///< surviving load / simulated makespan
  double makespan = 0.0;        ///< DES completion time of the stale run
  double surviving_load = 0.0;  ///< pre-churn load still assigned
};

/// Replays `pre_alpha` (pre-churn platform indexing) over `pre_scenario`'s
/// send order on the churned platform: the departed worker's load (and
/// protocol slot) is dropped, everyone else keeps the stale assignment.
/// `churned.costs` supplies the affine constants.  Returns a zero rate
/// when no load survives.
[[nodiscard]] StaleExecution execute_stale(
    const ChurnedPlatform& churned, const std::vector<double>& pre_alpha,
    const Scenario& pre_scenario);

}  // namespace dlsched
