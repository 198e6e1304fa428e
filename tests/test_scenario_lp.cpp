#include <gtest/gtest.h>

#include "core/churn.hpp"
#include "core/scenario.hpp"
#include "core/scenario_lp.hpp"
#include "platform/generators.hpp"
#include "schedule/validator.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "registry_shims.hpp"

namespace dlsched {
namespace {

using numeric::Rational;

StarPlatform platform3() {
  return StarPlatform({Worker{0.1, 0.2, 0.05, "P1"},
                       Worker{0.2, 0.3, 0.1, "P2"},
                       Worker{0.3, 0.1, 0.15, "P3"}});
}

// ----------------------------------------------------------------- scenario --

TEST(Scenario, FifoAndLifoConstruction) {
  const std::vector<std::size_t> order{2, 0, 1};
  const Scenario fifo = Scenario::fifo(order);
  EXPECT_TRUE(fifo.is_fifo());
  EXPECT_FALSE(fifo.is_lifo());
  const Scenario lifo = Scenario::lifo(order);
  EXPECT_TRUE(lifo.is_lifo());
  EXPECT_EQ(lifo.return_order, (std::vector<std::size_t>{1, 0, 2}));
}

TEST(Scenario, SingleWorkerIsBothFifoAndLifo) {
  const std::vector<std::size_t> order{0};
  EXPECT_TRUE(Scenario::fifo(order).is_lifo());
  EXPECT_TRUE(Scenario::lifo(order).is_fifo());
}

TEST(Scenario, GeneralRejectsMismatchedSets) {
  const std::vector<std::size_t> a{0, 1};
  const std::vector<std::size_t> b{0, 2};
  EXPECT_THROW(Scenario::general(a, b), Error);
}

TEST(Scenario, CheckRejectsOutOfRangeAndDuplicates) {
  const StarPlatform platform = platform3();
  Scenario s = Scenario::fifo(std::vector<std::size_t>{0, 5});
  EXPECT_THROW(s.check(platform), Error);
  Scenario dup = Scenario::fifo(std::vector<std::size_t>{0, 0});
  EXPECT_THROW(dup.check(platform), Error);
}

TEST(Scenario, DescribeTagsFifoAndLifo) {
  const std::vector<std::size_t> order{0, 1};
  EXPECT_NE(Scenario::fifo(order).describe().find("[FIFO]"),
            std::string::npos);
  EXPECT_NE(Scenario::lifo(order).describe().find("[LIFO]"),
            std::string::npos);
}

// ---------------------------------------------------------------- LP shape --

TEST(ScenarioLp, ModelHasPaperDimensions) {
  // q alpha variables and q + 1 rows.  The paper's q idle variables x_i
  // are the chain rows' slack (not explicit columns; see scenario_lp.hpp),
  // and the paper's 3q + 1 constraint count includes the non-negativity
  // bounds, which live in the variable domain here.
  const StarPlatform platform = platform3();
  const auto lp = build_scenario_lp(
      platform, Scenario::fifo(std::vector<std::size_t>{0, 1, 2}));
  EXPECT_EQ(lp.num_variables(), 3u);
  EXPECT_EQ(lp.num_constraints(), 4u);  // 3 chains + one-port
}

TEST(ScenarioLp, SingleWorkerThroughputIsChainInverse) {
  // One worker: rho = 1 / (c + w + d) (chain constraint binds; the one-port
  // constraint c + d <= 1 is looser).
  const StarPlatform platform({Worker{0.25, 0.5, 0.125, "P1"}});
  const auto sol =
      shim::scenario_exact(platform, Scenario::fifo(std::vector<std::size_t>{0}));
  EXPECT_EQ(sol.throughput, Rational(8, 7));  // 1 / 0.875
}

TEST(ScenarioLp, OnePortBoundBindsWhenComputationIsFree) {
  // Nearly free computation: throughput approaches 1 / (c + d) and the
  // one-port constraint becomes the bottleneck.
  const StarPlatform platform({Worker{0.5, 1e-9, 0.5, "P1"},
                               Worker{0.5, 1e-9, 0.5, "P2"}});
  const auto sol = shim::scenario_exact(
      platform, Scenario::fifo(std::vector<std::size_t>{0, 1}));
  EXPECT_NEAR(sol.throughput.to_double(), 1.0, 1e-6);
}

TEST(ScenarioLp, ThroughputRespectsOnePortBudgetExactly) {
  Rng rng(3);
  const StarPlatform platform = gen::random_star(4, rng, 0.5);
  const auto sol = shim::scenario_exact(
      platform, Scenario::fifo(platform.order_by_c()));
  Rational comm_budget;
  for (std::size_t i = 0; i < platform.size(); ++i) {
    comm_budget += sol.alpha[i] * (Rational::from_double(platform.worker(i).c) +
                                   Rational::from_double(platform.worker(i).d));
  }
  EXPECT_LE(comm_budget, Rational(1));
}

TEST(ScenarioLp, IdleVariablesNeverChangeTheOptimum) {
  // The x_i are pure slack: dropping them (by solving a scenario whose
  // idle variables are forced to zero via the packed construction) yields
  // the same throughput.  We verify by checking the realized schedule's
  // load equals the LP objective.
  Rng rng(4);
  const StarPlatform platform = gen::random_star(5, rng, 0.5);
  const auto sol =
      shim::scenario_exact(platform, Scenario::fifo(platform.order_by_c()));
  const Schedule schedule = realize_schedule(platform, sol);
  EXPECT_NEAR(schedule.total_load(), sol.throughput.to_double(), 1e-9);
}

TEST(ScenarioLp, DoubleSolverMatchesExact) {
  Rng rng(5);
  for (int i = 0; i < 5; ++i) {
    const StarPlatform platform = gen::random_star(5, rng, 0.5);
    const Scenario scenario = Scenario::fifo(platform.order_by_c());
    const auto exact = shim::scenario_exact(platform, scenario);
    const auto approx = shim::scenario_double(platform, scenario);
    EXPECT_NEAR(exact.throughput.to_double(), approx.throughput, 1e-7);
    for (std::size_t w = 0; w < platform.size(); ++w) {
      EXPECT_NEAR(exact.alpha[w].to_double(), approx.alpha[w], 1e-6);
    }
  }
}

TEST(ScenarioLp, EnrolledListsPositiveLoadsOnly) {
  // A grossly slow worker is dropped by resource selection.
  const StarPlatform platform({Worker{0.1, 0.1, 0.05, "fast"},
                               Worker{100.0, 100.0, 50.0, "slow"}});
  const auto sol = shim::scenario_exact(
      platform, Scenario::fifo(platform.order_by_c()));
  const auto used = sol.enrolled();
  ASSERT_EQ(used.size(), 1u);
  EXPECT_EQ(used[0], 0u);
}

// ----------------------------------------------- realized schedules validate --

// ------------------------------------------------------------------- churn --

TEST(Churn, ResolveEqualsColdSolveOnChurnedPlatform) {
  // resolve() must be exactly a fresh solve_scenario of the INC_C FIFO LP
  // on the churned platform with the re-indexed costs, for every event
  // kind.
  Rng rng(606);
  AffineCosts costs;
  costs.send_latency = 0.01;
  costs.compute_latency = 0.002;
  costs.return_latency = 0.005;
  for (int iter = 0; iter < 6; ++iter) {
    SolveRequest request;
    request.platform = gen::random_star(5, rng, 0.5);
    request.costs = costs;
    PlatformDelta delta;
    switch (iter % 3) {
      case 0: delta = PlatformDelta::slowdown(iter % 5, 1.7); break;
      case 1: delta = PlatformDelta::leave(iter % 5); break;
      default:
        delta = PlatformDelta::join(Worker{0.3, 0.8, 0.15, "joined"});
        break;
    }
    const ResolveResult resolved = resolve(request, delta);
    const ChurnedPlatform churned =
        apply_delta(request.platform, request.costs, delta);
    const ScenarioSolution direct = solve_scenario(
        churned.platform, Scenario::fifo(churned.platform.order_by_c()),
        churned.costs.lp_options());
    EXPECT_EQ(resolved.platform.size(), churned.platform.size());
    EXPECT_EQ(resolved.old_to_new, churned.old_to_new);
    EXPECT_EQ(resolved.solution.throughput, direct.throughput);
    EXPECT_EQ(resolved.solution.lp_pivots, direct.lp_pivots);
    EXPECT_EQ(resolved.solution.scenario.send_order,
              direct.scenario.send_order);
    ASSERT_EQ(resolved.solution.alpha.size(), direct.alpha.size());
    for (std::size_t i = 0; i < direct.alpha.size(); ++i) {
      EXPECT_EQ(resolved.solution.alpha[i], direct.alpha[i]);
      EXPECT_EQ(resolved.solution.idle[i], direct.idle[i]);
    }
  }
}

class ScenarioRealization : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ScenarioRealization, FifoLifoAndShuffledScenariosAllValidate) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 5; ++iter) {
    const double z = rng.uniform(0.1, 0.9);
    const StarPlatform platform = gen::random_star(5, rng, z);
    const auto order = rng.permutation(platform.size());

    for (const Scenario& scenario :
         {Scenario::fifo(order), Scenario::lifo(order),
          Scenario::general(order, rng.permutation(platform.size()))}) {
      const auto sol = shim::scenario_exact(platform, scenario);
      EXPECT_GT(sol.throughput, Rational(0));
      const Schedule schedule = realize_schedule(platform, sol);
      const ValidationReport report = validate(platform, schedule);
      EXPECT_TRUE(report.ok) << scenario.describe() << ": "
                             << (report.violations.empty()
                                     ? ""
                                     : report.violations.front());
    }
  }
}

TEST_P(ScenarioRealization, ThroughputScalesLinearlyWithHorizon) {
  Rng rng(GetParam() ^ 0xbeef);
  const StarPlatform platform = gen::random_star(4, rng, 0.5);
  const auto sol =
      shim::scenario_exact(platform, Scenario::fifo(platform.order_by_c()));
  const Schedule unit = realize_schedule(platform, sol, 1.0);
  const Schedule tripled = realize_schedule(platform, sol, 3.0);
  EXPECT_NEAR(tripled.total_load(), 3.0 * unit.total_load(), 1e-9);
  EXPECT_TRUE(validate(platform, tripled).ok);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScenarioRealization,
                         ::testing::Values(11u, 22u, 33u, 44u));

}  // namespace
}  // namespace dlsched
