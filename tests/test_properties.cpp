// Generated-platform properties: claims that a mechanism "never changes the
// answer", checked over every registered generator family rather than a
// few hand-picked stars.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "affine/selection.hpp"
#include "platform/generators.hpp"
#include "util/rng.hpp"

namespace dlsched {
namespace {

bool accepts(const gen::GeneratorInfo& info, const std::string& key) {
  return std::find(info.params.begin(), info.params.end(), key) !=
         info.params.end();
}

/// One seeded affine instance from `info`'s family: the generated platform
/// plus global latencies drawn against the unit horizon (each at most
/// 0.3 / p, so small subsets stay feasible while the full platform may
/// not), and per-worker latency factors where the family draws them.
struct Instance {
  StarPlatform platform;
  AffineCosts costs;
};

Instance make_instance(const gen::GeneratorInfo& info, std::size_t p,
                       Rng& rng) {
  gen::GenParams params;
  if (accepts(info, "p")) params["p"] = static_cast<double>(p);
  if (accepts(info, "lat_hi")) {
    params["lat_lo"] = 0.5;
    params["lat_hi"] = 1.5;
  }
  const gen::GeneratedPlatform generated =
      gen::GeneratorRegistry::instance().make_generated(info.name, params,
                                                        rng);
  Instance out{generated.platform, AffineCosts{}};
  const double cap = 0.3 / static_cast<double>(out.platform.size());
  out.costs.send_latency = rng.uniform(0.0, cap);
  out.costs.compute_latency = rng.uniform(0.0, 0.02);
  out.costs.return_latency = rng.uniform(0.0, cap / 2.0);
  if (generated.has_latency_draws()) {
    for (const double factor : generated.latency_factor) {
      out.costs.send_latency_per_worker.push_back(
          factor * out.costs.send_latency);
      out.costs.return_latency_per_worker.push_back(
          factor * out.costs.return_latency);
    }
  }
  return out;
}

TEST(AffineProperties, PruningAndScreeningNeverChangeTheWinner) {
  // Every prune x screen combination of the Gray-code subset scan, and the
  // batch double-LP screen, must elect exactly the plain enumeration's
  // winner: same participants, bit-identical alpha and throughput, and
  // the same subsets_tried ledger.  Only the pruned / screened counters
  // and the pivot totals may move.
  std::size_t feasible = 0;
  std::size_t pruned = 0;
  std::size_t screened = 0;
  const std::vector<gen::GeneratorInfo> families =
      gen::GeneratorRegistry::instance().infos();
  for (std::size_t f = 0; f < families.size(); ++f) {
    const gen::GeneratorInfo& info = families[f];
    for (std::size_t p = 2; p <= 6; p += 2) {
      Rng rng(0x5eed + 977 * p + 31 * f);
      const Instance instance = make_instance(info, p, rng);
      SCOPED_TRACE(info.name + " p=" + std::to_string(p));

      affine::AffineSubsetOptions plain;
      plain.prune = false;
      plain.screen = false;
      const affine::AffineSelectionResult baseline =
          affine::solve_affine_fifo_best_subset(instance.platform,
                                                instance.costs, plain);
      EXPECT_EQ(baseline.subsets_pruned, 0u);
      EXPECT_EQ(baseline.subsets_screened, 0u);
      if (baseline.feasible) ++feasible;

      std::vector<affine::AffineSubsetOptions> variants;
      for (const bool prune : {false, true}) {
        for (const bool screen : {false, true}) {
          affine::AffineSubsetOptions options;
          options.prune = prune;
          options.screen = screen;
          variants.push_back(options);
        }
      }
      affine::AffineSubsetOptions fast;
      fast.use_fast_lp = true;
      variants.push_back(fast);

      for (const affine::AffineSubsetOptions& options : variants) {
        SCOPED_TRACE(std::string("prune=") + (options.prune ? "1" : "0") +
                     " screen=" + (options.screen ? "1" : "0") +
                     " fast=" + (options.use_fast_lp ? "1" : "0"));
        const affine::AffineSelectionResult tuned =
            affine::solve_affine_fifo_best_subset(instance.platform,
                                                  instance.costs, options);
        EXPECT_EQ(tuned.feasible, baseline.feasible);
        EXPECT_EQ(tuned.participants, baseline.participants);
        EXPECT_EQ(tuned.best.throughput, baseline.best.throughput);
        EXPECT_EQ(tuned.best.alpha, baseline.best.alpha);
        EXPECT_EQ(tuned.subsets_tried, baseline.subsets_tried);
        EXPECT_LE(tuned.subsets_pruned + tuned.subsets_screened,
                  tuned.subsets_tried);
        if (!options.use_fast_lp) {
          pruned += tuned.subsets_pruned;
          screened += tuned.subsets_screened;
        }
      }
    }
  }
  // The generated inputs must actually exercise both mechanisms.
  EXPECT_GT(feasible, 0u);
  EXPECT_GT(pruned, 0u);
  EXPECT_GT(screened, 0u);
}

}  // namespace
}  // namespace dlsched
