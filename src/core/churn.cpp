#include "core/churn.hpp"

#include <algorithm>
#include <utility>

#include "sim/des_executor.hpp"
#include "util/error.hpp"

namespace dlsched {

PlatformDelta PlatformDelta::join(Worker w) {
  PlatformDelta delta;
  delta.kind = Kind::Join;
  delta.joined = std::move(w);
  return delta;
}

PlatformDelta PlatformDelta::leave(std::size_t worker) {
  PlatformDelta delta;
  delta.kind = Kind::Leave;
  delta.worker = worker;
  return delta;
}

PlatformDelta PlatformDelta::slowdown(std::size_t worker, double factor) {
  PlatformDelta delta;
  delta.kind = Kind::Slowdown;
  delta.worker = worker;
  delta.factor = factor;
  return delta;
}

const char* PlatformDelta::kind_name() const noexcept {
  switch (kind) {
    case Kind::Join: return "join";
    case Kind::Leave: return "leave";
    case Kind::Slowdown: return "slowdown";
  }
  return "?";
}

namespace {

/// Re-indexes a per-worker latency vector through the old -> new map.  A
/// joined worker (present in the new platform, absent from the map) gets
/// `fill`, the global scalar of the original costs.
std::vector<double> remap_latencies(const std::vector<double>& values,
                                    const std::vector<std::size_t>& old_to_new,
                                    std::size_t new_size, double fill) {
  if (values.empty()) return {};
  std::vector<double> out(new_size, fill);
  for (std::size_t i = 0; i < old_to_new.size(); ++i) {
    if (old_to_new[i] != SIZE_MAX) out[old_to_new[i]] = values[i];
  }
  return out;
}

}  // namespace

ChurnedPlatform apply_delta(const StarPlatform& platform,
                            const AffineCosts& costs,
                            const PlatformDelta& delta) {
  DLSCHED_EXPECT(!platform.empty(), "empty platform");
  std::vector<Worker> workers(platform.workers().begin(),
                              platform.workers().end());
  std::vector<std::size_t> old_to_new(platform.size());
  for (std::size_t i = 0; i < platform.size(); ++i) old_to_new[i] = i;
  switch (delta.kind) {
    case PlatformDelta::Kind::Join:
      workers.push_back(delta.joined);
      break;
    case PlatformDelta::Kind::Leave: {
      DLSCHED_EXPECT(delta.worker < platform.size(),
                     "churn: leave target out of range");
      DLSCHED_EXPECT(platform.size() > 1,
                     "churn: the last worker cannot leave");
      workers.erase(workers.begin() +
                    static_cast<std::ptrdiff_t>(delta.worker));
      old_to_new[delta.worker] = SIZE_MAX;
      for (std::size_t i = delta.worker + 1; i < platform.size(); ++i) {
        old_to_new[i] = i - 1;
      }
      break;
    }
    case PlatformDelta::Kind::Slowdown:
      DLSCHED_EXPECT(delta.worker < platform.size(),
                     "churn: slowdown target out of range");
      DLSCHED_EXPECT(delta.factor > 0.0,
                     "churn: slowdown factor must be positive");
      workers[delta.worker].w *= delta.factor;
      break;
  }
  ChurnedPlatform churned;
  churned.platform = StarPlatform(std::move(workers));
  churned.costs = costs;
  churned.costs.send_latency_per_worker =
      remap_latencies(costs.send_latency_per_worker, old_to_new,
                      churned.platform.size(), costs.send_latency);
  churned.costs.return_latency_per_worker =
      remap_latencies(costs.return_latency_per_worker, old_to_new,
                      churned.platform.size(), costs.return_latency);
  churned.old_to_new = std::move(old_to_new);
  return churned;
}

ResolveResult resolve(const SolveRequest& request,
                      const PlatformDelta& delta) {
  ChurnedPlatform churned =
      apply_delta(request.platform, request.costs, delta);
  const Scenario scenario =
      Scenario::fifo(churned.platform.order_by_c());
  ResolveResult out;
  out.solution = solve_scenario(churned.platform, scenario,
                                churned.costs.lp_options(!request.two_port));
  out.platform = std::move(churned.platform);
  out.old_to_new = std::move(churned.old_to_new);
  out.costs = std::move(churned.costs);
  return out;
}

StaleExecution execute_stale(const ChurnedPlatform& churned,
                             const std::vector<double>& pre_alpha,
                             const Scenario& pre_scenario) {
  DLSCHED_EXPECT(pre_alpha.size() == churned.old_to_new.size(),
                 "churn: pre_alpha must be pre-churn platform-indexed");
  // The stale protocol: the pre-churn send order minus the departed
  // worker, remapped to churned indices, with the stale loads.
  std::vector<std::size_t> order;
  order.reserve(pre_scenario.send_order.size());
  std::vector<double> loads(churned.platform.size(), 0.0);
  double surviving = 0.0;
  for (const std::size_t w : pre_scenario.send_order) {
    const std::size_t j = churned.old_to_new[w];
    if (j == SIZE_MAX) continue;
    order.push_back(j);
    loads[j] = pre_alpha[w];
    surviving += pre_alpha[w];
  }
  StaleExecution out;
  out.surviving_load = surviving;
  if (order.empty() || surviving <= 0.0) return out;
  sim::DesOptions options;
  if (churned.costs.is_affine()) {
    const std::size_t p = churned.platform.size();
    options.send_latency.resize(p);
    options.compute_latency.assign(p, churned.costs.compute_latency);
    options.return_latency.resize(p);
    for (std::size_t i = 0; i < p; ++i) {
      options.send_latency[i] = churned.costs.send_latency_for(i);
      options.return_latency[i] = churned.costs.return_latency_for(i);
    }
    options.include_zero_loads = true;
  }
  const sim::DesResult run = sim::execute(
      churned.platform, Scenario::fifo(order), loads, options);
  out.makespan = run.makespan;
  if (run.makespan > 0.0) out.rate = surviving / run.makespan;
  return out;
}

}  // namespace dlsched
