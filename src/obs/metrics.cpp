#include "obs/metrics.hpp"

#include <bit>
#include <cmath>

#include "util/fork_safety.hpp"

namespace dlsched::obs {

void Log2Histogram::add(double seconds) noexcept {
  if (!(seconds >= 0.0)) seconds = 0.0;  // NaN / negative clock skew
  const double micros = seconds * 1e6;
  std::size_t bucket = 0;
  if (micros >= 1.0) {
    const auto floor_micros = static_cast<std::uint64_t>(micros);
    bucket = static_cast<std::size_t>(std::bit_width(floor_micros)) - 1;
    if (bucket >= kBuckets) bucket = kBuckets - 1;
  }
  ++counts_[bucket];
  ++total_;
}

double Log2Histogram::quantile_upper(double q) const noexcept {
  if (total_ == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const auto rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(total_)));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    seen += counts_[i];
    if (seen >= rank) {
      return static_cast<double>(std::uint64_t{1} << (i + 1)) * 1e-6;
    }
  }
  return static_cast<double>(std::uint64_t{1} << kBuckets) * 1e-6;
}

std::string Log2Histogram::render_buckets_json() const {
  std::string out = "[";
  for (std::size_t i = 0; i < kBuckets; ++i) {
    if (i != 0) out += ',';
    out += std::to_string(counts_[i]);
  }
  out += ']';
  return out;
}

void Log2Histogram::merge(const Log2Histogram& other) noexcept {
  for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
  total_ += other.total_;
}

void MetricsRegistry::add(std::string_view name, std::uint64_t delta) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    counters_.emplace(std::string(name), delta);
  } else {
    it->second += delta;
  }
}

void MetricsRegistry::set_gauge(std::string_view name, std::int64_t value) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    gauges_.emplace(std::string(name), value);
  } else {
    it->second = value;
  }
}

void MetricsRegistry::observe(std::string_view name, double seconds) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), Log2Histogram{}).first;
  }
  it->second.add(seconds);
}

std::uint64_t MetricsRegistry::counter(std::string_view name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

std::int64_t MetricsRegistry::gauge(std::string_view name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? 0 : it->second;
}

Log2Histogram MetricsRegistry::histogram(std::string_view name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? Log2Histogram{} : it->second;
}

double MetricsRegistry::uptime_seconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       born_)
      .count();
}

std::vector<std::pair<std::string, std::uint64_t>> MetricsRegistry::counters()
    const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return {counters_.begin(), counters_.end()};
}

std::vector<std::pair<std::string, std::int64_t>> MetricsRegistry::gauges()
    const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return {gauges_.begin(), gauges_.end()};
}

MetricsRegistry& MetricsRegistry::process() {
  static MetricsRegistry* registry = [] {
    auto* created = new MetricsRegistry();
    hold_across_fork(created->mutex_);
    return created;
  }();
  return *registry;
}

namespace {
// Built before main (see util/fork_safety.hpp).
[[maybe_unused]] const MetricsRegistry& g_process_registry =
    MetricsRegistry::process();
}  // namespace

}  // namespace dlsched::obs
