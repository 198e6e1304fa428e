#include "platform/star_platform.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

#include "util/error.hpp"

namespace dlsched {

namespace {
bool close(double a, double b, double rel_tol) noexcept {
  return std::fabs(a - b) <= rel_tol * std::max(std::fabs(a), std::fabs(b));
}
}  // namespace

StarPlatform::StarPlatform(std::vector<Worker> workers)
    : workers_(std::move(workers)) {
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    Worker& p = workers_[i];
    DLSCHED_EXPECT(p.c > 0.0, "worker input communication time must be > 0");
    DLSCHED_EXPECT(p.w > 0.0, "worker computation time must be > 0");
    DLSCHED_EXPECT(p.d >= 0.0, "worker return communication time must be >= 0");
    if (p.name.empty()) {
      p.name = std::string("P").append(std::to_string(i + 1));
    }
  }
}

const Worker& StarPlatform::worker(std::size_t i) const {
  DLSCHED_EXPECT(i < workers_.size(), "worker index out of range");
  return workers_[i];
}

bool StarPlatform::is_bus(double rel_tol) const noexcept {
  for (std::size_t i = 1; i < workers_.size(); ++i) {
    if (!close(workers_[i].c, workers_[0].c, rel_tol)) return false;
    if (!close(workers_[i].d, workers_[0].d, rel_tol)) return false;
  }
  return true;
}

bool StarPlatform::has_uniform_z(double rel_tol) const noexcept {
  for (std::size_t i = 1; i < workers_.size(); ++i) {
    if (!close(workers_[i].z(), workers_[0].z(), rel_tol)) return false;
  }
  return true;
}

double StarPlatform::z() const {
  DLSCHED_EXPECT(!workers_.empty(), "z() on empty platform");
  DLSCHED_EXPECT(has_uniform_z(), "z() requires a uniform d/c ratio");
  return workers_[0].z();
}

namespace {
template <class Key>
std::vector<std::size_t> sorted_indices(std::size_t n, Key key) {
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return key(a) < key(b); });
  return order;
}
}  // namespace

std::vector<std::size_t> StarPlatform::order_by_c() const {
  return sorted_indices(workers_.size(),
                        [&](std::size_t i) { return workers_[i].c; });
}

std::vector<std::size_t> StarPlatform::order_by_c_desc() const {
  return sorted_indices(workers_.size(),
                        [&](std::size_t i) { return -workers_[i].c; });
}

std::vector<std::size_t> StarPlatform::order_by_w() const {
  return sorted_indices(workers_.size(),
                        [&](std::size_t i) { return workers_[i].w; });
}

StarPlatform StarPlatform::speed_up(double comm_factor,
                                    double comp_factor) const {
  DLSCHED_EXPECT(comm_factor > 0.0 && comp_factor > 0.0,
                 "speed factors must be positive");
  std::vector<Worker> scaled = workers_;
  for (Worker& p : scaled) {
    p.c /= comm_factor;
    p.d /= comm_factor;
    p.w /= comp_factor;
  }
  return StarPlatform(std::move(scaled));
}

StarPlatform StarPlatform::subset(std::span<const std::size_t> indices) const {
  std::vector<Worker> selected;
  selected.reserve(indices.size());
  for (std::size_t i : indices) {
    DLSCHED_EXPECT(i < workers_.size(), "subset index out of range");
    selected.push_back(workers_[i]);
  }
  return StarPlatform(std::move(selected));
}

StarPlatform StarPlatform::mirrored() const {
  std::vector<Worker> flipped = workers_;
  for (Worker& p : flipped) {
    DLSCHED_EXPECT(p.d > 0.0, "mirroring requires d > 0");
    std::swap(p.c, p.d);
  }
  return StarPlatform(std::move(flipped));
}

StarPlatform StarPlatform::bus(double c, double d, std::vector<double> w) {
  std::vector<Worker> workers;
  workers.reserve(w.size());
  for (double wi : w) {
    workers.push_back(Worker{c, wi, d, ""});
  }
  return StarPlatform(std::move(workers));
}

std::string StarPlatform::describe() const {
  std::ostringstream out;
  out << "StarPlatform with " << workers_.size() << " worker(s)";
  if (!workers_.empty() && has_uniform_z()) out << ", z = " << z();
  out << (is_bus() ? " [bus]" : "") << "\n";
  for (const Worker& p : workers_) {
    out << "  " << p.name << ": c=" << p.c << " w=" << p.w << " d=" << p.d
        << "\n";
  }
  return out.str();
}

}  // namespace dlsched
