// perfbench_harness: runs one named workload and prints its metrics.
//
//   perfbench_harness run --workload NAME --seed N --seconds S --trace 0|1
//                         --scratch DIR --latency-limit-ms L [--commit ID]
//   perfbench_harness daemon --socket PATH --cache-dir DIR
//   perfbench_harness worker --endpoint tcp://HOST:PORT --id ID
//
// `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
// metrics with the closure table.  The last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}; the exit code is nonzero
// when any output check failed.
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>

#include "workloads.hpp"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {

const char* const kWorkloads[] = {"grid_solve", "grid_cluster", "serve_mix"};

/// A fixed integer workload timed before anything else: it tells a slow
/// machine from a slow change and is never used to scale a metric.
double anchor_ms() {
  const auto start = Clock::now();
  std::uint64_t x = 0x2545f4914f6cdd1dULL;
  std::uint64_t acc = 0;
  for (std::uint64_t i = 0; i < (1ULL << 26); ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc += x % 1000003ULL;
  }
  const double ms = seconds_since(start) * 1e3;
  if (acc == 42) std::cout << "";  // keeps the loop observable
  return ms;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) {
    throw std::runtime_error("metric value is not finite");
  }
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

void print_human(const Options& options, const RunResult& result) {
  std::cout << "failed_ratio: " << result.failed << " / " << result.attempted
            << " = "
            << ratio(static_cast<double>(result.failed),
                     static_cast<double>(result.attempted))
            << "\n";
  if (!options.trace) {
    for (const Metric& metric : result.metrics) {
      std::cout << "  " << metric.name << " = " << metric.value << " "
                << metric.unit << "\n";
    }
    return;
  }
  std::cout << "closure table (" << options.workload
            << "): per-layer metric -> end-to-end metric it should move\n";
  for (const Metric& metric : result.metrics) {
    std::string moves;
    for (const LayerInfo& info : layer_table()) {
      if (metric.name == info.name) moves = info.moves;
    }
    char line[256];
    std::snprintf(line, sizeof line, "  %-36s %16.6g %-6s -> %s\n",
                  metric.name.c_str(), metric.value, metric.unit.c_str(),
                  moves.c_str());
    std::cout << line;
  }
}

void print_json(const RunResult& result) {
  std::ostringstream out;
  out << "{\"correct\": " << (result.failed == 0 ? "true" : "false")
      << ", \"attempted\": " << result.attempted
      << ", \"failed\": " << result.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& metric = result.metrics[i];
    out << (i == 0 ? "" : ", ") << "\"" << metric.name
        << "\": {\"value\": " << json_number(metric.value)
        << ", \"unit\": \"" << metric.unit << "\"}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

int usage() {
  std::cerr << "usage: perfbench_harness run --workload NAME --seed N "
               "--seconds S --trace 0|1 --scratch DIR --latency-limit-ms L "
               "[--commit ID]\n"
               "       perfbench_harness daemon --socket PATH --cache-dir "
               "DIR\n"
               "       perfbench_harness worker --endpoint tcp://HOST:PORT "
               "--id ID\n";
  return 2;
}

int run(int argc, char** argv) {
  const double anchor = anchor_ms();
  std::map<std::string, std::string> flags;
  for (int i = 2; i + 1 < argc; i += 2) flags[argv[i]] = argv[i + 1];
  Options options;
  options.workload = flags["--workload"];
  options.scratch = flags["--scratch"];
  options.self_exe = std::filesystem::canonical("/proc/self/exe").string();
  bool known = false;
  for (const char* name : kWorkloads) known = known || options.workload == name;
  if (!known || options.scratch.empty() || !flags.count("--seed") ||
      !flags.count("--seconds") || !flags.count("--trace") ||
      !flags.count("--latency-limit-ms")) {
    return usage();
  }
  options.seed = std::stoull(flags["--seed"]);
  options.seconds = std::stod(flags["--seconds"]);
  options.trace = flags["--trace"] == "1";
  options.latency_limit_ms = std::stod(flags["--latency-limit-ms"]);

  std::cout << "stamp: {\"workload\": \"" << options.workload
            << "\", \"seed\": " << options.seed
            << ", \"anchor_ms\": " << anchor
            << ", \"nproc\": " << std::thread::hardware_concurrency()
            << ", \"compiler\": \"" << PERFBENCH_COMPILER
            << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
            << "\", \"commit\": \"" << flags["--commit"] << "\"}\n";

  const RunResult result = [&] {
    const Scratch scratch(options.scratch);
    return options.workload == "serve_mix" ? run_serve(options)
                                           : run_grid(options);
  }();
  print_human(options, result);
  print_json(result);
  return result.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  if (argc < 2) return perfbench::usage();
  const std::string mode = argv[1];
  try {
    if (mode == "daemon") return perfbench::serve_daemon(argc, argv);
    if (mode == "worker") return perfbench::cluster_worker(argc, argv);
    if (mode == "run") return perfbench::run(argc, argv);
  } catch (const std::exception& error) {
    std::cerr << "perfbench_harness: " << error.what() << "\n";
    return 1;
  }
  return perfbench::usage();
}
