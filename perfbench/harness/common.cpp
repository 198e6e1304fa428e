#include "common.hpp"

#include <fcntl.h>
#include <linux/fs.h>
#include <sys/ioctl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "affine/realization.hpp"
#include "affine/replay.hpp"
#include "experiments/cache.hpp"
#include "numeric/limb_arena.hpp"
#include "schedule/validator.hpp"

namespace perfbench {

using dlsched::SolveRequest;
using dlsched::SolveResult;
using dlsched::service::SolveRecord;

const std::vector<LayerInfo>& layer_table() {
  static const std::vector<LayerInfo> table{
      {"numeric.arena_acquires", "count", "cpu_s @ grid_solve"},
      {"numeric.arena_pool_hit_ratio", "ratio", "cpu_s @ grid_solve"},
      {"lp.pivots", "count", "jobs_per_s @ grid_solve"},
      {"lp.fallbacks", "count", "jobs_per_s @ grid_solve"},
      {"core.solve_s.closed_form", "s",
       "jobs_per_s @ grid_solve; cpu_s @ serve_mix"},
      {"core.solve_s.search", "s", "jobs_per_s @ grid_solve"},
      {"core.solve_s.affine", "s", "jobs_per_s @ grid_solve"},
      {"core.batch_busy_ratio", "ratio", "jobs_per_s @ grid_solve"},
      {"experiments.shard_barrier_s", "s",
       "jobs_per_s @ grid_solve"},
      {"affine.pruned_ratio", "ratio", "jobs_per_s @ grid_solve"},
      {"affine.screened_ratio", "ratio", "jobs_per_s @ grid_solve"},
      {"schedule.validate_s", "s", "jobs_per_s @ grid_solve"},
      {"sim.replay_s", "s", "jobs_per_s @ grid_solve"},
      {"platform.generate_s", "s", "setup_s @ all"},
      {"experiments.plan_s", "s", "jobs_per_s @ grid_solve"},
      {"experiments.shard_wall_s", "s", "jobs_per_s @ grid_solve"},
      {"experiments.assemble_s", "s", "jobs_per_s @ grid_solve"},
      {"experiments.cache_store_us", "us", "jobs_per_s @ grid_cluster"},
      {"experiments.cache_lookup_us", "us", "ref p50 (printed), max_rps @ serve_mix"},
      {"experiments.cache_hit_ratio", "ratio", "ref p50 (printed), max_rps @ serve_mix"},
      {"experiments.fork_board_jobs_per_s", "1/s",
       "reference for jobs_per_s @ grid_cluster"},
      {"wire.encode_us", "us", "ref p50 (printed), max_rps @ serve_mix"},
      {"wire.decode_us", "us", "ref p50 (printed), max_rps @ serve_mix"},
      {"wire.request_bytes", "bytes", "ref p50 (printed), max_rps @ serve_mix"},
      {"wire.fragment_bytes", "bytes", "jobs_per_s @ grid_cluster"},
      {"server.latency_p50_ms", "ms", "ref p50/p99 (printed) @ serve_mix"},
      {"server.transport_p50_ms", "ms", "ref p50/p99 (printed) @ serve_mix"},
      {"server.miss_p50_ms", "ms", "ref p50/p99 (printed) @ serve_mix"},
      {"server.queue_max", "count", "max_rps @ serve_mix"},
      {"server.rejects", "count", "max_rps, failed_ratio @ serve_mix"},
      {"lease.backlog_idle_s", "s", "jobs_per_s @ grid_cluster"},
      {"lease.worker_solve_share", "ratio", "jobs_per_s @ grid_cluster"},
      {"lease.reassignments", "count", "failed_ratio @ grid_cluster"},
      {"lease.discarded", "count", "failed_ratio @ grid_cluster"},
      {"loadgen.lag_p99_ms", "ms", "validity of serve_mix"},
      {"unattributed_s", "s", "closure of every workload"},
      {"trace_overhead_ratio", "ratio", "closure of every workload"},
  };
  return table;
}

void add_layer_metrics(RunResult& result, const LayerValues& values) {
  for (const auto& [name, value] : values) {
    const auto& table = layer_table();
    const bool known =
        std::any_of(table.begin(), table.end(),
                    [&](const LayerInfo& info) { return name == info.name; });
    if (!known) throw std::logic_error("unknown layer metric " + name);
  }
  for (const LayerInfo& info : layer_table()) {
    const auto it = values.find(info.name);
    result.add(info.name, it == values.end() ? 0.0 : it->second, info.unit);
  }
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double ratio(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

// ------------------------------------------------------------------ clocks --

namespace {

double rusage_cpu_s(int who) {
  rusage usage{};
  ::getrusage(who, &usage);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

double rusage_peak_mb(int who) {
  rusage usage{};
  ::getrusage(who, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace

double self_cpu_s() { return rusage_cpu_s(RUSAGE_SELF); }
double reaped_children_cpu_s() { return rusage_cpu_s(RUSAGE_CHILDREN); }
double self_peak_rss_mb() { return rusage_peak_mb(RUSAGE_SELF); }
double reaped_children_peak_rss_mb() { return rusage_peak_mb(RUSAGE_CHILDREN); }

double pid_cpu_s(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text;
  std::getline(in, text);
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields of the whole line.
  const auto close = text.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream rest(text.substr(close + 2));
  std::string field;
  double utime = 0.0;
  double stime = 0.0;
  for (int index = 3; rest >> field; ++index) {
    if (index == 14) utime = std::stod(field);
    if (index == 15) {
      stime = std::stod(field);
      break;
    }
  }
  return (utime + stime) / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double pid_peak_rss_mb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

// ------------------------------------------------------------ result data --

void Digest::mix(std::uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    hash_ ^= (word >> (8 * i)) & 0xffU;
    hash_ *= 1099511628211ULL;
  }
}

void Digest::add(const std::string& solver, double throughput,
                 const std::vector<std::size_t>& participants) {
  for (const char c : solver) mix(static_cast<unsigned char>(c));
  std::uint64_t bits = 0;
  std::memcpy(&bits, &throughput, sizeof bits);
  mix(bits);
  mix(participants.size());
  for (const std::size_t index : participants) mix(index);
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

namespace {

/// The raw text after `"key": ` in a flat JSON row, or "" when absent.
std::string field_text(const std::string& row, const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const auto at = row.find(needle);
  if (at == std::string::npos) return {};
  const auto start = at + needle.size();
  std::size_t end = start;
  if (row[start] == '"') {
    end = row.find('"', start + 1);
    return row.substr(start + 1, end - start - 1);
  }
  if (row[start] == '[') {
    end = row.find(']', start);
    return row.substr(start + 1, end - start - 1);
  }
  while (end < row.size() && row[end] != ',' && row[end] != '}') ++end;
  return row.substr(start, end - start);
}

}  // namespace

std::vector<ArtifactRow> read_artifact_rows(const std::string& path) {
  std::ifstream in(path);
  std::vector<ArtifactRow> rows;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("    {\"solver\": ", 0) != 0) continue;
    ArtifactRow row;
    row.solver = field_text(line, "solver");
    row.solved = field_text(line, "solved") == "true";
    if (row.solved) {
      row.throughput = std::strtod(field_text(line, "throughput").c_str(),
                                   nullptr);
    }
    row.wall_seconds =
        std::strtod(field_text(line, "wall_seconds").c_str(), nullptr);
    std::istringstream list(field_text(line, "participants"));
    std::string index;
    while (std::getline(list, index, ',')) {
      row.participants.push_back(std::stoul(index));
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

SolveRecord record_of(const std::string& solver, const SolveResult& result) {
  dlsched::BatchOutcome outcome;
  outcome.solver = solver;
  outcome.solved = true;
  outcome.ok = true;
  outcome.result = result;
  return dlsched::service::record_from_outcome(outcome);
}

// ------------------------------------------------------------- per-layer --

namespace {

/// Index into SolveLedger::solve_s.
int solver_family(const std::string& solver) {
  if (solver.rfind("affine_", 0) == 0) return 2;
  if (solver.rfind("brute_force", 0) == 0 || solver == "local_search" ||
      solver == "multiround" || solver == "exchange_sort") {
    return 1;
  }
  return 0;
}

}  // namespace

SolveResult SolveLedger::solve(const std::string& solver,
                               const SolveRequest& request) {
  ++jobs;
  const auto arena_before = dlsched::numeric::limb_arena_stats();
  const auto start = Clock::now();
  SolveResult result;
  try {
    result = dlsched::SolverRegistry::instance().create(solver)->solve(request);
  } catch (const std::exception&) {
    ++invalid;
    return result;
  }
  solve_s[solver_family(solver)] += seconds_since(start);
  const auto arena_after = dlsched::numeric::limb_arena_stats();
  arena_acquires += arena_after.acquires - arena_before.acquires;
  arena_pool_hits += arena_after.pool_hits - arena_before.pool_hits;
  pivots += result.solution.lp_pivots;
  fallbacks += result.lp_fallbacks;
  scenarios_tried += result.scenarios_tried;
  pruned += result.subsets_pruned;
  screened += result.subsets_screened;

  const auto validate_start = Clock::now();
  const dlsched::ValidationReport report =
      dlsched::validate(result.schedule_platform, result.schedule);
  validate_s += seconds_since(validate_start);
  if (!report.ok) ++invalid;

  if (result.replayed) {
    const auto realization = dlsched::affine::realize_affine(
        request.platform, result.solution, request.costs, request.horizon);
    const auto replay_start = Clock::now();
    const auto replay =
        dlsched::affine::replay_affine(request.platform, realization);
    replay_s += seconds_since(replay_start);
    if (!same_bits(replay.makespan, result.replay_makespan)) ++invalid;
  }
  return result;
}

CacheTiming time_cache(const std::string& directory,
                       const std::vector<KeyedRecord>& records) {
  dlsched::experiments::ResultCache cache(directory);
  CacheTiming timing;
  std::vector<double> store_s;
  std::vector<double> lookup_s;
  for (const KeyedRecord& entry : records) {
    const auto start = Clock::now();
    cache.store(entry.hash, entry.key, entry.record);
    store_s.push_back(seconds_since(start));
  }
  for (const KeyedRecord& entry : records) {
    const auto start = Clock::now();
    const auto hit = cache.lookup(entry.hash, entry.key);
    lookup_s.push_back(seconds_since(start));
    if (!hit || dlsched::service::encode_result_body(*hit) !=
                    dlsched::service::encode_result_body(entry.record)) {
      ++timing.mismatches;
    }
  }
  timing.store_us = median(store_s) * 1e6;
  timing.lookup_us = median(lookup_s) * 1e6;
  return timing;
}

WireTiming time_wire(const std::vector<WireSample>& samples) {
  namespace wire = dlsched::service;
  WireTiming timing;
  std::vector<double> encode_s;
  std::vector<double> decode_s;
  std::vector<double> bytes;
  for (const WireSample& sample : samples) {
    auto start = Clock::now();
    const std::string request_body =
        wire::encode_request_body(sample.solver, *sample.request);
    encode_s.push_back(seconds_since(start));
    bytes.push_back(static_cast<double>(request_body.size()));
    start = Clock::now();
    const wire::WireRequest decoded = wire::decode_request_body(request_body);
    decode_s.push_back(seconds_since(start));
    if (wire::encode_request_body(decoded.solver, decoded.request) !=
        request_body) {
      ++timing.mismatches;
    }
    if (sample.record == nullptr) continue;
    start = Clock::now();
    const std::string result_body = wire::encode_result_body(*sample.record);
    encode_s.push_back(seconds_since(start));
    start = Clock::now();
    const wire::SolveRecord record = wire::decode_result_body(result_body);
    decode_s.push_back(seconds_since(start));
    if (wire::encode_result_body(record) != result_body) ++timing.mismatches;
  }
  timing.encode_us = median(encode_s) * 1e6;
  timing.decode_us = median(decode_s) * 1e6;
  timing.request_bytes = median(bytes);
  return timing;
}

namespace {

void remove_and_sync(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
  const std::string parent =
      std::filesystem::path(path).parent_path().string();
  const int fd = ::open(parent.empty() ? "." : parent.c_str(), O_RDONLY);
  if (fd >= 0) {
    ::syncfs(fd);
    ::close(fd);
  }
}

/// Marks a directory as a top of directory hierarchies, so ext4's Orlov
/// allocator spreads its subdirectories over quiet block groups: creating
/// inodes in a group where many were just deleted costs ~40x more kernel
/// time.  Best effort: other filesystems ignore or refuse the flag.
void mark_top_directory(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  int flags = 0;
  if (::ioctl(fd, FS_IOC_GETFLAGS, &flags) == 0) {
    flags |= FS_TOPDIR_FL;
    (void)::ioctl(fd, FS_IOC_SETFLAGS, &flags);
  }
  ::close(fd);
}

}  // namespace

Scratch::Scratch(std::string root) : root_(std::move(root)) {
  remove_and_sync(root_);
  const std::string tmp = root_ + "/tmp";
  std::filesystem::create_directories(tmp);
  mark_top_directory(root_);
  mark_top_directory(tmp);
  ::setenv("TMPDIR", std::filesystem::absolute(tmp).c_str(), 1);
}

Scratch::~Scratch() { remove_and_sync(root_); }

std::string unique_dir(const std::string& parent, const std::string& label) {
  static std::atomic<std::size_t> counter{0};
  // The pid keeps names (and so Orlov's starting group) distinct across
  // runs.
  const std::string path = parent + "/" + label + "_" +
                           std::to_string(::getpid()) + "_" +
                           std::to_string(counter++);
  std::filesystem::create_directories(path);
  return path;
}

void parallel_for(std::size_t n, std::size_t threads,
                  const std::function<void(std::size_t)>& body) {
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < std::max<std::size_t>(1, threads); ++t) {
    pool.emplace_back([&] {
      for (std::size_t i = next++; i < n; i = next++) body(i);
    });
  }
  for (std::thread& thread : pool) thread.join();
}

}  // namespace perfbench
