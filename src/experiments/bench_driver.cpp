#include "experiments/bench_driver.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <iostream>
#include <thread>
#include <tuple>
#include <utility>

#include "experiments/engine.hpp"
#include "experiments/spec_registry.hpp"
#include "obs/trace.hpp"
#include "service/worker.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/table.hpp"

namespace dlsched::experiments {

namespace {

// ------------------------------------------------------------ cluster side --

std::atomic<int> g_bench_signal{0};

extern "C" void on_bench_signal(int sig) { g_bench_signal.store(sig); }

/// `--worker tcp://HOST:PORT`: join a coordinator's lease board instead of
/// running a spec.  The spec itself arrives over the wire with each lease.
int run_worker_mode(const CliArgs& args, const std::string& endpoint) {
  service::TcpWorkerOptions options;
  options.endpoint = endpoint;
  options.worker_id = args.get_or(
      "worker-id", std::string("w").append(std::to_string(::getpid())));
  const std::int64_t threads = args.get_int("threads", 0);
  DLSCHED_EXPECT(threads >= 0, "--threads wants a non-negative count");
  options.threads = static_cast<std::size_t>(threads);
  options.scratch_dir = args.get_or("scratch-dir", "");
  const std::int64_t abandon = args.get_int("abandon-after", 0);
  DLSCHED_EXPECT(abandon >= 0, "--abandon-after wants a non-negative count");
  options.abandon_after = static_cast<std::size_t>(abandon);
  const service::TcpWorkerSummary summary =
      service::run_tcp_worker(options, std::cout);
  std::cout << "worker " << options.worker_id << ": " << summary.executed
            << " shard(s) executed, " << summary.discarded << " discarded, "
            << summary.jobs << " job(s), " << summary.solved << " solved, "
            << summary.cache_hits << " cache hit(s)"
            << (summary.drained ? ", drained" : "")
            << (summary.abandoned ? ", abandoned a lease" : "") << "\n";
  return 0;
}

/// `--workers N|auto`: the size of the local TCP worker fleet (`auto` =
/// one per core).  Absent, a coordinator waits for external workers and a
/// plain run stays in-process.
void parse_workers(const CliArgs& args, RunOptions& options) {
  const std::optional<std::string> text = args.get("workers");
  if (!text) return;
  if (*text == "auto") {
    options.workers = std::max(1u, std::thread::hardware_concurrency());
    return;
  }
  if (text->rfind("auto:", 0) == 0) {
    DLSCHED_FAIL("--workers " + *text + ": the fleet size is fixed; use "
                 "--workers " + text->substr(5));
  }
  const std::int64_t workers = args.get_int("workers", 1);
  DLSCHED_EXPECT(workers >= 1,
                 "--workers wants a positive process count or auto");
  options.workers = static_cast<std::size_t>(workers);
}

int list_specs() {
  Table table({"spec", "figure", "kind", "title"});
  for (const ExperimentSpec& spec : builtin_specs()) {
    table.begin_row()
        .cell(spec.name)
        .cell(spec.figure)
        .cell(kind_name(spec.kind))
        .cell(spec.title);
  }
  table.print_aligned(std::cout);
  std::cout << "\n" << builtin_specs().size()
            << " built-in specs; run one with --spec NAME or declare your "
               "own with --spec-file FILE.toml\n";
  return 0;
}

int list_generators() {
  Table table({"generator", "parameters", "description"});
  for (const gen::GeneratorInfo& info :
       gen::GeneratorRegistry::instance().infos()) {
    std::string params;
    for (const std::string& key : info.params) {
      if (!params.empty()) params += ",";
      params += key;
    }
    table.begin_row().cell(info.name).cell(params).cell(info.description);
  }
  table.print_aligned(std::cout);
  return 0;
}

int cache_stats(const CliArgs& args) {
  const std::string dir = args.get_or("cache-dir", ".dlsched_cache");
  const CacheInventory inventory = ResultCache::inspect(dir);
  if (!inventory.exists) {
    std::cout << "cache directory '" << dir << "' does not exist\n";
    return 0;
  }
  std::cout << "cache directory: " << dir << "\n"
            << "entries:         " << inventory.entries << "\n"
            << "total bytes:     " << inventory.total_bytes << "\n";
  if (inventory.has_last_run) {
    std::cout << "last run:        " << inventory.last_spec << " ("
              << inventory.last_run.hits << " hit(s), "
              << inventory.last_run.misses << " miss(es), "
              << inventory.last_run.stores << " store(s), "
              << inventory.last_run.evicted << " evicted)\n";
  } else {
    std::cout << "last run:        (no stats recorded yet)\n";
  }
  return 0;
}

/// Parses `--shard i/k` into (index, count); throws on malformed values.
/// Both halves must be plain digit runs -- std::stoul would happily wrap
/// "1/-2" into a huge count that silently runs a single shard.
std::pair<std::size_t, std::size_t> parse_shard(const std::string& text) {
  const auto digits = [](const std::string& s) {
    return !s.empty() && s.find_first_not_of("0123456789") == std::string::npos;
  };
  const std::size_t slash = text.find('/');
  std::size_t index = 0, count = 0;
  try {
    DLSCHED_EXPECT(slash != std::string::npos, "missing '/'");
    const std::string i_text = text.substr(0, slash);
    const std::string k_text = text.substr(slash + 1);
    DLSCHED_EXPECT(digits(i_text) && digits(k_text), "digits only");
    index = std::stoul(i_text);
    count = std::stoul(k_text);
    DLSCHED_EXPECT(count > 0 && index < count, "need i < k and k > 0");
  } catch (const std::exception&) {
    DLSCHED_FAIL("--shard wants i/k with 0 <= i < k (got '" + text + "')");
  }
  return {index, count};
}

int run_one(ExperimentSpec spec, const CliArgs& args,
            std::chrono::steady_clock::time_point run_epoch) {
  if (args.has("seed")) {
    spec.seed = static_cast<std::uint64_t>(args.get_int("seed", 0));
  }
  if (args.has("repetitions")) {
    spec.repetitions =
        static_cast<std::size_t>(args.get_int("repetitions", 1));
  }
  if (const auto filter = args.get("filter")) {
    // Axis slicing (`--filter p=4,solver=affine_greedy|affine_fifo`):
    // the filtered spec shares the cache with the full sweep, so a slice
    // is both a cheap CI smoke and a warm-up for the full run.
    apply_spec_filter(spec, *filter);
  }
  RunOptions options;
  options.out_json = args.has("no-json")
                         ? std::string()
                         : args.get_or("out", "BENCH_" + spec.name + ".json");
  options.out_csv = args.has("no-csv") ? std::string()
                                       : args.get_or("csv", spec.name + ".csv");
  options.cache_dir = args.has("no-cache")
                          ? std::string()
                          : args.get_or("cache-dir", ".dlsched_cache");
  options.threads = static_cast<std::size_t>(args.get_int("threads", 0));
  options.quick = args.has("quick");
  // Measured from before the spec was parsed, so the reported wall time
  // matches /usr/bin/time within noise.
  options.run_epoch = run_epoch;
  if (const auto trace = args.get("trace")) {
    DLSCHED_EXPECT(!trace->empty(), "--trace wants an output path");
    options.trace_path = *trace;
  }
  if (const auto coordinator = args.get("coordinator")) {
    options.coordinator = *coordinator;
  }
  parse_workers(args, options);
  if (const auto shard = args.get("shard")) {
    std::tie(options.shard_index, options.shard_count) = parse_shard(*shard);
    // A slice publishes fragments; the artifacts belong to --join.
    options.out_json.clear();
    options.out_csv.clear();
  }
  options.join_only = args.has("join");
  options.cache_max_bytes =
      static_cast<std::uint64_t>(args.get_int("cache-max-bytes", 0));
  // Long enough to be a real renewal period, short enough that a dead
  // worker's shard is reassigned within the hour.
  options.lease_ttl_seconds =
      args.get_double("lease-ttl", options.lease_ttl_seconds);
  DLSCHED_EXPECT(
      options.lease_ttl_seconds >= 0.05 &&
          options.lease_ttl_seconds <= 3600.0,
      "--lease-ttl " + format_double(options.lease_ttl_seconds, 6) +
          " is out of range (accepted: 0.05 to 3600 seconds)");
  if (!options.coordinator.empty()) {
    // SIGTERM/SIGINT drain the coordinator instead of killing the run.
    std::signal(SIGTERM, on_bench_signal);
    std::signal(SIGINT, on_bench_signal);
    options.stop_signal = &g_bench_signal;
  }
  const RunSummary summary = run_spec(spec, options);
  return summary.failures == 0 ? 0 : 1;
}

/// One `dlsched_bench` option.  `bench_options()` is the single list
/// that `--help` prints and that `bench_main` checks every parsed option
/// against; an entry without a name is a section heading.
struct BenchOption {
  const char* name;   ///< without the leading "--"
  const char* value;  ///< value placeholder; nullptr for a flag
  const char* help;
};

const std::vector<BenchOption>& bench_options() {
  static const auto* options = new std::vector<BenchOption>{
      {nullptr, nullptr, "modes (one per invocation):"},
      {"spec", "NAME", "run a built-in spec"},
      {"spec-file", "FILE", "run a spec declared in a TOML file"},
      {"all", nullptr, "run every built-in spec"},
      {"list-specs", nullptr, "list the built-in specs"},
      {"list-generators", nullptr, "list the platform generators"},
      {"cache-stats", nullptr, "report the result cache (see --cache-dir)"},
      {"help", nullptr, "print this list"},
      {nullptr, nullptr, "run options:"},
      {"out", "FILE", "BENCH JSON artifact (default BENCH_<spec>.json)"},
      {"csv", "FILE", "figure-data CSV (default <spec>.csv)"},
      {"no-json", nullptr, "suppress the JSON artifact"},
      {"no-csv", nullptr, "suppress the CSV artifact"},
      {"cache-dir", "DIR", "result cache (default .dlsched_cache)"},
      {"no-cache", nullptr, "solve everything, store nothing"},
      {"cache-max-bytes", "N",
       "LRU-evict the cache down to N bytes post-run"},
      {"threads", "N",
       "pool size (0 = all cores; split over a --workers fleet; 1 in a "
       "--worker process)"},
      {"quick", nullptr, "shrink axes (same shape, small grid)"},
      {"seed", "N", "override the spec's seed block"},
      {"repetitions", "N", "override instances per grid point"},
      {"filter", "AXIS=V[|V],...",
       "run one grid slice (e.g. p=4,solver=lifo)"},
      {"trace", "FILE",
       "merge every process's spans into one Chrome trace"},
      {nullptr, nullptr, "distributed runs:"},
      {"workers", "N|auto",
       "fork N local TCP workers (auto = one per core; without "
       "--coordinator, a loopback board)"},
      {"coordinator", "HOST:PORT",
       "own the lease board over TCP on HOST:PORT"},
      {"lease-ttl", "S", "lease TTL before reassignment (0.05 to 3600)"},
      {"shard", "i/k",
       "run shards with index % k == i, publish fragments"},
      {"join", nullptr, "merge published fragments deterministically"},
      {"worker", "tcp://HOST:PORT", "lease shards from a coordinator"},
      {"worker-id", "ID", "--worker's lease holder name (default w<pid>)"},
      {"scratch-dir", "DIR",
       "--worker's scratch cache (default: a temp dir)"},
      {"abandon-after", "N",
       "chaos drill: die holding a lease after N shards"}};
  return *options;
}

/// `--help`: every entry of `bench_options()`, one per line.
int bench_usage() {
  std::cout << "usage: dlsched_bench MODE [options]\n";
  for (const BenchOption& option : bench_options()) {
    if (option.name == nullptr) {
      std::cout << "\n" << option.help << "\n";
      continue;
    }
    std::string label = std::string("  --") + option.name;
    if (option.value != nullptr) label += std::string(" ") + option.value;
    label.resize(std::max<std::size_t>(label.size() + 2, 28), ' ');
    std::cout << label << option.help << "\n";
  }
  return 0;
}

}  // namespace

const std::vector<std::string>& bench_flags() {
  static const auto* flags = [] {
    auto* names = new std::vector<std::string>();
    for (const BenchOption& option : bench_options()) {
      if (option.name != nullptr && option.value == nullptr) {
        names->emplace_back(option.name);
      }
    }
    return names;
  }();
  return *flags;
}

int bench_main(const CliArgs& args) {
  // Stamp the run epoch and start the tracer before any spec parsing so
  // the root span (and wall_seconds) covers parse + plan time.
  const auto run_epoch = std::chrono::steady_clock::now();
  for (const std::string& name : args.option_names()) {
    const bool known = std::any_of(
        bench_options().begin(), bench_options().end(),
        [&](const BenchOption& option) {
          return option.name != nullptr && name == option.name;
        });
    if (!known) {
      DLSCHED_FAIL("unknown option --" + name + " (--help lists every option)");
    }
  }
  if (args.has("help")) return bench_usage();
  if (args.get("trace")) obs::Tracer::instance().enable("bench");
  if (const auto endpoint = args.get("worker")) {
    return run_worker_mode(args, *endpoint);
  }
  if (args.has("list-specs")) return list_specs();
  if (args.has("list-generators")) return list_generators();
  if (args.has("cache-stats")) return cache_stats(args);
  if (args.has("all")) {
    if (args.get("out") || args.get("csv") || args.get("trace")) {
      std::cerr << "--all names artifacts per spec; drop --out/--csv/"
                   "--trace\n";
      return 2;
    }
    int status = 0;
    for (const ExperimentSpec& spec : builtin_specs()) {
      status |= run_one(spec, args, std::chrono::steady_clock::now());
      std::cout << "\n";
    }
    return status;
  }
  if (const auto path = args.get("spec-file")) {
    return run_one(load_spec_file(*path), args, run_epoch);
  }
  if (const auto name = args.get("spec")) {
    return run_one(find_builtin_spec(*name), args, run_epoch);
  }
  std::cerr << "bench needs --spec NAME, --spec-file FILE, --all, "
               "--list-specs, --list-generators or --cache-stats "
               "(--help lists every option)\n";
  return 2;
}

}  // namespace dlsched::experiments
