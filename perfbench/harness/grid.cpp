// grid_solve and grid_cluster: one seeded grid, run in process or through
// the TCP coordinator.
//
// The end-to-end pass repeats whole `run_spec` passes over one seeded grid
// until the timed budget is spent and reports medians over the passes.
// The per-layer pass re-runs the grid once untraced, once through the
// public layer functions (`plan_shards`, `execute_shard`, `ShardAssembler`)
// with a timer around every call, and solves every job directly on one
// thread.  Every pass's BENCH rows are checked against the direct solves:
// same solver, bit-identical throughput, same participants.
#include <netinet/in.h>
#include <signal.h>
#include <spawn.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <exception>
#include <memory>
#include <mutex>
#include <sstream>
#include <streambuf>
#include <thread>

#include "experiments/emitter.hpp"
#include "experiments/engine.hpp"
#include "experiments/shard.hpp"
#include "experiments/spec_registry.hpp"
#include "platform/generators.hpp"
#include "service/client.hpp"
#include "service/replay.hpp"
#include "service/worker.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

extern char** environ;

namespace perfbench {

namespace ex = dlsched::experiments;

namespace {

constexpr std::size_t kThreads = 4;         // in-process pool: nproc
constexpr std::size_t kClusterWorkers = 3;  // grid_cluster TCP workers
constexpr std::size_t kSetups = 25;         // set-up repeats, median kept
constexpr std::size_t kMinPasses = 3;
constexpr std::size_t kRepetitions = 16;

/// Discards the engine's progress log.
class NullBuffer : public std::streambuf {
 protected:
  int overflow(int c) override { return traits_type::not_eof(c); }
  std::streamsize xsputn(const char*, std::streamsize n) override {
    return n;
  }
};

enum class Transport { InProcess, Coordinator, ForkBoard };

/// The built-in solver micro grid and the affine surface: nearly all the
/// work is solving.  16 repetitions instead of 3 give a pass 2016 jobs, so
/// a pass's wall hangs less on which heavy instances a seed drew.
std::vector<ex::ExperimentSpec> grid_specs(const Options& options) {
  ex::ExperimentSpec micro = ex::find_builtin_spec("micro_solvers");
  ex::ExperimentSpec affine = ex::find_builtin_spec("affine_surface");
  micro.seed = derive_seed(options.seed, 1);
  affine.seed = derive_seed(options.seed, 2);
  micro.repetitions = kRepetitions;
  affine.repetitions = kRepetitions;
  return {micro, affine};
}

/// One solver job of the planned grid, in emission order.
struct Job {
  std::string solver;
  const dlsched::SolveRequest* request = nullptr;
};

struct GridSetup {
  std::vector<ex::ExperimentSpec> specs;
  std::vector<std::vector<ex::CompiledShard>> plans;  // one per spec
  std::vector<Job> jobs;
  std::string coordinator;  // "127.0.0.1:PORT" (grid_cluster)
};

/// A loopback port nobody listens on right now.
std::string free_loopback_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  DLSCHED_EXPECT(fd >= 0, "socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  socklen_t length = sizeof addr;
  const bool ok =
      ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0 &&
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &length) == 0;
  ::close(fd);
  DLSCHED_EXPECT(ok, "cannot pick a loopback port");
  return "127.0.0.1:" + std::to_string(ntohs(addr.sin_port));
}

GridSetup set_up(const Options& options) {
  GridSetup setup;
  setup.specs = grid_specs(options);
  setup.plans.reserve(setup.specs.size());
  for (const ex::ExperimentSpec& spec : setup.specs) {
    ex::validate_spec(spec);
    setup.plans.push_back(ex::plan_shards(spec));
  }
  for (const auto& plan : setup.plans) {
    for (const ex::CompiledShard& shard : plan) {
      for (const ex::GridCell& cell : shard.cells) {
        for (const ex::GridSlot& slot : cell.slots) {
          setup.jobs.push_back({slot.solver, &cell.request});
        }
      }
    }
  }
  std::filesystem::create_directories(options.scratch);
  if (options.workload == "grid_cluster") {
    setup.coordinator = free_loopback_port();
  }
  return setup;
}

/// grid_cluster runs with a new cache directory per pass, as the
/// coordinator's commit path stores every accepted record.
bool uses_cache(const Options& options) {
  return options.workload == "grid_cluster";
}

std::string artifact_path(const std::string& dir,
                          const ex::ExperimentSpec& spec) {
  return dir + "/BENCH_" + spec.name + ".json";
}

struct Pass {
  double wall = 0.0;
  double cpu = 0.0;  // this process plus every reaped child
  std::size_t jobs = 0;
  std::size_t failed_workers = 0;  // cluster workers that did not exit 0
  std::vector<ArtifactRow> rows;
};

/// Runs one coordinator `run_spec` (no local workers) and starts
/// kClusterWorkers worker processes, `perfbench_harness worker`, as soon
/// as it listens.  The engine's own `--workers N` forks its workers from a
/// process whose coordinator threads are already serving connections;
/// in about one pass in sixty such a forked worker never finished, and
/// the run hung in `waitpid` (the likely cause is a lock some other
/// thread held at the fork).  Exec'd workers inherit no locks.
///
/// The starter thread spawns the workers and also reaps them: a worker
/// dies with the thread that spawned it (PR_SET_PDEATHSIG), so that
/// thread must outlive it.
std::size_t run_with_workers(const Options& options,
                             const ex::ExperimentSpec& spec,
                             ex::RunOptions run, std::size_t& failed) {
  std::atomic<int> stop{0};
  run.stop_signal = &stop;
  const std::string endpoint = "tcp://" + run.coordinator;
  std::mutex mutex;
  std::vector<pid_t> workers;  // guarded by mutex
  std::size_t exited_badly = 0;
  std::thread starter([&] {
    const auto begin = Clock::now();
    while (true) {
      try {
        dlsched::service::ServeClient probe(endpoint);
        break;
      } catch (const std::exception&) {
        if (stop.load() != 0) return;
        if (seconds_since(begin) > 30.0) {
          stop = 1;  // drains run_spec, which then throws
          return;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    for (std::size_t w = 0; w < kClusterWorkers; ++w) {
      std::vector<std::string> args{options.self_exe, "worker", "--endpoint",
                                    endpoint, "--id",
                                    "perfbench-w" + std::to_string(w)};
      std::vector<char*> argv;
      for (std::string& arg : args) argv.push_back(arg.data());
      argv.push_back(nullptr);
      const std::lock_guard<std::mutex> lock(mutex);
      if (stop.load() != 0) break;
      pid_t pid = -1;
      if (::posix_spawn(&pid, options.self_exe.c_str(), nullptr, nullptr,
                        argv.data(), environ) == 0) {
        workers.push_back(pid);
      } else {
        stop = 1;
      }
    }
    std::vector<pid_t> spawned;
    {
      const std::lock_guard<std::mutex> lock(mutex);
      spawned = workers;
    }
    for (const pid_t pid : spawned) {
      int status = 0;
      if (::waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
          WEXITSTATUS(status) != 0) {
        ++exited_badly;
      }
    }
  });
  std::size_t jobs = 0;
  std::exception_ptr error;
  try {
    jobs = ex::run_spec(spec, run).jobs;
  } catch (...) {
    error = std::current_exception();
    const std::lock_guard<std::mutex> lock(mutex);
    stop = 1;
    for (const pid_t pid : workers) ::kill(pid, SIGKILL);
  }
  starter.join();
  failed += exited_badly;
  if (error) std::rethrow_exception(error);
  return jobs;
}

/// One user-visible grid run: `run_spec` per spec, each writing its BENCH
/// artifact; a cached workload starts from an empty cache directory.
Pass run_pass(const Options& options, const GridSetup& setup,
              Transport transport) {
  NullBuffer sink;
  std::ostream log(&sink);
  const std::string dir = unique_dir(options.scratch, "pass");
  std::vector<ex::RunOptions> runs;
  for (const ex::ExperimentSpec& spec : setup.specs) {
    ex::RunOptions run;
    run.out_json = artifact_path(dir, spec);
    run.log = &log;
    run.threads = kThreads;
    if (uses_cache(options)) run.cache_dir = dir + "/cache";
    if (transport == Transport::Coordinator) {
      run.coordinator = setup.coordinator;
      run.threads = 1;
    } else if (transport == Transport::ForkBoard) {
      run.workers = kClusterWorkers;
      run.threads = 1;
    }
    runs.push_back(run);
  }

  Pass pass;
  const double cpu_before = self_cpu_s() + reaped_children_cpu_s();
  const auto start = Clock::now();
  for (std::size_t k = 0; k < setup.specs.size(); ++k) {
    pass.jobs += transport == Transport::Coordinator
                     ? run_with_workers(options, setup.specs[k], runs[k],
                                        pass.failed_workers)
                     : ex::run_spec(setup.specs[k], runs[k]).jobs;
  }
  pass.wall = seconds_since(start);
  pass.cpu = self_cpu_s() + reaped_children_cpu_s() - cpu_before;

  for (const ex::ExperimentSpec& spec : setup.specs) {
    for (ArtifactRow& row : read_artifact_rows(artifact_path(dir, spec))) {
      pass.rows.push_back(std::move(row));
    }
  }
  return pass;
}

/// Rows that differ from the direct solves (missing rows included).
std::size_t count_mismatches(const std::vector<ArtifactRow>& rows,
                             const std::vector<ArtifactRow>& expected) {
  std::size_t bad = rows.size() > expected.size()
                        ? rows.size() - expected.size()
                        : expected.size() - rows.size();
  for (std::size_t i = 0; i < std::min(rows.size(), expected.size()); ++i) {
    const ArtifactRow& row = rows[i];
    if (!row.solved || row.solver != expected[i].solver ||
        !same_bits(row.throughput, expected[i].throughput) ||
        row.participants != expected[i].participants) {
      ++bad;
    }
  }
  return bad;
}

std::uint64_t digest_of(const std::vector<ArtifactRow>& rows) {
  Digest digest;
  for (const ArtifactRow& row : rows) {
    digest.add(row.solver, row.throughput, row.participants);
  }
  return digest.value();
}

/// The artifact row a direct solve says the engine must emit.
ArtifactRow expected_of(const std::string& solver,
                        const dlsched::SolveResult& result) {
  ArtifactRow row;
  row.solver = solver;
  row.solved = true;
  row.throughput = result.throughput();
  row.participants = result.participants;
  return row;
}

/// Direct solves of every job on the harness's own threads (the check
/// reference of the end-to-end pass; never timed).
std::vector<ArtifactRow> reference_solves(const GridSetup& setup) {
  std::vector<ArtifactRow> expected(setup.jobs.size());
  parallel_for(setup.jobs.size(), kThreads, [&](std::size_t i) {
    const Job& job = setup.jobs[i];
    try {
      expected[i] = expected_of(
          job.solver,
          dlsched::SolverRegistry::instance().create(job.solver)->solve(
              *job.request));
    } catch (const std::exception&) {
      expected[i].solver = "<failed>";
    }
  });
  return expected;
}

void print_digest(const char* label, std::uint64_t digest, std::size_t rows) {
  std::cout << "digest " << label << ": " << std::hex << digest << std::dec
            << " over " << rows << " rows\n";
}

// ------------------------------------------------------- end-to-end pass --

RunResult run_end_to_end(const Options& options) {
  const Transport transport = options.workload == "grid_cluster"
                                  ? Transport::Coordinator
                                  : Transport::InProcess;
  std::vector<double> setup_s;
  GridSetup setup;
  for (std::size_t i = 0; i < kSetups; ++i) {
    const auto start = Clock::now();
    setup = set_up(options);
    setup_s.push_back(seconds_since(start));
  }
  // Solved before the timed phase (this also brings every vCPU up to
  // speed), so each pass is checked as it ends and its rows dropped: the
  // harness's memory does not grow with the number of passes.
  const std::vector<ArtifactRow> expected = reference_solves(setup);
  print_digest("direct", digest_of(expected), expected.size());

  RunResult result;
  std::vector<double> walls;
  std::vector<double> cpus;
  double timed = 0.0;
  while (walls.size() < kMinPasses || timed < options.seconds) {
    const Pass pass = run_pass(options, setup, transport);
    const std::size_t bad =
        count_mismatches(pass.rows, expected) + pass.failed_workers;
    timed += pass.wall;
    result.attempted += pass.jobs;
    result.failed += bad;
    walls.push_back(pass.wall);
    cpus.push_back(pass.cpu);
    std::cout << "pass " << walls.size() - 1 << ": " << pass.jobs
              << " jobs, wall " << pass.wall << " s, cpu " << pass.cpu
              << " s, digest " << std::hex << digest_of(pass.rows) << std::dec
              << ", " << bad << " mismatched rows\n";
  }
  std::cout << "samples: " << walls.size() << " passes, " << kSetups
            << " set-ups\n";

  result.add("setup_s", median(setup_s), "s");
  result.add("jobs_per_s",
             static_cast<double>(setup.jobs.size()) / median(walls), "1/s");
  result.add("cpu_s", median(cpus), "s");
  result.add("peak_rss_mb",
             self_peak_rss_mb() + reaped_children_peak_rss_mb(), "MB");
  // A grid has no offered rate: the highest rate it sustains over whole
  // passes is its throughput.
  result.add("max_rps", static_cast<double>(setup.jobs.size()) / median(walls),
             "1/s");
  return result;
}

// -------------------------------------------------------- per-layer pass --

/// The in-process grid path rebuilt from its public layer functions, with
/// a timer around each call.
struct Layered {
  double wall = 0.0;
  double plan_s = 0.0;
  double shard_wall_s = 0.0;
  double assemble_s = 0.0;
  double job_s = 0.0;      // summed row solve seconds
  double barrier_s = 0.0;  // shard wall not covered by job_s / threads
  std::vector<ArtifactRow> rows;
};

Layered run_layered(const Options& options, const GridSetup& setup,
                    std::size_t threads) {
  NullBuffer sink;
  std::ostream log(&sink);
  const std::string dir = unique_dir(options.scratch, "layered");
  const std::string cache_dir = dir + "/cache";
  Layered layered;
  const auto start = Clock::now();
  for (const ex::ExperimentSpec& spec : setup.specs) {
    ex::ResultCache cache = uses_cache(options) ? ex::ResultCache(cache_dir)
                                                : ex::ResultCache();
    auto t = Clock::now();
    const std::vector<ex::CompiledShard> shards = ex::plan_shards(spec);
    layered.plan_s += seconds_since(t);
    std::ofstream json(artifact_path(dir, spec));
    ex::RunSummary summary;
    summary.spec = spec.name;
    ex::BenchJsonWriter writer(json, spec, ex::grid_solvers(spec));
    ex::ShardAssembler assembler(&writer, nullptr, summary, log);
    for (const ex::CompiledShard& shard : shards) {
      t = Clock::now();
      const ex::ShardResult shard_result =
          ex::execute_shard(spec, shard, cache, threads);
      const double wall = seconds_since(t);
      double job_s = 0.0;
      for (const ex::ShardRow& row : shard_result.rows) {
        job_s += row.wall_seconds;
      }
      layered.shard_wall_s += wall;
      layered.job_s += job_s;
      layered.barrier_s += wall - job_s / static_cast<double>(threads);
      t = Clock::now();
      assembler.consume(shard_result);
      layered.assemble_s += seconds_since(t);
    }
    t = Clock::now();
    assembler.finish();
    writer.finish();
    json.flush();
    layered.assemble_s += seconds_since(t);
  }
  layered.wall = seconds_since(start);
  for (const ex::ExperimentSpec& spec : setup.specs) {
    for (ArtifactRow& row : read_artifact_rows(artifact_path(dir, spec))) {
      layered.rows.push_back(std::move(row));
    }
  }
  return layered;
}

/// A coordinator pass with its claim board polled from outside.
struct Polled {
  Pass pass;
  double backlog_idle_s = 0.0;
  double fragment_bytes = 0.0;
  double reassignments = 0.0;
  double discarded = 0.0;
  std::size_t polls = 0;
};

Polled run_polled_cluster(const Options& options, const GridSetup& setup) {
  Polled polled;
  std::atomic<bool> done{false};
  std::thread poller([&] {
    namespace svc = dlsched::service;
    std::unique_ptr<svc::ServeClient> client;
    auto last = Clock::now();
    while (!done.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      try {
        if (!client) {
          client = std::make_unique<svc::ServeClient>("tcp://" +
                                                      setup.coordinator);
          last = Clock::now();
        }
        const std::string json = client->stats_json();
        const auto now = Clock::now();
        const double backlog = svc::json_number_field(json, "shard_backlog");
        const double leases =
            svc::json_number_field(json, "leases_outstanding");
        if (backlog > 0.0 && leases < static_cast<double>(kClusterWorkers)) {
          polled.backlog_idle_s += seconds_between(last, now);
        }
        last = now;
        polled.fragment_bytes = svc::json_number_field(json, "fragment_bytes");
        polled.reassignments =
            svc::json_number_field(json, "lease_reassignments");
        polled.discarded =
            svc::json_number_field(json, "fragments_discarded");
        ++polled.polls;
      } catch (const std::exception&) {
        client.reset();  // not listening yet, or already shut down
      }
    }
  });
  try {
    polled.pass = run_pass(options, setup, Transport::Coordinator);
  } catch (...) {
    done = true;
    poller.join();
    throw;
  }
  done = true;
  poller.join();
  return polled;
}

RunResult run_layers(const Options& options) {
  const bool cluster = options.workload == "grid_cluster";
  const GridSetup setup = set_up(options);
  RunResult result;
  LayerValues layers;

  const Transport transport =
      cluster ? Transport::Coordinator : Transport::InProcess;
  (void)run_pass(options, setup, transport);  // warm-up: vCPUs, page cache
  const Pass untraced = run_pass(options, setup, transport);
  const std::size_t threads = cluster ? kClusterWorkers : kThreads;
  const Layered layered = run_layered(options, setup, threads);

  // Direct single-thread solves: the per-family solve time, the numeric,
  // LP and affine counters, validate and DES replay -- and the reference
  // every pass is checked against.
  SolveLedger ledger;
  std::vector<ArtifactRow> expected;
  std::vector<dlsched::service::SolveRecord> records;
  for (const Job& job : setup.jobs) {
    const dlsched::SolveResult solved = ledger.solve(job.solver, *job.request);
    expected.push_back(expected_of(job.solver, solved));
    records.push_back(record_of(job.solver, solved));
  }
  std::size_t bad = ledger.invalid + count_mismatches(untraced.rows, expected) +
                    count_mismatches(layered.rows, expected);
  result.attempted = untraced.jobs + 2 * setup.jobs.size();
  print_digest("direct", digest_of(expected), expected.size());
  print_digest("run_spec", digest_of(untraced.rows), untraced.rows.size());
  print_digest("layered", digest_of(layered.rows), layered.rows.size());

  double generate_s = 0.0;
  for (std::size_t k = 0; k < setup.specs.size(); ++k) {
    const ex::ExperimentSpec& spec = setup.specs[k];
    for (const ex::CompiledShard& shard : setup.plans[k]) {
      dlsched::gen::GenParams params = spec.generator_params;
      if (shard.p) params["p"] = static_cast<double>(*shard.p);
      if (shard.z) params["z"] = *shard.z;
      dlsched::Rng rng(ex::instance_seed(spec.seed, shard.p.value_or(0),
                                         shard.z.value_or(-1.0), shard.rep));
      const auto t = Clock::now();
      const auto generated =
          dlsched::gen::GeneratorRegistry::instance().make_generated(
              spec.generator, params, rng);
      generate_s += seconds_since(t);
      if (generated.platform.size() !=
          shard.cells.front().request.platform.size()) {
        ++bad;
      }
    }
  }

  std::vector<KeyedRecord> keyed;
  std::vector<WireSample> wire_samples;
  for (std::size_t i = 0; i < setup.jobs.size(); ++i) {
    const Job& job = setup.jobs[i];
    std::string key = dlsched::job_canonical_key(job.solver, *job.request);
    std::string hash = dlsched::job_hash_from_key(key);
    keyed.push_back({std::move(hash), std::move(key), records[i]});
    wire_samples.push_back({job.solver, job.request, &records[i]});
  }
  const CacheTiming cache =
      time_cache(unique_dir(options.scratch, "cache_timing"), keyed);
  const WireTiming wire = time_wire(wire_samples);
  bad += cache.mismatches + wire.mismatches;

  const double solve_s = ledger.solve_s[0] + ledger.solve_s[1] +
                         ledger.solve_s[2];
  layers["numeric.arena_acquires"] = static_cast<double>(ledger.arena_acquires);
  layers["numeric.arena_pool_hit_ratio"] =
      ratio(static_cast<double>(ledger.arena_pool_hits),
            static_cast<double>(ledger.arena_acquires));
  layers["lp.pivots"] = static_cast<double>(ledger.pivots);
  layers["lp.fallbacks"] = static_cast<double>(ledger.fallbacks);
  layers["core.solve_s.closed_form"] = ledger.solve_s[0];
  layers["core.solve_s.search"] = ledger.solve_s[1];
  layers["core.solve_s.affine"] = ledger.solve_s[2];
  layers["core.batch_busy_ratio"] =
      ratio(layered.job_s,
            static_cast<double>(threads) * layered.shard_wall_s);
  layers["experiments.shard_barrier_s"] = layered.barrier_s;
  layers["affine.pruned_ratio"] =
      ratio(static_cast<double>(ledger.pruned),
            static_cast<double>(ledger.scenarios_tried));
  layers["affine.screened_ratio"] =
      ratio(static_cast<double>(ledger.screened),
            static_cast<double>(ledger.scenarios_tried));
  layers["schedule.validate_s"] = ledger.validate_s;
  layers["sim.replay_s"] = ledger.replay_s;
  layers["platform.generate_s"] = generate_s;
  layers["experiments.plan_s"] = layered.plan_s;
  layers["experiments.shard_wall_s"] = layered.shard_wall_s;
  layers["experiments.assemble_s"] = layered.assemble_s;
  layers["experiments.cache_store_us"] = cache.store_us;
  layers["experiments.cache_lookup_us"] = cache.lookup_us;
  layers["wire.encode_us"] = wire.encode_us;
  layers["wire.decode_us"] = wire.decode_us;
  layers["wire.request_bytes"] = wire.request_bytes;

  if (cluster) {
    const Polled polled = run_polled_cluster(options, setup);
    const Pass fork = run_pass(options, setup, Transport::ForkBoard);
    bad += count_mismatches(polled.pass.rows, expected) +
           count_mismatches(fork.rows, expected);
    result.attempted += polled.pass.jobs + fork.jobs;
    double row_solve_s = 0.0;
    for (const ArtifactRow& row : polled.pass.rows) {
      row_solve_s += row.wall_seconds;
    }
    const double workers = static_cast<double>(kClusterWorkers);
    layers["experiments.fork_board_jobs_per_s"] =
        static_cast<double>(fork.jobs) / fork.wall;
    layers["wire.fragment_bytes"] = polled.fragment_bytes;
    layers["lease.backlog_idle_s"] = polled.backlog_idle_s;
    layers["lease.worker_solve_share"] =
        ratio(row_solve_s, workers * polled.pass.wall);
    layers["lease.reassignments"] = polled.reassignments;
    layers["lease.discarded"] = polled.discarded;
    layers["unattributed_s"] = untraced.wall - layered.plan_s -
                               row_solve_s / workers - layered.assemble_s;
    layers["trace_overhead_ratio"] = ratio(polled.pass.wall, untraced.wall);
    std::cout << "cluster: " << polled.polls << " board polls, wall "
              << polled.pass.wall << " s (untraced " << untraced.wall
              << " s), fork board wall " << fork.wall << " s\n";
  } else {
    layers["unattributed_s"] = untraced.wall - layered.plan_s -
                               layered.shard_wall_s - layered.assemble_s;
    layers["trace_overhead_ratio"] = ratio(layered.wall, untraced.wall);
  }
  std::cout << "walls: run_spec " << untraced.wall << " s, layered "
            << layered.wall << " s, direct solves " << solve_s
            << " s on one thread\n";

  result.failed = bad;
  add_layer_metrics(result, layers);
  return result;
}

}  // namespace

int cluster_worker(int argc, char** argv) {
  // Never outlive the harness, even when it is killed.
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
  dlsched::service::TcpWorkerOptions worker;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag == "--endpoint") worker.endpoint = argv[i + 1];
    if (flag == "--id") worker.worker_id = argv[i + 1];
  }
  worker.threads = 1;
  std::ostringstream log;
  try {
    (void)dlsched::service::run_tcp_worker(worker, log);
  } catch (const std::exception& error) {
    std::cerr << "worker " << worker.worker_id << ": " << error.what()
              << "\n";
    return 1;
  }
  return 0;
}

RunResult run_grid(const Options& options) {
  return options.trace ? run_layers(options) : run_end_to_end(options);
}

}  // namespace perfbench
