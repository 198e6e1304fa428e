// serve_mix: an open-loop request stream against a `dlsched_serve`-style
// daemon running in its own process.
//
// Set-up generates a seeded stream -- a hot set answered once during
// set-up, then ~90% repeats of it and ~10% fresh p = 8 `fifo_optimal`
// requests -- starts the daemon with an empty cache and fills the hot set.
// The timed phase steps through fixed arrival rates (Poisson arrivals, so
// the loop is open): four client connections send each request at its due
// time, and every latency is measured from that due time, so a stall also
// charges the requests queued behind it.  A step whose generator ran late
// is invalid and reports no latency.
#include <pthread.h>
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <iostream>
#include <latch>
#include <memory>
#include <random>
#include <sstream>
#include <thread>

#include "platform/generators.hpp"
#include "service/client.hpp"
#include "service/replay.hpp"
#include "service/server.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

extern char** environ;

namespace perfbench {

namespace svc = dlsched::service;

namespace {

constexpr const char* kSolver = "fifo_optimal";
constexpr std::size_t kPlatformSize = 8;
constexpr std::size_t kHotSet = 64;
constexpr double kHotShare = 0.9;
constexpr std::size_t kConnections = 4;
constexpr std::size_t kSetups = 5;
/// A step is invalid when the generator's p99 lateness exceeds this share
/// of the latency limit: the generator, not the daemon, fell behind.
constexpr double kLagShareOfLimit = 0.2;
/// A step with more requests outstanding than this at the end of most of
/// its one-second segments has a growing backlog (at a sustainable rate
/// only the few requests in flight are outstanding).  One segment over the
/// limit is a stall of the shared host, not a backlog that grows: at
/// 2000 requests/s, a 50 ms pause of the daemon's vCPUs leaves 100
/// requests outstanding.
constexpr std::size_t kBacklogLimit = 64;

/// Fixed arrival rates (requests/s) and their share of `--seconds`, from
/// light load to past saturation.  Step 1 is the reference rate, about a
/// quarter of saturation on a 4-vCPU machine: the hit path's capacity
/// swings between ~3000 and ~7000 requests/s with the disk's state, and
/// only this far below it do latencies repeat from run to run.  Most of
/// the timed phase goes to the reference step, for the window medians.
/// The step past saturation is kept short: its backlog drains at a
/// capacity that changes from run to run, and at 2 s instead of 1 s that
/// drain set `jobs_per_s` (IQR/median over 5 seeds 0.088, against 0.019).
struct StepPlan {
  double rate;
  double share;
};
constexpr StepPlan kSteps[] = {
    {500.0, 0.05}, {1000.0, 0.65}, {2000.0, 0.25}, {8000.0, 0.05}};
/// Latency percentiles are taken per window of this many consecutive
/// requests (p99 then has ten samples beyond it) and the median over the
/// windows is reported, so one stall of the shared machine moves one
/// window rather than the whole figure.
constexpr std::size_t kWindow = 1000;
/// Length of one load segment; each segment opens new connections.
constexpr double kSegmentSeconds = 1.0;
constexpr std::size_t kReferenceStep = 1;
/// Lets the daemon's threads, caches and allocator settle before timing.
constexpr double kWarmupSeconds = 0.5;

struct Arrival {
  double offset_s = 0.0;  // due time from the step start
  std::size_t request = 0;
};

struct Schedule {
  double rate = 0.0;
  double duration_s = 0.0;
  std::vector<Arrival> arrivals;
};

struct Stream {
  std::vector<dlsched::SolveRequest> requests;  // [0, kHotSet) is hot
  Schedule warmup;                              // after set-up, untimed
  std::vector<Schedule> steps;                  // timed phase
  std::vector<Schedule> traced;                 // per-layer pass: 2 runs
};

dlsched::SolveRequest make_request(std::uint64_t seed) {
  dlsched::gen::GenParams params;
  params["p"] = static_cast<double>(kPlatformSize);
  dlsched::Rng rng(seed);
  dlsched::SolveRequest request;
  request.platform = dlsched::gen::GeneratorRegistry::instance()
                         .make_generated("random_star", params, rng)
                         .platform;
  request.seed = seed;
  return request;
}

Schedule make_schedule(Stream& stream, std::mt19937_64& rng, double rate,
                       double duration_s, std::uint64_t seed) {
  Schedule schedule;
  schedule.rate = rate;
  schedule.duration_s = duration_s;
  std::exponential_distribution<double> gap(rate);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::uniform_int_distribution<std::size_t> hot(0, kHotSet - 1);
  for (double t = gap(rng); t < duration_s; t += gap(rng)) {
    Arrival arrival;
    arrival.offset_s = t;
    if (unit(rng) < kHotShare) {
      arrival.request = hot(rng);
    } else {
      arrival.request = stream.requests.size();
      stream.requests.push_back(
          make_request(derive_seed(seed, stream.requests.size())));
    }
    schedule.arrivals.push_back(arrival);
  }
  return schedule;
}

/// Request i of the stream is generated from derive_seed(stream_seed, i).
std::uint64_t stream_seed(const Options& options) {
  return derive_seed(options.seed, 4);
}

Stream make_stream(const Options& options) {
  Stream stream;
  const std::uint64_t seed = stream_seed(options);
  std::mt19937_64 rng(derive_seed(options.seed, 5));
  for (std::size_t i = 0; i < kHotSet; ++i) {
    stream.requests.push_back(make_request(derive_seed(seed, i)));
  }
  stream.warmup = make_schedule(stream, rng, kSteps[0].rate, kWarmupSeconds,
                                seed);
  if (options.trace) {
    const StepPlan& reference = kSteps[kReferenceStep];
    const double duration = reference.share * options.seconds;
    for (int run = 0; run < 2; ++run) {
      stream.traced.push_back(
          make_schedule(stream, rng, reference.rate, duration, seed));
    }
  } else {
    for (const StepPlan& step : kSteps) {
      stream.steps.push_back(make_schedule(stream, rng, step.rate,
                                           step.share * options.seconds,
                                           seed));
    }
  }
  return stream;
}

// ------------------------------------------------------------- the daemon --

class Daemon {
 public:
  Daemon(const Options& options, const std::string& socket,
         const std::string& cache_dir)
      : socket_(socket) {
    std::vector<std::string> args{options.self_exe, "daemon", "--socket",
                                  socket, "--cache-dir", cache_dir};
    std::vector<char*> argv;
    for (std::string& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);
    const int rc = ::posix_spawn(&pid_, options.self_exe.c_str(), nullptr,
                                 nullptr, argv.data(), environ);
    DLSCHED_EXPECT(rc == 0, "cannot start the serve daemon");
    const auto start = Clock::now();
    while (true) {
      try {
        svc::ServeClient probe(socket_);
        (void)probe.stats_json();
        return;
      } catch (const std::exception&) {
        int status = 0;
        if (::waitpid(pid_, &status, WNOHANG) == pid_) {
          pid_ = -1;
          DLSCHED_FAIL("serve daemon exited during start-up");
        }
        if (seconds_since(start) > 20.0) {
          stop();
          DLSCHED_FAIL("serve daemon did not come up");
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    }
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] pid_t pid() const noexcept { return pid_; }
  [[nodiscard]] const std::string& socket() const noexcept { return socket_; }

  /// Graceful drain; returns false when the daemon did not exit cleanly.
  bool stop() {
    if (pid_ < 0) return true;
    ::kill(pid_, SIGTERM);
    int status = 0;
    const pid_t waited = ::waitpid(pid_, &status, 0);
    pid_ = -1;
    return waited > 0 && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

 private:
  std::string socket_;
  pid_t pid_ = -1;
};

struct Served {
  std::unique_ptr<Daemon> daemon;
  std::vector<std::string> hot_bodies;  // first answer per hot request
  std::size_t failed = 0;
};

Served start_and_fill(const Options& options, const Stream& stream) {
  const std::string dir = unique_dir(options.scratch, "daemon");
  Served served;
  served.daemon = std::make_unique<Daemon>(options, dir + "/serve.sock",
                                           dir + "/cache");
  svc::ServeClient client(served.daemon->socket());
  for (std::size_t i = 0; i < kHotSet; ++i) {
    const svc::SolveReply reply = client.solve(kSolver, stream.requests[i]);
    const bool ok = reply.kind == svc::SolveReply::Kind::Result &&
                    reply.record.solved;
    if (!ok) ++served.failed;
    served.hot_bodies.push_back(reply.raw_body);
  }
  return served;
}

// ---------------------------------------------------------- the load loop --

struct Sample {
  std::size_t request = 0;
  double latency_s = 0.0;
  bool ok = false;
  double throughput = 0.0;  // fresh answers, checked after the run
};

struct StepResult {
  double rate = 0.0;
  std::vector<Sample> samples;
  std::vector<double> lag_s;
  std::vector<double> backlogs;  // outstanding at each segment's end
  double cpu_s = 0.0;  // harness and daemon (end-to-end pass only)
  [[nodiscard]] bool valid(double latency_limit_ms) const {
    return quantile(lag_s, 0.99) * 1e3 <= kLagShareOfLimit * latency_limit_ms;
  }
  [[nodiscard]] bool saturated() const {
    return median(backlogs) > static_cast<double>(kBacklogLimit);
  }
  [[nodiscard]] std::size_t failures() const {
    return static_cast<std::size_t>(std::count_if(
        samples.begin(), samples.end(),
        [](const Sample& s) { return !s.ok; }));
  }
  /// Median over kWindow-request windows of each window's quantile q.
  [[nodiscard]] double windowed_ms(double q) const {
    const std::vector<double> all = latencies_ms();
    if (all.size() < 2 * kWindow) return quantile(all, q);
    std::vector<double> per_window;
    for (std::size_t at = 0; at + kWindow <= all.size(); at += kWindow) {
      per_window.push_back(quantile(
          std::vector<double>(all.begin() + static_cast<long>(at),
                              all.begin() + static_cast<long>(at + kWindow)),
          q));
    }
    return median(per_window);
  }
  [[nodiscard]] std::vector<double> latencies_ms(bool fresh_only = false)
      const {
    std::vector<double> out;
    for (const Sample& s : samples) {
      if (fresh_only && s.request < kHotSet) continue;
      out.push_back(s.latency_s * 1e3);
    }
    return out;
  }
};

class LoadGenerator {
 public:
  LoadGenerator(std::string socket, const Stream& stream,
                const std::vector<std::string>& hot_bodies)
      : socket_(std::move(socket)), stream_(stream), hot_bodies_(hot_bodies) {}

  /// Runs one rate step as consecutive segments of kSegmentSeconds, each
  /// on four new connections.  The daemon starts a thread per connection,
  /// and where the scheduler places that thread against its client's sets
  /// the hit round trip for as long as the connection lives; fresh
  /// connections per segment sample the placements instead of keeping one
  /// for the whole run.
  StepResult run(const Schedule& schedule) {
    StepResult result;
    result.rate = schedule.rate;
    result.samples.resize(schedule.arrivals.size());
    result.lag_s.resize(schedule.arrivals.size());
    std::size_t begin = 0;
    for (double from = 0.0; from < schedule.duration_s;
         from += kSegmentSeconds) {
      const double to = std::min(from + kSegmentSeconds, schedule.duration_s);
      std::size_t end = begin;
      while (end < schedule.arrivals.size() &&
             schedule.arrivals[end].offset_s < to) {
        ++end;
      }
      run_segment(schedule, begin, end, from, to, result);
      begin = end;
    }
    return result;
  }

 private:
  /// Arrivals [begin, end), due `from` .. `to` seconds into the schedule.
  /// Each connection thread that is idle claims the next arrival, sleeps
  /// until it is due and sends it, so no hand-off sits between the
  /// schedule and the socket.  When every connection is busy, arrivals
  /// wait for the next free one and that wait counts in their latency,
  /// which is measured from the due time.
  void run_segment(const Schedule& schedule, std::size_t begin,
                   std::size_t end, double from, double to,
                   StepResult& result) {
    std::vector<std::unique_ptr<svc::ServeClient>> clients;
    for (std::size_t c = 0; c < kConnections; ++c) {
      clients.push_back(std::make_unique<svc::ServeClient>(socket_));
    }
    std::atomic<std::size_t> next{begin};
    std::atomic<std::size_t> completed{0};
    // The segment's clock starts once every thread is up, so thread
    // start-up never shows as generator lateness.
    std::latch ready(static_cast<std::ptrdiff_t>(kConnections));
    std::latch go(1);
    Clock::time_point start;
    const auto at = [&](double offset_s) {
      return start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(offset_s - from));
    };
    std::vector<std::thread> workers;
    for (std::size_t c = 0; c < kConnections; ++c) {
      workers.emplace_back([&, c] {
        // A real-time priority keeps the daemon's solver threads from
        // delaying a send; where it is not permitted the thread runs at
        // normal priority and its lateness shows in `lag_s`.
        sched_param param{};
        param.sched_priority = 1;
        (void)pthread_setschedparam(pthread_self(), SCHED_FIFO, &param);
        ready.count_down();
        go.wait();
        for (std::size_t i = next++; i < end; i = next++) {
          const Arrival& arrival = schedule.arrivals[i];
          const auto due = at(arrival.offset_s);
          const bool idle = Clock::now() < due;
          std::this_thread::sleep_until(due);
          // Only an idle connection can send late on its own account; a
          // claim made after the due time waited for a busy system.
          result.lag_s[i] = idle ? seconds_since(due) : 0.0;
          Sample& sample = result.samples[i];
          sample.request = arrival.request;
          try {
            const svc::SolveReply reply =
                clients[c]->solve(kSolver, stream_.requests[arrival.request]);
            sample.latency_s = seconds_since(due);
            sample.ok = reply.kind == svc::SolveReply::Kind::Result &&
                        reply.record.solved;
            if (arrival.request < kHotSet) {
              sample.ok = sample.ok &&
                          reply.raw_body == hot_bodies_[arrival.request];
            }
            sample.throughput = reply.record.throughput;
          } catch (const std::exception&) {
            sample.latency_s = seconds_since(due);
            sample.ok = false;
          }
          ++completed;
        }
      });
    }
    ready.wait();
    start = Clock::now() + std::chrono::milliseconds(1);
    go.count_down();
    std::this_thread::sleep_until(at(to));
    result.backlogs.push_back(
        static_cast<double>(end - begin - completed.load()));
    for (std::thread& worker : workers) worker.join();
  }

  std::string socket_;
  const Stream& stream_;
  const std::vector<std::string>& hot_bodies_;
};

/// Checks every answer against a direct solve of its request: hot answers
/// through their (byte-compared) first body, fresh answers by throughput.
std::size_t check_answers(const std::vector<std::string>& hot_bodies,
                          const std::vector<const StepResult*>& steps,
                          const std::vector<double>& direct) {
  std::size_t bad = 0;
  for (std::size_t i = 0; i < kHotSet; ++i) {
    try {
      if (!same_bits(svc::decode_result_body(hot_bodies[i]).throughput,
                     direct[i])) {
        ++bad;
      }
    } catch (const std::exception&) {
      ++bad;
    }
  }
  for (const StepResult* step : steps) {
    for (const Sample& sample : step->samples) {
      if (!sample.ok) {
        ++bad;
      } else if (sample.request >= kHotSet &&
                 !same_bits(sample.throughput, direct[sample.request])) {
        ++bad;
      }
    }
  }
  return bad;
}

std::vector<double> direct_throughputs(const Stream& stream) {
  std::vector<double> direct(stream.requests.size(), -1.0);
  parallel_for(stream.requests.size(), kConnections, [&](std::size_t i) {
    try {
      direct[i] = dlsched::SolverRegistry::instance()
                      .create(kSolver)
                      ->solve(stream.requests[i])
                      .throughput();
    } catch (const std::exception&) {
    }
  });
  return direct;
}

void print_step(std::size_t index, const StepResult& step,
                double latency_limit_ms) {
  const std::vector<double> ms = step.latencies_ms();
  std::cout << "step " << index << ": rate " << step.rate << "/s, "
            << step.samples.size() << " requests, p50 "
            << quantile(ms, 0.5) << " ms, p99 " << quantile(ms, 0.99)
            << " ms (windowed p50 " << step.windowed_ms(0.5) << ", p99 "
            << step.windowed_ms(0.99) << "), lag p99 " << quantile(step.lag_s, 0.99) * 1e3
            << " ms, backlog at segment ends: median " << median(step.backlogs)
            << ", max " << quantile(step.backlogs, 1.0) << ", "
            << (step.cpu_s > 0.0 ? "cpu " + std::to_string(step.cpu_s) + " s, "
                                 : std::string())
            << step.failures() << " failed"
            << (step.valid(latency_limit_ms)
                    ? ""
                    : " [INVALID: generator fell behind]")
            << (step.saturated() ? " [backlog growing]" : "") << "\n";
}

// ------------------------------------------------------- end-to-end pass --

RunResult run_end_to_end(const Options& options) {
  const double latency_limit_ms = options.latency_limit_ms;
  std::vector<double> setup_s;
  Stream stream;
  Served served;
  for (std::size_t i = 0; i < kSetups; ++i) {
    const auto start = Clock::now();
    served = Served{};  // stops the previous set-up's daemon
    stream = make_stream(options);
    served = start_and_fill(options, stream);
    setup_s.push_back(seconds_since(start));
  }
  const pid_t daemon = served.daemon->pid();

  LoadGenerator load(served.daemon->socket(), stream, served.hot_bodies);
  const StepResult warmup = load.run(stream.warmup);
  std::vector<StepResult> steps;
  const double cpu_before = self_cpu_s() + pid_cpu_s(daemon);
  const auto start = Clock::now();
  for (const Schedule& schedule : stream.steps) {
    const double step_cpu = self_cpu_s() + pid_cpu_s(daemon);
    steps.push_back(load.run(schedule));
    steps.back().cpu_s = self_cpu_s() + pid_cpu_s(daemon) - step_cpu;
  }
  const double timed_s = seconds_since(start);
  const double cpu = self_cpu_s() + pid_cpu_s(daemon) - cpu_before;
  const double peak_mb = self_peak_rss_mb() + pid_peak_rss_mb(daemon);
  const bool clean_stop = served.daemon->stop();

  RunResult result;
  std::vector<const StepResult*> checked{&warmup};
  result.attempted += warmup.samples.size();
  std::size_t answered = 0;
  double max_rps = 0.0;
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const StepResult& step = steps[i];
    print_step(i, step, latency_limit_ms);
    checked.push_back(&step);
    answered += step.samples.size() - step.failures();
    result.attempted += step.samples.size();
    const bool meets = step.valid(latency_limit_ms) && !step.saturated() &&
                       step.failures() == 0 &&
                       step.windowed_ms(0.99) <= latency_limit_ms;
    if (meets) max_rps = std::max(max_rps, step.rate);
  }
  const StepResult& reference = steps[kReferenceStep];
  if (!reference.valid(latency_limit_ms)) {
    DLSCHED_FAIL("the reference step is invalid: the load generator fell "
                 "behind its schedule");
  }
  result.attempted += kHotSet;
  result.failed = served.failed + (clean_stop ? 0 : 1) +
                  check_answers(served.hot_bodies, checked,
                                direct_throughputs(stream));
  std::cout << "samples: reference step " << reference.samples.size()
            << " latencies in windows of " << kWindow << ", " << kSetups
            << " set-ups; latency limit p99 <= " << latency_limit_ms
            << " ms\n"
            << "reference latency (printed, not a gated metric): p50 "
            << reference.windowed_ms(0.50) << " ms, p99 "
            << reference.windowed_ms(0.99) << " ms\n";

  result.add("setup_s", median(setup_s), "s");
  result.add("jobs_per_s", static_cast<double>(answered) / timed_s, "1/s");
  result.add("cpu_s", cpu, "s");
  result.add("peak_rss_mb", peak_mb, "MB");
  result.add("max_rps", max_rps, "1/s");
  return result;
}

// -------------------------------------------------------- per-layer pass --

/// The daemon's admission-to-response median over the requests between two
/// stats reports, interpolated inside its log2 microsecond bucket.
double histogram_delta_p50_ms(const std::string& before,
                              const std::string& after) {
  const auto buckets = [](const std::string& json) {
    std::vector<double> counts;
    const auto key = json.find("\"latency_us_log2_buckets\"");
    const auto open = json.find('[', key);
    const auto close = json.find(']', open);
    if (key == std::string::npos || close == std::string::npos) return counts;
    std::istringstream list(json.substr(open + 1, close - open - 1));
    std::string count;
    while (std::getline(list, count, ',')) counts.push_back(std::stod(count));
    return counts;
  };
  const std::vector<double> a = buckets(before);
  const std::vector<double> b = buckets(after);
  if (a.size() != b.size() || a.empty()) return 0.0;
  double total = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) total += b[i] - a[i];
  const double rank = 0.5 * total;
  double seen = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double count = b[i] - a[i];
    if (count > 0.0 && seen + count >= rank) {
      const double lo = i == 0 ? 0.0 : static_cast<double>(1ULL << i);
      const double hi = static_cast<double>(1ULL << (i + 1));
      return (lo + (hi - lo) * (rank - seen) / count) * 1e-3;
    }
    seen += count;
  }
  return 0.0;
}

RunResult run_layers(const Options& options) {
  Stream stream = make_stream(options);
  Served served = start_and_fill(options, stream);
  LoadGenerator load(served.daemon->socket(), stream, served.hot_bodies);
  const StepResult warmup = load.run(stream.warmup);
  const StepResult untraced = load.run(stream.traced[0]);

  // The traced run: the same rate with the daemon's stats mailbox polled
  // from a fifth connection.
  svc::ServeClient observer(served.daemon->socket());
  const std::string stats_before = observer.stats_json();
  std::atomic<bool> done{false};
  double queue_max = 0.0;
  std::size_t polls = 0;
  std::thread poller([&] {
    svc::ServeClient client(served.daemon->socket());
    while (!done.load()) {
      try {
        const std::string json = client.stats_json();
        queue_max =
            std::max(queue_max, svc::json_number_field(json, "queued"));
        ++polls;
      } catch (const std::exception&) {
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
  const StepResult traced = load.run(stream.traced[1]);
  done = true;
  poller.join();
  const std::string stats_after = observer.stats_json();
  const bool clean_stop = served.daemon->stop();

  SolveLedger ledger;
  std::vector<double> direct;
  std::vector<svc::SolveRecord> records;
  for (const dlsched::SolveRequest& request : stream.requests) {
    const dlsched::SolveResult solved = ledger.solve(kSolver, request);
    direct.push_back(solved.throughput());
    records.push_back(record_of(kSolver, solved));
  }
  std::vector<KeyedRecord> keyed;
  std::vector<WireSample> wire_samples;
  for (std::size_t i = 0; i < stream.requests.size(); ++i) {
    std::string key = dlsched::job_canonical_key(kSolver, stream.requests[i]);
    std::string hash = dlsched::job_hash_from_key(key);
    keyed.push_back({std::move(hash), std::move(key), records[i]});
    wire_samples.push_back({kSolver, &stream.requests[i], &records[i]});
  }
  const CacheTiming cache =
      time_cache(unique_dir(options.scratch, "cache_timing"), keyed);
  const WireTiming wire = time_wire(wire_samples);

  // Every request regenerated from its seed: the generator's time, and a
  // check that the stream is a pure function of the seed.
  double generate_s = 0.0;
  std::size_t regenerated_differently = 0;
  for (std::size_t i = 0; i < stream.requests.size(); ++i) {
    const auto t = Clock::now();
    const dlsched::SolveRequest request =
        make_request(derive_seed(stream_seed(options), i));
    generate_s += seconds_since(t);
    if (dlsched::request_canonical_key(request) !=
        dlsched::request_canonical_key(stream.requests[i])) {
      ++regenerated_differently;
    }
  }

  RunResult result;
  result.attempted = kHotSet + warmup.samples.size() +
                     untraced.samples.size() + traced.samples.size();
  result.failed = served.failed + (clean_stop ? 0 : 1) + ledger.invalid +
                  regenerated_differently +
                  cache.mismatches + wire.mismatches +
                  check_answers(served.hot_bodies,
                                {&warmup, &untraced, &traced}, direct);
  print_step(0, untraced, options.latency_limit_ms);
  print_step(1, traced, options.latency_limit_ms);

  const auto delta = [&](const char* key) {
    return svc::json_number_field(stats_after, key) -
           svc::json_number_field(stats_before, key);
  };
  const double client_p50 = quantile(traced.latencies_ms(), 0.5);
  const double untraced_p50 = quantile(untraced.latencies_ms(), 0.5);
  const double server_p50 = histogram_delta_p50_ms(stats_before, stats_after);
  const double codec_ms =
      2.0 * (wire.encode_us + wire.decode_us) * 1e-3;  // request + result
  std::cout << "serve: " << polls << " stats polls; client p50 " << client_p50
            << " ms (untraced " << untraced_p50 << " ms), daemon p50 "
            << server_p50 << " ms\n";

  LayerValues layers;
  layers["numeric.arena_acquires"] = static_cast<double>(ledger.arena_acquires);
  layers["numeric.arena_pool_hit_ratio"] =
      ratio(static_cast<double>(ledger.arena_pool_hits),
            static_cast<double>(ledger.arena_acquires));
  layers["lp.pivots"] = static_cast<double>(ledger.pivots);
  layers["lp.fallbacks"] = static_cast<double>(ledger.fallbacks);
  layers["core.solve_s.closed_form"] = ledger.solve_s[0];
  layers["core.solve_s.search"] = ledger.solve_s[1];
  layers["core.solve_s.affine"] = ledger.solve_s[2];
  layers["schedule.validate_s"] = ledger.validate_s;
  layers["platform.generate_s"] = generate_s;
  layers["experiments.cache_store_us"] = cache.store_us;
  layers["experiments.cache_lookup_us"] = cache.lookup_us;
  layers["experiments.cache_hit_ratio"] =
      ratio(delta("cache_hits"), delta("completed"));
  layers["wire.encode_us"] = wire.encode_us;
  layers["wire.decode_us"] = wire.decode_us;
  layers["wire.request_bytes"] = wire.request_bytes;
  layers["server.latency_p50_ms"] = server_p50;
  layers["server.transport_p50_ms"] = client_p50 - server_p50;
  layers["server.miss_p50_ms"] = quantile(traced.latencies_ms(true), 0.5);
  layers["server.queue_max"] = queue_max;
  layers["server.rejects"] = delta("rejected");
  layers["loadgen.lag_p99_ms"] = quantile(untraced.lag_s, 0.99) * 1e3;
  layers["unattributed_s"] = (client_p50 - server_p50 - codec_ms) * 1e-3;
  layers["trace_overhead_ratio"] = ratio(client_p50, untraced_p50);
  add_layer_metrics(result, layers);
  return result;
}

}  // namespace

RunResult run_serve(const Options& options) {
  return options.trace ? run_layers(options) : run_end_to_end(options);
}

int serve_daemon(int argc, char** argv) {
  svc::ServerConfig config;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag == "--socket") config.socket_path = argv[i + 1];
    if (flag == "--cache-dir") config.cache_dir = argv[i + 1];
  }
  if (config.socket_path.empty()) {
    std::cerr << "daemon: --socket PATH is required\n";
    return 2;
  }
  config.solve_threads = kConnections;
  // Never outlive the harness, even when it is killed.
  ::prctl(PR_SET_PDEATHSIG, SIGTERM);
  // Block the stop signals before any server thread exists, so only the
  // sigwait below receives them.
  sigset_t stop_signals;
  sigemptyset(&stop_signals);
  sigaddset(&stop_signals, SIGTERM);
  sigaddset(&stop_signals, SIGINT);
  pthread_sigmask(SIG_BLOCK, &stop_signals, nullptr);
  try {
    svc::Server server(config);
    int signal = 0;
    sigwait(&stop_signals, &signal);
    server.stop();
  } catch (const std::exception& error) {
    std::cerr << "daemon: " << error.what() << "\n";
    return 1;
  }
  return 0;
}

}  // namespace perfbench
