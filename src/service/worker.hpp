// The TCP shard worker: the remote end of the cluster coordinator's
// lease board (service/coordinator.hpp).
//
// `run_tcp_worker` connects to a coordinator, then loops: acquire a
// lease, re-plan the shipped spec locally (the plan fingerprints must
// agree -- a mismatch is a loud error, never silent wrong work), seed a
// private scratch cache with the grant's records, execute the shard
// through the ordinary per-shard executor, and stream the serialized
// result back as a FragmentPush together with every cache entry the
// shard produced.  A renewal thread heartbeats the lease on a second
// connection while the shard runs.
//
// The worker is expendable by design: losing a renewal race does not
// abort execution (the coordinator's first-accepted-push-wins commit
// resolves it), and a closed coordinator connection is a clean drained
// exit, not a crash.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>

namespace dlsched::service {

struct TcpWorkerOptions {
  std::string endpoint;      ///< "tcp://host:port" (or "host:port")
  std::string worker_id;     ///< unique per worker; names leases
  std::size_t threads = 1;   ///< per-shard pool thread count
  /// The coordinator's `CoordinatorConfig::fleet_token`, sent with every
  /// lease request and push (empty for an open coordinator).
  std::string fleet_token;
  /// Scratch cache directory.  Empty (the default): a fresh private
  /// temp directory, removed when the worker exits.
  std::string scratch_dir;
  /// Chaos hook (0 = off): after this many accepted shards, acquire one
  /// more lease and exit abruptly while holding it -- a deterministic
  /// stand-in for a worker kill -9'd mid-shard, used by the CI
  /// crash-reassignment leg and recovery drills.
  std::size_t abandon_after = 0;
};

/// What one worker did, for the exit log line and the tests.
struct TcpWorkerSummary {
  std::size_t executed = 0;   ///< fragments the coordinator accepted
  std::size_t discarded = 0;  ///< fragments refused (duplicate / stale)
  std::size_t jobs = 0;       ///< jobs across executed shards
  std::size_t solved = 0;
  std::size_t cache_hits = 0;
  bool drained = false;       ///< exited on Drain or coordinator close
  bool abandoned = false;     ///< chaos hook fired: died holding a lease
};

/// Runs the lease loop until the coordinator answers Done or Drain (or closes the connection).  Progress lines go to `log`.
/// Throws `dlsched::Error` for setup failures (bad endpoint, unreachable
/// coordinator, plan-fingerprint mismatch).
TcpWorkerSummary run_tcp_worker(const TcpWorkerOptions& options,
                                std::ostream& log);

}  // namespace dlsched::service
