// `dlsched_serve`: the scheduling daemon.
//
// A `Server` answers SolveRequest frames (service/wire.hpp) on one
// AF_UNIX socket, behind the shared connection server (service/net.hpp
// `FrameServer`, which also answers StatsQuery).  The request lifecycle:
//
//   accept -> decode frame -> admission -> solver thread -> respond
//
//   * admission: a `ResultCache` short-circuit answers repeat queries
//     without queueing; fresh work enters a *bounded* queue.  A full
//     queue (or a draining daemon) answers Reject-with-retry-after
//     immediately -- backpressure is explicit, clients never hang.
//   * solver threads: `solve_threads` long-lived threads each take one
//     queued request at a time and run it through `run_batch_job` (solve
//     + independent validation), so distinct misses solve concurrently.
//     An in-flight map keyed by job hash collapses concurrent identical
//     requests: a duplicate attaches to the running solve as a follower.
//   * responses are the encoded wire result body -- followers receive the
//     *same bytes* as their primary, and every solve is stored to the
//     cache before its hash leaves the in-flight map, so a later
//     duplicate finds one or the other and a daemon answer is
//     byte-identical to a direct `solve_batch` + cache round-trip of the
//     same request.
//
// A stats mailbox (service/stats.hpp) is queryable over the same socket.
// Shutdown is a graceful drain: finish queued and in-flight work, refuse
// new requests, then close.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "experiments/cache.hpp"
#include "service/net.hpp"
#include "service/stats.hpp"
#include "service/wire.hpp"

namespace dlsched::service {

struct ServerConfig {
  std::string socket_path;       ///< AF_UNIX path; replaced if stale
  std::size_t solve_threads = 0;    ///< solver threads (0 = hardware)
  std::size_t queue_capacity = 64;  ///< bounded admission queue
  std::string cache_dir;            ///< ResultCache dir; empty = disabled
  double retry_after_ms = 25.0;     ///< advertised backpressure delay
};

class Server {
 public:
  /// Binds, listens and spawns the accept + solver threads; throws
  /// `dlsched::Error` when the socket cannot be set up.
  explicit Server(ServerConfig config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Stops admitting: every subsequent solve request (cache hit or not)
  /// gets Reject with `retry_after_ms < 0`; queued and in-flight work
  /// still completes and the stats mailbox keeps answering.
  void begin_drain();

  /// Graceful shutdown: drain, finish everything, close every
  /// connection, unlink the socket.  Idempotent; the destructor calls it.
  void stop();

  [[nodiscard]] const ServerConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] StatsSnapshot stats() const { return stats_.snapshot(); }

 private:
  struct Pending {
    WireRequest wire;
    std::string hash;
    std::string key;
    std::chrono::steady_clock::time_point admitted_at;
    std::promise<std::string> response;  ///< an encoded frame
  };

  void solver_loop();
  /// Decodes and admits one SolveRequest payload; returns the encoded
  /// response frame to write back.
  [[nodiscard]] std::string handle_solve_payload(const std::string& payload);
  /// Answers `primary` (registered in `in_flight_`) and its followers.
  void solve(std::unique_ptr<Pending> primary);
  void settle(Pending& pending, const std::string& frame,
              ServiceStats::Completion kind);

  ServerConfig config_;
  ServiceStats stats_;

  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<std::unique_ptr<Pending>> queue_;  // guarded by queue_mutex_
  bool draining_ = false;                       // guarded by queue_mutex_
  /// Job hash -> followers of the request being solved under that hash.
  std::unordered_map<std::string, std::vector<std::unique_ptr<Pending>>>
      in_flight_;  // guarded by queue_mutex_

  std::mutex cache_mutex_;
  experiments::ResultCache cache_;  // guarded by cache_mutex_

  std::vector<std::thread> solver_threads_;  // use everything above

  std::optional<net::FrameServer> frames_;  // started last, stopped first
  bool stopped_ = false;  // stop() ran (main-thread use only)
};

}  // namespace dlsched::service
