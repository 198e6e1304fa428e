// The cluster coordinator: the shard lease board, owned in memory and
// served over TCP behind the shared connection server (service/net.hpp
// `FrameServer`).  Every process fleet runs through it --
// `--workers N` forks N local TCP workers against a coordinator on an
// ephemeral loopback port, `--coordinator HOST:PORT` also admits external
// `--worker` processes -- so a grid sweep can span machines with nothing
// shared but the network:
//
//   * a shard lease with a deadline (LeaseGrant), one holder at a time,
//     granted for the first pending shard in planner order;
//   * lease renewal (LeaseRequest kind=Renew) while the holder computes;
//   * lease-expiry reassignment: the sweep in every Acquire re-pends
//     expired leases, so a crashed worker costs one TTL;
//   * FragmentPush: only from a worker the shard was granted to; the
//     first accepted push wins, duplicates from a renewal race are
//     discarded, and only records of the shard's own jobs are stored.
//
// Byte-identity is preserved by making the coordinator's `ResultCache`
// the one synchronization medium: a Work grant ships the shard's cached
// records (a warm worker replays them bit for bit), and an accepted
// fragment ships the worker's fresh records back before the shard is
// marked done.  After a cluster run, a single-process run over the
// coordinator's cache directory renders the identical artifact, with the
// cache dir private to the coordinator host.
//
// The stats mailbox answers StatsQuery on the same port, extended with
// the claim-board gauges (`CoordinatorGauges`).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "experiments/cache.hpp"
#include "experiments/shard.hpp"
#include "experiments/spec.hpp"
#include "obs/trace.hpp"
#include "service/net.hpp"
#include "service/stats.hpp"
#include "service/wire.hpp"

namespace dlsched::service {

struct CoordinatorConfig {
  std::string host = "127.0.0.1";  ///< IPv4 listen address
  std::uint16_t port = 0;          ///< 0 = ephemeral (see `port()`)
  double lease_ttl_seconds = 30.0; ///< unrenewed leases re-pend after this
  /// Non-empty: refuse every Acquire, Renew and FragmentPush that does
  /// not carry this secret (a forked local fleet's board).  Empty: any
  /// worker that reaches the port may join.
  std::string fleet_token;
};

class Coordinator {
 public:
  /// Binds, listens and starts serving.  `shards` is the full
  /// plan in planner order; `cache` is the run's result cache (guarded
  /// here, shared with nobody else while the coordinator lives).  Throws
  /// `dlsched::Error` when the socket cannot be set up.
  Coordinator(const experiments::ExperimentSpec& spec,
              std::vector<experiments::CompiledShard> shards,
              experiments::ResultCache& cache, CoordinatorConfig config);
  ~Coordinator();

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  /// `tcp://host:port` -- what workers pass to `--worker`.
  [[nodiscard]] std::string endpoint() const;

  /// Stops granting leases: every subsequent LeaseRequest (acquire or
  /// renew) is answered with a Drain frame, so workers exit.  In-flight
  /// FragmentPushes are still accepted -- leased work is not wasted.
  void begin_drain();

  /// Shutdown: drain, close every connection, join the threads.
  /// Idempotent; the destructor calls it.
  void stop();

  /// True once every shard has an accepted fragment (records stored).
  [[nodiscard]] bool finished() const;
  /// Blocks until `finished()` or the timeout elapses; returns
  /// `finished()`.
  bool wait_finished(double timeout_seconds);

  /// The accepted shard results in planner order; requires `finished()`.
  [[nodiscard]] std::vector<experiments::ShardResult> take_results();

  /// The trace sections workers shipped inside their FragmentPushes,
  /// merged per worker id (empty when tracing was off).  Moves them out.
  [[nodiscard]] std::vector<obs::ProcessTrace> take_worker_traces();

  /// Accounts a spawned local worker in the board gauges.
  void note_worker_spawned();

  [[nodiscard]] StatsSnapshot stats() const { return stats_.snapshot(); }
  [[nodiscard]] CoordinatorGauges gauges() const {
    return stats_.snapshot().board;
  }

 private:
  enum class SlotState : std::uint8_t {
    Pending,     ///< unleased (or lease expired)
    Leased,      ///< granted, deadline in the future
    Committing,  ///< a fragment is being accepted (records storing)
    Done,        ///< fragment accepted, records stored
  };
  struct Slot {
    SlotState state = SlotState::Pending;
    std::string holder;  ///< worker id of the live lease
    std::vector<std::string> grantees;  ///< every worker ever granted it
    std::chrono::steady_clock::time_point deadline{};
    std::size_t reassignments = 0;
  };

  [[nodiscard]] std::string handle_lease_payload(const std::string& payload);
  [[nodiscard]] std::string handle_fragment_payload(
      const std::string& payload);
  /// Re-pends every expired lease (board lock held).
  void sweep_expired_locked();
  /// Mirrors the board shape into the stats mailbox (board lock held).
  void publish_gauges_locked();
  [[nodiscard]] std::string drain_frame() const;
  [[nodiscard]] bool token_ok(const std::string& token) const;

  experiments::ExperimentSpec spec_;
  std::vector<experiments::CompiledShard> shards_;
  /// Per shard: the (hash, key) of every job, bodies empty.
  std::vector<std::vector<WireCacheEntry>> shard_jobs_;
  std::string spec_toml_;
  std::string fingerprint_;
  CoordinatorConfig config_;
  std::uint16_t port_ = 0;

  mutable std::mutex board_mutex_;
  std::vector<Slot> slots_;                                  // board lock
  std::vector<std::optional<experiments::ShardResult>> results_;  // board lock
  std::size_t done_count_ = 0;                               // board lock
  bool draining_ = false;                                    // board lock
  CoordinatorGauges gauges_;                                 // board lock
  std::condition_variable done_cv_;

  std::mutex cache_mutex_;
  experiments::ResultCache& cache_;  // guarded by cache_mutex_

  std::mutex trace_mutex_;
  std::vector<obs::ProcessTrace> worker_traces_;  // guarded by trace_mutex_

  ServiceStats stats_;

  std::optional<net::FrameServer> frames_;  // started last, stopped first
  bool stopped_ = false;  // stop() ran (main-thread use only)
};

}  // namespace dlsched::service
