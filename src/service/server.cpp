#include "service/server.hpp"

#include <unistd.h>

#include <algorithm>
#include <utility>

#include "obs/trace.hpp"
#include "util/error.hpp"

namespace dlsched::service {

Server::Server(ServerConfig config) : config_(std::move(config)) {
  DLSCHED_EXPECT(!config_.socket_path.empty(), "serve: empty socket path");
  DLSCHED_EXPECT(config_.queue_capacity > 0, "serve: zero queue capacity");
  if (!config_.cache_dir.empty()) {
    cache_ = experiments::ResultCache(config_.cache_dir);
  }
  const int listen_fd = net::listen_unix(config_.socket_path);
  const std::size_t threads =
      config_.solve_threads != 0
          ? config_.solve_threads
          : std::max(1u, std::thread::hardware_concurrency());
  try {
    for (std::size_t t = 0; t < threads; ++t) {
      solver_threads_.emplace_back([this] { solver_loop(); });
    }
    frames_.emplace(listen_fd, stats_,
                    std::vector<net::FrameServer::Route>{
                        {FrameType::SolveRequest,
                         [this](const std::string& payload) {
                           return handle_solve_payload(payload);
                         }}},
                    "client");
  } catch (...) {
    // A constructor that throws runs no destructor: join the solver
    // threads already started and release the socket here.
    begin_drain();
    for (std::thread& thread : solver_threads_) thread.join();
    ::close(listen_fd);
    ::unlink(config_.socket_path.c_str());
    throw;
  }
}

Server::~Server() { stop(); }

void Server::begin_drain() {
  {
    const std::lock_guard<std::mutex> lock(queue_mutex_);
    draining_ = true;
  }
  stats_.set_draining(true);
  queue_cv_.notify_all();
}

void Server::stop() {
  if (stopped_) return;
  stopped_ = true;

  begin_drain();
  // A solver thread exits once draining and the queue is empty; the last
  // one out has answered every queued request and every follower, and a
  // draining daemon admits no new work.
  for (std::thread& thread : solver_threads_) thread.join();
  if (frames_) frames_->stop();
  ::unlink(config_.socket_path.c_str());
}

// ------------------------------------------------------------ request side --

std::string Server::handle_solve_payload(const std::string& payload) {
  obs::ObsSpan admit_span("daemon", "admit");
  const auto admitted_at = std::chrono::steady_clock::now();
  auto pending = std::make_unique<Pending>();
  try {
    pending->wire = decode_request_body(payload);
  } catch (const std::exception& e) {
    stats_.on_protocol_error();
    return encode_frame(FrameType::ProtocolError, e.what());
  }
  pending->key = job_canonical_key(pending->wire.solver,
                                   pending->wire.request);
  pending->hash = job_hash_from_key(pending->key);
  pending->admitted_at = admitted_at;

  // A draining daemon refuses every solve request -- even would-be cache
  // hits -- so clients migrate away instead of trickling in forever; the
  // stats mailbox stays queryable.
  {
    const std::lock_guard<std::mutex> lock(queue_mutex_);
    if (draining_) {
      stats_.on_rejected();
      return encode_frame(
          FrameType::Reject,
          encode_reject_body({-1.0, "daemon is draining"}));
    }
  }

  // Cache short-circuit: repeat queries never touch the queue.  The
  // stored body is the bytes the original solve was answered with.
  {
    const std::lock_guard<std::mutex> lock(cache_mutex_);
    if (std::optional<SolveRecord> hit =
            cache_.lookup(pending->hash, pending->key)) {
      stats_.on_admitted();
      stats_.on_request_started();  // bookkeeping: leaves `queued` at once
      const double latency =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        admitted_at)
              .count();
      stats_.on_completed(ServiceStats::Completion::CacheHit, latency);
      stats_.on_request_finished();
      return encode_frame(FrameType::SolveResult,
                          encode_result_body(*hit));
    }
  }

  std::future<std::string> response = pending->response.get_future();
  {
    std::unique_lock<std::mutex> lock(queue_mutex_);
    if (draining_) {
      lock.unlock();
      stats_.on_rejected();
      return encode_frame(
          FrameType::Reject,
          encode_reject_body({-1.0, "daemon is draining"}));
    }
    if (queue_.size() >= config_.queue_capacity) {
      lock.unlock();
      stats_.on_rejected();
      return encode_frame(
          FrameType::Reject,
          encode_reject_body(
              {config_.retry_after_ms, "admission queue full"}));
    }
    // Counted under the queue lock, so no solver thread can take the
    // request out of `queued` before it was counted in.
    stats_.on_admitted();
    queue_.push_back(std::move(pending));
  }
  queue_cv_.notify_one();
  // Close the admission span before blocking on the solver threads: the
  // wait is the solve/settle spans' time, not admission's.
  admit_span.finish();
  return response.get();
}

// ------------------------------------------------------------ solver side --

void Server::solver_loop() {
  for (;;) {
    std::unique_ptr<Pending> pending;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock, [this] { return !queue_.empty() || draining_; });
      if (queue_.empty()) return;  // draining and drained
      pending = std::move(queue_.front());
      queue_.pop_front();
      stats_.on_request_started();
      // An identical request is being solved: follow it, its primary
      // answers this one too.
      auto [entry, fresh] = in_flight_.try_emplace(pending->hash);
      if (!fresh) {
        entry->second.push_back(std::move(pending));
        continue;
      }
    }
    solve(std::move(pending));
  }
}

void Server::solve(std::unique_ptr<Pending> primary) {
  obs::ObsSpan job_span("daemon", "job");
  // Solve-time cache re-check.  The admission-time lookup runs before an
  // identical request finishes, so a duplicate can be queued after its
  // twin left the in-flight map; the twin stored its record before
  // leaving, so this lookup answers the duplicate with the twin's exact
  // bytes instead of solving it again.  Identical requests are thus
  // byte-identical answers in every interleaving: follower of the same
  // solve, this lookup, or the admission-time lookup.
  std::optional<SolveRecord> record;
  {
    const std::lock_guard<std::mutex> lock(cache_mutex_);
    record = cache_.lookup(primary->hash, primary->key);
  }
  ServiceStats::Completion kind = ServiceStats::Completion::CacheHit;
  if (!record) {
    kind = ServiceStats::Completion::Solved;
    record = record_from_outcome(
        run_batch_job({primary->wire.solver, &primary->wire.request}));
    // The record round-trips bit-exactly, so a later cache hit re-encodes
    // to these same bytes: cold and warm answers are byte-identical.
    try {
      const std::lock_guard<std::mutex> lock(cache_mutex_);
      cache_.store(primary->hash, primary->key, *record);
    } catch (const std::exception&) {
      // The cache is an accelerator; a full disk must not fail the solve.
    }
  }
  const std::string frame =
      encode_frame(FrameType::SolveResult, encode_result_body(*record));
  job_span.finish();

  std::vector<std::unique_ptr<Pending>> followers;
  {
    const std::lock_guard<std::mutex> lock(queue_mutex_);
    auto entry = in_flight_.find(primary->hash);
    followers = std::move(entry->second);
    in_flight_.erase(entry);
  }
  settle(*primary, frame, kind);
  for (const std::unique_ptr<Pending>& follower : followers) {
    settle(*follower, frame, ServiceStats::Completion::Deduped);
  }
}

void Server::settle(Pending& pending, const std::string& frame,
                    ServiceStats::Completion kind) {
  const obs::ObsSpan settle_span("daemon", "settle");
  const double latency =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    pending.admitted_at)
          .count();
  stats_.on_completed(kind, latency);
  stats_.on_request_finished();
  pending.response.set_value(frame);
}

}  // namespace dlsched::service
