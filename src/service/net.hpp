// Shared SOCK_STREAM plumbing for the service layer.
//
// The daemon (server.cpp), the cluster coordinator (coordinator.cpp), the
// TCP workers (worker.cpp) and the blocking client (client.cpp) all speak
// the same framed protocol over either an AF_UNIX socket or TCP; this
// header owns the endpoint grammar, the few syscall loops they share so
// the retry/EINTR/partial-write handling exists once, and the one
// connection server (`FrameServer`) the daemon and the coordinator both
// run behind.
//
// Endpoint grammar:
//   * `tcp://host:port` or bare `host:port` -- a TCP endpoint (the bare
//     form is what `--coordinator 127.0.0.1:7070` passes).
//   * anything else -- an AF_UNIX socket path.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "service/stats.hpp"
#include "service/wire.hpp"

namespace dlsched::service::net {

struct Endpoint {
  bool tcp = false;
  std::string host;        ///< TCP only
  std::uint16_t port = 0;  ///< TCP only
  std::string path;        ///< AF_UNIX only
  [[nodiscard]] std::string describe() const;
};

/// Parses the endpoint grammar above; throws `dlsched::Error` on a
/// malformed TCP form (missing or non-numeric port).
[[nodiscard]] Endpoint parse_endpoint(const std::string& text);

/// Connects a blocking stream socket to the endpoint; returns the fd.
/// Throws `dlsched::Error` (with errno text) when the peer is not there.
[[nodiscard]] int connect_endpoint(const Endpoint& endpoint);

/// Binds + listens a TCP socket on `host:port` (port 0 = ephemeral) and
/// returns the fd; `bound_port` receives the actual port.  Throws on
/// failure.
[[nodiscard]] int listen_tcp(const std::string& host, std::uint16_t port,
                             std::uint16_t& bound_port);

/// Binds + listens an AF_UNIX socket at `path` and returns the fd.  A
/// stale socket file is replaced (a *live* daemon on the same path is
/// beyond this process's knowledge, so last-one-wins).  Throws on failure.
[[nodiscard]] int listen_unix(const std::string& path);

/// Writes all of `bytes`, riding out EINTR and partial writes with
/// MSG_NOSIGNAL; returns false when the peer is gone.
[[nodiscard]] bool send_all(int fd, std::string_view bytes);

/// Reads one complete frame from `fd`, appending to `buffer` (which may
/// already hold a partial next frame).  Throws `dlsched::Error` on EOF or
/// a malformed frame, prefixed with `who`.
[[nodiscard]] Frame read_frame(int fd, std::string& buffer, const char* who);

/// The framed-socket server: one accept thread and one thread per
/// connection, each running recv -> `try_decode_frame` -> handler -> reply.
/// StatsQuery is answered here from the owner's `ServiceStats`; every
/// other frame type goes to the owner's route for it.  A malformed frame
/// or an unrouted type gets a ProtocolError reply and ends the
/// connection, because framing can no longer be trusted.  A handler's
/// own ProtocolError reply (a well-framed but bad body) keeps it open.
///
/// A connection leaves the live set before its fd is closed, so `stop()`
/// shuts down only open connections, never a recycled fd number; and the
/// accept thread joins finished connection threads as it goes, so a
/// long-lived server does not hold one thread per connection ever served.
class FrameServer {
 public:
  /// Answers one frame payload with one encoded reply frame.  Runs on the
  /// connection's thread and may block (the daemon waits for its solve).
  using Handler = std::function<std::string(const std::string& payload)>;
  struct Route {
    FrameType type;
    Handler handle;
  };

  /// Takes ownership of the listening `listen_fd` and starts accepting.
  /// `peer` names the other side in the unexpected-frame-type error
  /// ("unexpected <peer> frame type N").
  FrameServer(int listen_fd, ServiceStats& stats, std::vector<Route> routes,
              std::string peer);
  ~FrameServer();

  FrameServer(const FrameServer&) = delete;
  FrameServer& operator=(const FrameServer&) = delete;

  /// Stops accepting, shuts down every open connection (a peer may keep
  /// its socket open), joins every thread and closes the listening fd.
  /// Idempotent; the destructor calls it.
  void stop();

 private:
  struct Connection {
    int fd = -1;
    bool open = true;  ///< guarded by mutex_; false once the fd may close
    std::thread thread;
  };

  void accept_loop();
  void serve(Connection& connection);
  /// Joins (and forgets) every connection whose thread has finished.
  void join_closed();
  /// The reply to one decoded frame; clears `keep_open` when the
  /// connection must end after it.
  [[nodiscard]] std::string dispatch(const Frame& frame, bool& keep_open);

  int listen_fd_;
  ServiceStats& stats_;
  std::vector<Route> routes_;
  std::string peer_;
  std::atomic<bool> stopping_{false};
  std::mutex mutex_;
  std::list<Connection> connections_;  // guarded by mutex_
  std::thread accept_thread_;
  bool stopped_ = false;  // stop() ran (owner-thread use only)
};

}  // namespace dlsched::service::net
