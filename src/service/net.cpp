#include "service/net.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <iterator>
#include <utility>

#include "util/error.hpp"

namespace dlsched::service::net {

std::string Endpoint::describe() const {
  if (tcp) return "tcp://" + host + ":" + std::to_string(port);
  return path;
}

Endpoint parse_endpoint(const std::string& text) {
  DLSCHED_EXPECT(!text.empty(), "endpoint: empty");
  Endpoint endpoint;
  std::string rest = text;
  bool forced_tcp = false;
  if (rest.rfind("tcp://", 0) == 0) {
    forced_tcp = true;
    rest = rest.substr(6);
  }
  const std::size_t colon = rest.rfind(':');
  const bool looks_tcp = forced_tcp || (colon != std::string::npos &&
                                        rest.find('/') == std::string::npos);
  if (!looks_tcp) {
    endpoint.path = text;
    return endpoint;
  }
  DLSCHED_EXPECT(colon != std::string::npos && colon > 0 &&
                     colon + 1 < rest.size(),
                 "endpoint '" + text + "': expected host:port");
  endpoint.tcp = true;
  endpoint.host = rest.substr(0, colon);
  const std::string port_text = rest.substr(colon + 1);
  try {
    std::size_t used = 0;
    const unsigned long port = std::stoul(port_text, &used);
    DLSCHED_EXPECT(used == port_text.size() && port <= 65535, "range");
    endpoint.port = static_cast<std::uint16_t>(port);
  } catch (const std::exception&) {
    DLSCHED_FAIL("endpoint '" + text + "': port '" + port_text +
                 "' is not a number in [0, 65535]");
  }
  return endpoint;
}

namespace {

sockaddr_in tcp_addr(const std::string& host, std::uint16_t port,
                     const std::string& what) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  DLSCHED_EXPECT(::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) == 1,
                 what + ": '" + host +
                     "' is not an IPv4 address (use e.g. 127.0.0.1)");
  return addr;
}

}  // namespace

int connect_endpoint(const Endpoint& endpoint) {
  if (endpoint.tcp) {
    const sockaddr_in addr =
        tcp_addr(endpoint.host, endpoint.port, "connect");
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    DLSCHED_EXPECT(fd >= 0, "net: cannot create TCP socket");
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      const int err = errno;
      ::close(fd);
      DLSCHED_FAIL("net: cannot connect to " + endpoint.describe() + ": " +
                   std::strerror(err));
    }
    // Lease/ack frames are tiny and latency-sensitive; don't batch them.
    const int one = 1;
    (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return fd;
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  DLSCHED_EXPECT(!endpoint.path.empty() &&
                     endpoint.path.size() < sizeof(addr.sun_path),
                 "net: bad socket path '" + endpoint.path + "'");
  std::strncpy(addr.sun_path, endpoint.path.c_str(),
               sizeof(addr.sun_path) - 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  DLSCHED_EXPECT(fd >= 0, "net: cannot create socket");
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    const int err = errno;
    ::close(fd);
    DLSCHED_FAIL("net: cannot connect to '" + endpoint.path +
                 "': " + std::strerror(err));
  }
  return fd;
}

int listen_tcp(const std::string& host, std::uint16_t port,
               std::uint16_t& bound_port) {
  sockaddr_in addr = tcp_addr(host, port, "listen");
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  DLSCHED_EXPECT(fd >= 0, "net: cannot create TCP socket");
  const int one = 1;
  (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const int err = errno;
    ::close(fd);
    DLSCHED_FAIL("net: cannot bind " + host + ":" + std::to_string(port) +
                 ": " + std::strerror(err));
  }
  if (::listen(fd, 64) != 0) {
    const int err = errno;
    ::close(fd);
    DLSCHED_FAIL("net: cannot listen on " + host + ":" +
                 std::to_string(port) + ": " + std::strerror(err));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  DLSCHED_EXPECT(
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0,
      "net: getsockname failed");
  bound_port = ntohs(bound.sin_port);
  return fd;
}

int listen_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  DLSCHED_EXPECT(path.size() < sizeof(addr.sun_path),
                 "serve: socket path too long for AF_UNIX ('" + path + "')");
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  DLSCHED_EXPECT(fd >= 0, "serve: cannot create socket");
  ::unlink(path.c_str());
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(fd, 64) != 0) {
    const int err = errno;
    ::close(fd);
    DLSCHED_FAIL("serve: cannot listen on '" + path +
                 "': " + std::strerror(err));
  }
  return fd;
}

bool send_all(int fd, std::string_view bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

Frame read_frame(int fd, std::string& buffer, const char* who) {
  char chunk[4096];
  for (;;) {
    const FrameDecode decode = try_decode_frame(buffer);
    if (decode.status == DecodeStatus::Ok) {
      buffer.erase(0, decode.consumed);
      return decode.frame;
    }
    DLSCHED_EXPECT(decode.status == DecodeStatus::NeedMore,
                   std::string(who) + ": malformed frame from peer: " +
                       decode.error);
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    DLSCHED_EXPECT(n > 0, std::string(who) + ": peer closed the connection");
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
}

// ------------------------------------------------------------ FrameServer --

FrameServer::FrameServer(int listen_fd, ServiceStats& stats,
                         std::vector<Route> routes, std::string peer)
    : listen_fd_(listen_fd),
      stats_(stats),
      routes_(std::move(routes)),
      peer_(std::move(peer)) {
  accept_thread_ = std::thread([this] { accept_loop(); });
}

FrameServer::~FrameServer() { stop(); }

void FrameServer::stop() {
  if (stopped_) return;
  stopped_ = true;
  // Stop accepting first so no connection thread is born mid-teardown.
  stopping_.store(true, std::memory_order_relaxed);
  if (accept_thread_.joinable()) accept_thread_.join();

  // Unblock the readers of open connections and collect every thread.
  // A closed connection is out of the live set, so its (possibly
  // recycled) fd number is never touched here.
  std::list<Connection> connections;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const Connection& connection : connections_) {
      if (connection.open) ::shutdown(connection.fd, SHUT_RDWR);
    }
    connections.swap(connections_);
  }
  for (Connection& connection : connections) connection.thread.join();

  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void FrameServer::accept_loop() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    join_closed();
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/50);
    if (ready <= 0) continue;  // timeout or EINTR: re-check the stop flag
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    const std::lock_guard<std::mutex> lock(mutex_);
    Connection& connection = connections_.emplace_back();
    connection.fd = fd;
    connection.thread = std::thread([this, &connection] { serve(connection); });
  }
}

void FrameServer::join_closed() {
  std::list<Connection> closed;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (auto it = connections_.begin(); it != connections_.end();) {
      const auto next = std::next(it);
      if (!it->open) closed.splice(closed.end(), connections_, it);
      it = next;
    }
  }
  for (Connection& connection : closed) connection.thread.join();
}

void FrameServer::serve(Connection& connection) {
  const int fd = connection.fd;
  std::string buffer;
  char chunk[4096];
  bool open = true;
  while (open) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    // Peer closed, or shutdown() during stop.  A peer that dies mid-frame
    // leaves a partial frame in the buffer; its length prefix never
    // completes, so the bytes are simply dropped -- a torn FragmentPush
    // can never reach the coordinator's board.
    if (n <= 0) break;
    buffer.append(chunk, static_cast<std::size_t>(n));
    // Drain every complete frame in the buffer.
    for (;;) {
      const FrameDecode decode = try_decode_frame(buffer);
      if (decode.status == DecodeStatus::NeedMore) break;
      std::string reply;
      if (decode.status != DecodeStatus::Ok) {
        stats_.on_protocol_error();
        reply = encode_frame(FrameType::ProtocolError, decode.error);
        open = false;
      } else {
        buffer.erase(0, decode.consumed);
        reply = dispatch(decode.frame, open);
      }
      if (!send_all(fd, reply)) open = false;
      if (!open) break;
    }
  }
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    connection.open = false;
  }
  ::close(fd);
}

std::string FrameServer::dispatch(const Frame& frame, bool& keep_open) {
  if (frame.type == FrameType::StatsQuery) {
    return encode_frame(FrameType::StatsReport, stats_.render_json());
  }
  for (const Route& route : routes_) {
    if (route.type == frame.type) return route.handle(frame.payload);
  }
  stats_.on_protocol_error();
  keep_open = false;
  return encode_frame(FrameType::ProtocolError,
                      "unexpected " + peer_ + " frame type " +
                          std::to_string(static_cast<int>(frame.type)));
}

}  // namespace dlsched::service::net
