// Tests of the shared connection server (service/net.hpp `FrameServer`),
// driven through the daemon: stop() must leave alone fd numbers that
// closed connections gave back, and finished connection threads must be
// joined while the server runs, so memory does not grow with the number
// of connections served.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "service/client.hpp"
#include "service/server.hpp"

namespace dlsched::service {
namespace {

namespace fs = std::filesystem;

std::string socket_path(const std::string& tag) {
  return fs::temp_directory_path().string() + "/dls_net_" +
         std::to_string(::getpid()) + "_" + tag + ".sock";
}

/// This process's virtual size in kB, from /proc/self/status.
std::int64_t vm_size_kb() {
  std::ifstream status("/proc/self/status");
  std::string label;
  while (status >> label) {
    if (label == "VmSize:") {
      std::int64_t kb = 0;
      status >> kb;
      return kb;
    }
    status.ignore(1 << 16, '\n');
  }
  return -1;
}

bool fd_is_open(int fd) { return ::fcntl(fd, F_GETFD) != -1; }

TEST(FrameServer, StopLeavesRecycledFdNumbersAlone) {
  ServerConfig config;
  config.socket_path = socket_path("stale");
  Server server(config);
  for (int i = 0; i < 4; ++i) {
    ServeClient client(config.socket_path);
    (void)client.stats_json();
  }
  // Give the connection threads time to see EOF and close their fds.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  // An unrelated socket pair now owns every free fd number the server
  // could have used -- including the numbers its closed connections had.
  int pair[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, pair), 0);
  std::vector<int> planted;
  for (int fd = 3; fd <= 64; ++fd) {
    if (fd_is_open(fd)) continue;
    ASSERT_EQ(::dup2(pair[0], fd), fd);
    planted.push_back(fd);
  }
  ASSERT_FALSE(planted.empty());

  server.stop();

  // The pair still carries a byte in both directions: stop() shut down
  // no fd it did not own.
  char byte = 'x';
  EXPECT_EQ(::send(pair[1], &byte, 1, MSG_NOSIGNAL), 1);
  byte = 0;
  EXPECT_EQ(::recv(pair[0], &byte, 1, MSG_DONTWAIT), 1);
  EXPECT_EQ(byte, 'x');
  byte = 'y';
  EXPECT_EQ(::send(pair[0], &byte, 1, MSG_NOSIGNAL), 1);
  EXPECT_EQ(::recv(pair[1], &byte, 1, MSG_DONTWAIT), 1);
  for (const int fd : planted) ::close(fd);
  ::close(pair[0]);
  ::close(pair[1]);
}

TEST(FrameServer, SequentialConnectionsDoNotGrowMemory) {
  ServerConfig config;
  config.socket_path = socket_path("mem");
  Server server(config);
  const auto round_trip = [&] {
    ServeClient client(config.socket_path);
    (void)client.stats_json();
  };
  // Warm up: the first connections create the allocator arenas and the
  // thread-stack cache every later connection reuses.
  for (int i = 0; i < 8; ++i) round_trip();
  const std::int64_t before = vm_size_kb();
  ASSERT_GT(before, 0);
  for (int i = 0; i < 256; ++i) round_trip();
  const std::int64_t grown_kb = vm_size_kb() - before;
  // An unjoined connection thread keeps its whole stack mapped (~8 MB):
  // 256 of them would grow VmSize by ~2 GB.
  EXPECT_LT(grown_kb, 512 * 1024) << "VmSize grew " << grown_kb << " kB";
  server.stop();
}

}  // namespace
}  // namespace dlsched::service
