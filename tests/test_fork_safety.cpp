// Fork-without-exec safety of the process-wide registries.
//
// `--workers N` forks its local TCP workers from a process whose
// coordinator threads are already serving connections.  A child that
// inherits a mutex some other thread held at the fork never gets it
// back.  Each test forks many children while a second thread takes one
// registry's mutex in a tight loop; every child then takes the same
// mutex under alarm(2), so an inherited held lock ends in SIGALRM
// instead of a hang.  Every child must exit 0.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <functional>
#include <thread>
#include <vector>

#include "numeric/limb_arena.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace dlsched {
namespace {

constexpr int kForks = 200;

/// Forks `kForks` children while `spin` runs in a loop on another
/// thread; each child runs `child` under a 2 s alarm.  Returns how many
/// children did not exit 0.
int failed_children(const std::function<void()>& spin,
                    const std::function<void()>& child) {
  std::atomic<bool> stop{false};
  std::thread spinner([&] {
    while (!stop.load(std::memory_order_relaxed)) spin();
  });
  std::vector<pid_t> children;
  for (int i = 0; i < kForks; ++i) {
    const pid_t pid = ::fork();
    if (pid == 0) {
      ::alarm(2);
      child();
      ::_exit(0);
    }
    if (pid > 0) children.push_back(pid);
  }
  stop.store(true);
  spinner.join();
  int failed = kForks - static_cast<int>(children.size());
  for (const pid_t pid : children) {
    int status = 0;
    if (::waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0) {
      ++failed;
    }
  }
  return failed;
}

TEST(ForkSafety, MetricsRegistryMutexIsNeverInheritedHeld) {
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::process();
  EXPECT_EQ(failed_children([&] { metrics.add("fork_safety.spin"); },
                            [&] { metrics.add("fork_safety.child"); }),
            0);
}

TEST(ForkSafety, TracerMutexesAreNeverInheritedHeld) {
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.enable("fork_safety");
  // The spinner alternates a buffer-mutex path (record) with the
  // registry-then-buffers path (drain); the child relabels, which takes
  // the registry and every buffer mutex.
  EXPECT_EQ(failed_children(
                [&] {
                  tracer.record("test", "spin", 0, 1);
                  (void)tracer.drain();
                },
                [&] { tracer.relabel_after_fork("child"); }),
            0);
  tracer.disable();
}

TEST(ForkSafety, LimbArenaRegistryMutexIsNeverInheritedHeld) {
  const auto aggregate = [] {
    (void)numeric::limb_arena_aggregate_stats();
  };
  EXPECT_EQ(failed_children(aggregate, aggregate), 0);
}

}  // namespace
}  // namespace dlsched
