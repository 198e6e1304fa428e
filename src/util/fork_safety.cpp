#include "util/fork_safety.hpp"

#include <pthread.h>

#include <vector>

namespace dlsched {

namespace {

/// The held set.  `list_mutex` is itself held across the fork, so the
/// set cannot change between prepare and the parent/child release.
struct HeldMutexes {
  std::mutex list_mutex;
  std::vector<std::mutex*> held;
};

HeldMutexes& held_mutexes() {
  static HeldMutexes* instance = [] {
    auto* created = new HeldMutexes();
    const auto release = [] {
      HeldMutexes& self = held_mutexes();
      for (auto it = self.held.rbegin(); it != self.held.rend(); ++it) {
        (*it)->unlock();
      }
      self.list_mutex.unlock();
    };
    ::pthread_atfork(
        [] {
          HeldMutexes& self = held_mutexes();
          self.list_mutex.lock();
          for (std::mutex* mutex : self.held) mutex->lock();
        },
        release, release);
    return created;
  }();
  return *instance;
}

}  // namespace

void hold_across_fork(std::mutex& mutex) {
  HeldMutexes& self = held_mutexes();
  const std::lock_guard<std::mutex> lock(self.list_mutex);
  self.held.push_back(&mutex);
}

}  // namespace dlsched
