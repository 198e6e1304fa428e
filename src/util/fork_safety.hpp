// Fork-without-exec safety for process-wide mutexes.
//
// A child forked from a multi-threaded process gets a copy of every mutex
// in whatever state another thread left it, and a mutex copied held is
// never released in the child.  The engine forks its local worker fleet
// from a process whose coordinator threads are already serving
// connections, so every process-wide registry those workers use must be
// free at the fork: `hold_across_fork` takes the mutex in a pthread_atfork
// prepare handler and releases it in the parent and in the child.
//
// The same holds for a function-local static's initialization guard: a
// child forked while another thread constructs the singleton inherits the
// guard as "in progress" and blocks on first use.  So every registry that
// registers here is also constructed before main, through a namespace-
// scope reference to its accessor.
#pragma once

#include <mutex>

namespace dlsched {

/// Holds `mutex` across every later fork(): locked just before, unlocked
/// on both sides just after.  Mutexes are taken in registration order.
/// `mutex` must outlive the process (a leaked singleton's member).
void hold_across_fork(std::mutex& mutex);

}  // namespace dlsched
