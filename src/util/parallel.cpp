#include "util/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace dlsched {

void parallel_for(std::size_t count, std::size_t threads,
                  const std::function<void(std::size_t)>& body) {
  std::size_t thread_count =
      threads != 0 ? threads : std::thread::hardware_concurrency();
  thread_count = std::max<std::size_t>(1, std::min(thread_count, count));
  if (thread_count == 1) {
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::exception_ptr error;  // the first one thrown; guarded by error_mutex
  std::vector<std::thread> pool;
  pool.reserve(thread_count);
  for (std::size_t t = 0; t < thread_count; ++t) {
    pool.emplace_back([&] {
      for (std::size_t i = next.fetch_add(1); i < count;
           i = next.fetch_add(1)) {
        try {
          body(i);
        } catch (...) {
          const std::lock_guard<std::mutex> lock(error_mutex);
          if (!error) error = std::current_exception();
          next.store(count);  // no thread claims another index
          return;
        }
      }
    });
  }
  for (std::thread& t : pool) t.join();
  if (error) std::rethrow_exception(error);
}

}  // namespace dlsched
