// Error handling primitives for dlsched.
//
// The library throws `dlsched::Error` (a std::runtime_error subclass that
// records the throwing location beside the message) for precondition
// violations and unexpected states.  `DLSCHED_EXPECT` guards public-API
// preconditions; it is always compiled in -- scheduling bugs that slip
// past preconditions produce wrong schedules silently, which is far worse
// than the cost of a branch.
#pragma once

#include <stdexcept>
#include <string>

namespace dlsched {

/// Library-wide exception type.  `what()` is the message alone, fit for a
/// user-facing `error:` line; `file()`/`line()` keep the source location of
/// the throw so failures inside deeply nested solver code remain
/// diagnosable.
class Error : public std::runtime_error {
 public:
  Error(std::string message, const char* file, int line);

  /// Source file that raised the error.
  [[nodiscard]] const char* file() const noexcept { return file_; }
  /// Source line that raised the error.
  [[nodiscard]] int line() const noexcept { return line_; }

 private:
  const char* file_;
  int line_;
};

namespace detail {
[[noreturn]] void throw_error(const std::string& message, const char* file,
                              int line);
}  // namespace detail

}  // namespace dlsched

/// Precondition / invariant guard.  Always active.  The message is all
/// `what()` says -- it reaches users as an `error:` line -- while
/// `file()`/`line()` locate the failed check.
#define DLSCHED_EXPECT(cond, message)                               \
  do {                                                              \
    if (!(cond)) {                                                  \
      ::dlsched::detail::throw_error((message), __FILE__, __LINE__); \
    }                                                               \
  } while (false)

/// Unconditional failure (unreachable code paths, exhausted cases).
#define DLSCHED_FAIL(message) \
  ::dlsched::detail::throw_error((message), __FILE__, __LINE__)
