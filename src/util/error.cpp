#include "util/error.hpp"

#include <utility>

namespace dlsched {

Error::Error(std::string message, const char* file, int line)
    : std::runtime_error(std::move(message)), file_(file), line_(line) {}

namespace detail {
void throw_error(const std::string& message, const char* file, int line) {
  throw Error(message, file, line);
}
}  // namespace detail

}  // namespace dlsched
