#pragma once

/// \file error.hpp
/// Error handling for GraphCT: a library exception type plus check macros.
///
/// GraphCT reports recoverable errors (bad input files, malformed scripts,
/// out-of-range arguments) via graphct::Error, whose message is all the
/// caller sees: the server sends it to the client as is, so GCT_CHECK adds
/// no source location. Internal invariant violations use GCT_ASSERT, which
/// names its file and line (it is a bug report) and is compiled in all
/// build types: graph kernels are memory-bound, so the predictable branch
/// is effectively free and the failure messages are worth far more than
/// the cycle.

#include <stdexcept>
#include <string>

namespace graphct {

/// Exception thrown for all recoverable GraphCT errors (I/O, parse, usage).
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

namespace detail {
[[noreturn]] inline void throw_error(const std::string& msg) {
  throw Error(msg);
}
[[noreturn]] inline void throw_error(const char* file, int line,
                                     const std::string& msg) {
  throw Error(std::string(file) + ":" + std::to_string(line) + ": " + msg);
}
}  // namespace detail

/// Throw graphct::Error carrying `msg` alone when `cond` is false.
#define GCT_CHECK(cond, msg)                       \
  do {                                             \
    if (!(cond)) {                                 \
      ::graphct::detail::throw_error((msg));       \
    }                                              \
  } while (0)

/// Internal invariant check; active in release builds as well.
#define GCT_ASSERT(cond)                                                      \
  do {                                                                        \
    if (!(cond)) {                                                            \
      ::graphct::detail::throw_error(__FILE__, __LINE__,                      \
                                     "internal invariant violated: " #cond);  \
    }                                                                         \
  } while (0)

}  // namespace graphct
