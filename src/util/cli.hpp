#pragma once

/// \file cli.hpp
/// Minimal command-line flag parser for examples and bench binaries.
///
/// Supports `--key value`, `--key=value`, and boolean `--flag` forms.
/// Unknown flags raise graphct::Error so typos fail loudly.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace graphct {

/// Parse all of `text` as a base-10 integer in [lo, hi]. Throws
/// graphct::Error naming `what` ("flag --threads", "serve: port") when the
/// text is not an integer or lies outside the bounds, so callers may
/// narrow the result.
[[nodiscard]] std::int64_t parse_int_in_range(const std::string& what,
                                              const std::string& text,
                                              std::int64_t lo,
                                              std::int64_t hi);

/// Parsed command line. Declare the accepted flags up front, then query.
class Cli {
 public:
  /// `spec` maps flag name (without --) to a help string. A trailing '!'
  /// in the help string is stripped and marks the flag as boolean.
  Cli(int argc, const char* const* argv,
      std::map<std::string, std::string> spec);

  /// True when --name was given (boolean flags or valued flags alike).
  [[nodiscard]] bool has(const std::string& name) const;

  /// String value of --name, or `def` when absent.
  [[nodiscard]] std::string get(const std::string& name,
                                const std::string& def) const;
  [[nodiscard]] std::int64_t get(const std::string& name,
                                 std::int64_t def) const;
  [[nodiscard]] double get(const std::string& name, double def) const;

  /// Integer value of --name, or `def` when absent. Throws graphct::Error
  /// when the value lies outside [lo, hi], so callers may narrow it.
  [[nodiscard]] std::int64_t get_in_range(const std::string& name,
                                          std::int64_t def, std::int64_t lo,
                                          std::int64_t hi) const;

  /// Positional (non-flag) arguments in order.
  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

  /// Render a usage block listing all declared flags.
  [[nodiscard]] std::string help(const std::string& program) const;

 private:
  std::map<std::string, std::string> spec_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace graphct
