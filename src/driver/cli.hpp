// Tiny argv helper shared by the lcc / lolrun / lolserve command-line
// tools.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace lol::driver {

/// Minimal flag parser: supports `--flag`, `--key value`, `-k value` and
/// positional arguments, in any order.
class Cli {
 public:
  Cli(int argc, char** argv);

  /// True when `--name` was present.
  bool has_flag(const std::string& name);

  /// Value of `--name <value>`; nullopt when absent.
  std::optional<std::string> option(const std::string& name,
                                    const std::string& alias = "");

  /// Value of the integer option `--name <N>`, parsed strictly (see
  /// parse_int) into [lo, hi]; nullopt when absent. A malformed or
  /// out-of-range value is a usage error: it prints why and exits with
  /// status 2.
  std::optional<std::int64_t> int_option(const std::string& name,
                                         std::int64_t lo, std::int64_t hi);

  /// int_option over the whole unsigned 64-bit range (seeds, budgets,
  /// byte counts, milliseconds).
  std::optional<std::uint64_t> uint_option(const std::string& name);

  /// Positional arguments remaining after flags/options are consumed.
  [[nodiscard]] const std::vector<std::string>& positional();

  /// Reports a usage error as "<prog>: <message>" and exits with status 2.
  [[noreturn]] void fail(const std::string& message) const;

 private:
  void consume(std::size_t i, std::size_t n);

  std::string prog_;
  std::vector<std::string> args_;
  std::vector<bool> used_;
  std::vector<std::string> positional_;
  bool positional_built_ = false;
};

/// Strict decimal parse: the whole of `s` must be an integer in [lo, hi]
/// — no whitespace, no '+', no trailing junk. nullopt otherwise.
std::optional<std::int64_t> parse_int(std::string_view s, std::int64_t lo,
                                      std::int64_t hi);

/// parse_int for the whole unsigned 64-bit range ('-' is rejected).
std::optional<std::uint64_t> parse_uint(std::string_view s);

/// The one diagnosis of a malformed value, on every surface (CLI flags,
/// wire keys, manifest fields): "bad <name> '<value>' (want <want>)".
std::string bad_value(std::string_view name, std::string_view value,
                      std::string_view want);

/// Reads a whole file; returns nullopt when unreadable.
std::optional<std::string> read_file(const std::string& path);

/// Writes a whole file; returns false on failure.
bool write_file(const std::string& path, const std::string& content);

}  // namespace lol::driver
