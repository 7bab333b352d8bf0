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

  /// True when `--name` (or an alias) was present.
  bool has_flag(const std::string& name, const std::string& alias = "");

  /// Value of `--name <value>`; nullopt when absent.
  std::optional<std::string> option(const std::string& name,
                                    const std::string& alias = "");

  /// Value of the integer option `--name <N>`, parsed strictly (see
  /// parse_int) into [lo, hi]; nullopt when absent. A malformed or
  /// out-of-range value is a usage error: it prints why and exits with
  /// status 2.
  std::optional<std::int64_t> int_option(const std::string& name,
                                         std::int64_t lo, std::int64_t hi,
                                         const std::string& alias = "");

  /// int_option over the whole unsigned 64-bit range (seeds, budgets,
  /// byte counts, milliseconds).
  std::optional<std::uint64_t> uint_option(const std::string& name,
                                           const std::string& alias = "");

  /// Positional arguments remaining after flags/options are consumed.
  [[nodiscard]] const std::vector<std::string>& positional();

  /// The program name (argv[0]).
  [[nodiscard]] const std::string& prog() const { return prog_; }

 private:
  void consume(std::size_t i, std::size_t n);
  /// Reports a malformed option value and exits with status 2.
  [[noreturn]] void bad_value(const std::string& name,
                              const std::string& value,
                              const std::string& want) const;

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

/// Reads a whole file; returns nullopt when unreadable.
std::optional<std::string> read_file(const std::string& path);

/// Writes a whole file; returns false on failure.
bool write_file(const std::string& path, const std::string& content);

}  // namespace lol::driver
