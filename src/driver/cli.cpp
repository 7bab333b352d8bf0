#include "driver/cli.hpp"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace lol::driver {

Cli::Cli(int argc, char** argv) {
  prog_ = argc > 0 ? argv[0] : "tool";
  for (int i = 1; i < argc; ++i) args_.emplace_back(argv[i]);
  used_.assign(args_.size(), false);
}

void Cli::consume(std::size_t i, std::size_t n) {
  for (std::size_t k = i; k < i + n && k < used_.size(); ++k) used_[k] = true;
}

bool Cli::has_flag(const std::string& name, const std::string& alias) {
  for (std::size_t i = 0; i < args_.size(); ++i) {
    if (used_[i]) continue;
    if (args_[i] == name || (!alias.empty() && args_[i] == alias)) {
      consume(i, 1);
      return true;
    }
  }
  return false;
}

std::optional<std::string> Cli::option(const std::string& name,
                                       const std::string& alias) {
  for (std::size_t i = 0; i + 1 < args_.size(); ++i) {
    if (used_[i]) continue;
    if (args_[i] == name || (!alias.empty() && args_[i] == alias)) {
      consume(i, 2);
      return args_[i + 1];
    }
  }
  return std::nullopt;
}

namespace {

template <typename T>
std::optional<T> parse_whole(std::string_view s) {
  T v{};
  const char* end = s.data() + s.size();
  auto [ptr, ec] = std::from_chars(s.data(), end, v);
  if (s.empty() || ec != std::errc{} || ptr != end) return std::nullopt;
  return v;
}

}  // namespace

void Cli::bad_value(const std::string& name, const std::string& value,
                    const std::string& want) const {
  std::fprintf(stderr, "%s: bad %s '%s' (want %s)\n",
               prog_.substr(prog_.rfind('/') + 1).c_str(), name.c_str(),
               value.c_str(), want.c_str());
  std::exit(2);
}

std::optional<std::int64_t> Cli::int_option(const std::string& name,
                                            std::int64_t lo, std::int64_t hi,
                                            const std::string& alias) {
  std::optional<std::string> v = option(name, alias);
  if (!v) return std::nullopt;
  if (auto n = parse_int(*v, lo, hi)) return n;
  bad_value(name, *v,
            "an integer in [" + std::to_string(lo) + ", " +
                std::to_string(hi) + "]");
}

std::optional<std::uint64_t> Cli::uint_option(const std::string& name,
                                              const std::string& alias) {
  std::optional<std::string> v = option(name, alias);
  if (!v) return std::nullopt;
  if (auto n = parse_uint(*v)) return n;
  bad_value(name, *v, "an unsigned 64-bit integer");
}

const std::vector<std::string>& Cli::positional() {
  if (!positional_built_) {
    for (std::size_t i = 0; i < args_.size(); ++i) {
      if (!used_[i]) positional_.push_back(args_[i]);
    }
    positional_built_ = true;
  }
  return positional_;
}

std::optional<std::int64_t> parse_int(std::string_view s, std::int64_t lo,
                                      std::int64_t hi) {
  std::optional<std::int64_t> v = parse_whole<std::int64_t>(s);
  if (!v || *v < lo || *v > hi) return std::nullopt;
  return v;
}

std::optional<std::uint64_t> parse_uint(std::string_view s) {
  return parse_whole<std::uint64_t>(s);
}

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

bool write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out << content;
  return out.good();
}

}  // namespace lol::driver
