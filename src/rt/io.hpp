// Per-PE IO plumbing for VISIBLE / INVISIBLE / GIMMEH.
//
// Backends never touch stdio directly; they write through an OutputSink
// and read through an InputSource. Tests capture per-PE output; the CLI
// tools stream to the real stdout/stderr (optionally tagging lines with
// the PE id, like `coprsh` output interleaves ranks).
#pragma once

#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace lol::rt {

/// Where VISIBLE/INVISIBLE text goes. Implementations must be safe for
/// concurrent calls from different PEs.
class OutputSink {
 public:
  virtual ~OutputSink() = default;
  virtual void write(int pe, std::string_view text) = 0;
  virtual void write_err(int pe, std::string_view text) = 0;
};

/// Captures per-PE stdout/stderr into strings (the default for tests and
/// the embedding API).
class CaptureSink final : public OutputSink {
 public:
  explicit CaptureSink(int n_pes)
      : out_(static_cast<std::size_t>(n_pes)),
        err_(static_cast<std::size_t>(n_pes)) {}

  void write(int pe, std::string_view text) override {
    std::lock_guard<std::mutex> g(m_);
    out_[static_cast<std::size_t>(pe)] += text;
  }
  void write_err(int pe, std::string_view text) override {
    std::lock_guard<std::mutex> g(m_);
    err_[static_cast<std::size_t>(pe)] += text;
  }

  [[nodiscard]] const std::string& out(int pe) const {
    return out_[static_cast<std::size_t>(pe)];
  }
  [[nodiscard]] const std::string& err(int pe) const {
    return err_[static_cast<std::size_t>(pe)];
  }
  [[nodiscard]] std::vector<std::string> take_out() {
    return std::move(out_);
  }
  [[nodiscard]] std::vector<std::string> take_err() {
    return std::move(err_);
  }

 private:
  std::mutex m_;
  std::vector<std::string> out_;
  std::vector<std::string> err_;
};

/// Streams to the process stdout/stderr. With `tag_pe`, each buffered
/// line is prefixed `[peN] ` so interleaved SPMD output stays readable.
/// Text a PE leaves after its last newline is printed when the run ends
/// (flush(), or the destructor) as one `[peN!] text` line — `!` as in
/// `VISIBLE ...!`: no newline of its own — so `a0` and `a0\n` stay
/// distinguishable in tagged output.
class StdioSink final : public OutputSink {
 public:
  explicit StdioSink(bool tag_pe = false) : tag_pe_(tag_pe) {}
  ~StdioSink() override { flush(); }
  void write(int pe, std::string_view text) override;
  void write_err(int pe, std::string_view text) override;
  /// Prints every PE's unterminated tail; call once the PEs are done.
  void flush();

 private:
  void emit(int pe, std::string_view text, bool err);
  std::mutex m_;
  bool tag_pe_;
  std::map<int, std::string> pending_out_;
  std::map<int, std::string> pending_err_;
};

/// Outcome of a bounded-wait input read: either done (a line, or EOF when
/// `line` is empty-nullopt) or timed out, in which case the caller should
/// check for abort and poll again.
struct TryRead {
  std::optional<std::string> line;
  bool timed_out = false;
};

/// Where GIMMEH reads from.
class InputSource {
 public:
  virtual ~InputSource() = default;
  /// Next line for PE `pe`, or nullopt at end of input.
  virtual std::optional<std::string> read_line(int pe) = 0;

  /// Bounded-wait variant of read_line. Backends read GIMMEH through
  /// this in a poll loop so shmem::Runtime::abort() (deadline, cancel)
  /// can interrupt a PE blocked on input. Sources that never block — the
  /// default — just read; sources backed by a live stream should wait at
  /// most `wait` and report a timeout instead of blocking forever.
  virtual TryRead try_read_line(int pe, std::chrono::milliseconds wait) {
    (void)wait;
    return {read_line(pe), false};
  }
};

/// Serves a fixed list of lines; every PE gets its own independent cursor
/// over the same list (SPMD: each PE runs the same program on the same
/// input unless the program branches on ME).
class VectorInput final : public InputSource {
 public:
  VectorInput(std::vector<std::string> lines, int n_pes)
      : lines_(std::move(lines)),
        cursor_(static_cast<std::size_t>(n_pes), 0) {}

  std::optional<std::string> read_line(int pe) override {
    std::lock_guard<std::mutex> g(m_);
    std::size_t& cur = cursor_[static_cast<std::size_t>(pe)];
    if (cur >= lines_.size()) return std::nullopt;
    return lines_[cur++];
  }

 private:
  std::mutex m_;
  std::vector<std::string> lines_;
  std::vector<std::size_t> cursor_;
};

/// Reads the real stdin (shared cursor; first PE to ask gets the line).
class StdinInput final : public InputSource {
 public:
  std::optional<std::string> read_line(int pe) override;

  /// Bounded wait via poll(2) on fd 0 (POSIX; blocking fallback
  /// elsewhere), so a deadline/abort can interrupt a GIMMEH that is
  /// waiting on input that never comes.
  TryRead try_read_line(int pe, std::chrono::milliseconds wait) override;

 private:
  std::mutex m_;
};

}  // namespace lol::rt
