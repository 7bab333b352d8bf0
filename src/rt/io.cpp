#include "rt/io.hpp"

#include <iostream>

#if defined(__unix__) || defined(__APPLE__)
#include <poll.h>
#include <unistd.h>
#define LOL_HAVE_POLL 1
#endif

namespace lol::rt {

void StdioSink::emit(int pe, std::string_view text, bool err) {
  std::lock_guard<std::mutex> g(m_);
  std::ostream& os = err ? std::cerr : std::cout;
  if (!tag_pe_) {
    os << text;
    os.flush();
    return;
  }
  // Tag each line with the producing PE.
  std::string& pending = err ? pending_err_[pe] : pending_out_[pe];
  pending.append(text);
  std::size_t nl;
  while ((nl = pending.find('\n')) != std::string::npos) {
    os << "[pe" << pe << "] " << pending.substr(0, nl + 1);
    pending.erase(0, nl + 1);
  }
  os.flush();
}

void StdioSink::flush() {
  std::lock_guard<std::mutex> g(m_);
  for (auto [pending, os] : {std::pair{&pending_out_, &std::cout},
                             std::pair{&pending_err_, &std::cerr}}) {
    for (auto& [pe, tail] : *pending) {
      if (!tail.empty()) *os << "[pe" << pe << "!] " << tail << "\n";
    }
    pending->clear();
    os->flush();
  }
}

void StdioSink::write(int pe, std::string_view text) {
  emit(pe, text, false);
}

void StdioSink::write_err(int pe, std::string_view text) {
  emit(pe, text, true);
}

std::optional<std::string> StdinInput::read_line(int /*pe*/) {
  std::lock_guard<std::mutex> g(m_);
  std::string line;
  if (!std::getline(std::cin, line)) return std::nullopt;
  return line;
}

TryRead StdinInput::try_read_line(int pe, std::chrono::milliseconds wait) {
#ifdef LOL_HAVE_POLL
  // Bounded wait so an abort (deadline, peer failure) can interrupt a PE
  // blocked in GIMMEH on a silent terminal/pipe. Buffered data in cin is
  // checked first — fd 0 may show nothing while the streambuf holds a
  // line. Once poll reports readable we fall through to the blocking
  // getline: line-buffered terminals and pipes deliver whole lines, so
  // it returns promptly.
  {
    std::unique_lock<std::mutex> g(m_, std::try_to_lock);
    if (!g.owns_lock()) {
      // Another PE is mid-read on the shared cursor; report a timeout
      // rather than queueing behind a possibly-forever-blocked reader.
      return {std::nullopt, true};
    }
    if (std::cin.rdbuf()->in_avail() > 0 || std::cin.eof()) {
      std::string line;
      if (!std::getline(std::cin, line)) return {std::nullopt, false};
      return {std::optional<std::string>(std::move(line)), false};
    }
  }
  pollfd pfd{STDIN_FILENO, POLLIN, 0};
  int pr = ::poll(&pfd, 1, static_cast<int>(wait.count()));
  if (pr <= 0) return {std::nullopt, true};
  return {read_line(pe), false};
#else
  return {read_line(pe), false};
#endif
}

}  // namespace lol::rt
