// Daemon-mode tests: NDJSON over a real loopback socket — submit with
// streamed completion events, cancel by id, stats, malformed input, and
// deadline enforcement observed from outside the process.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <optional>
#include <random>
#include <string>
#include <thread>

#include "service/daemon.hpp"
#include "service/service.hpp"
#include "service/run_request.hpp"
#include "service/wire.hpp"

namespace {

using lol::service::Daemon;
using lol::service::DaemonOptions;
using lol::service::Service;
using lol::service::ServiceOptions;
namespace wire = lol::service::wire;

/// A minimal NDJSON client: connect to the daemon's loopback port, send
/// request lines, read event lines with a timeout.
class Client {
 public:
  explicit Client(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    connected_ = ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                           sizeof(addr)) == 0;
  }

  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }

  [[nodiscard]] bool connected() const { return connected_; }

  void send_line(const std::string& line) {
    std::string data = line + "\n";
    ASSERT_EQ(::send(fd_, data.data(), data.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(data.size()));
  }

  /// Next line, or nullopt after `timeout_ms` of silence.
  std::optional<std::string> read_line(int timeout_ms = 5000) {
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(timeout_ms);
    for (;;) {
      std::size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return line;
      }
      auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now());
      if (left.count() <= 0) return std::nullopt;
      pollfd pfd{fd_, POLLIN, 0};
      int pr = ::poll(&pfd, 1, static_cast<int>(left.count()));
      if (pr <= 0) return std::nullopt;
      char chunk[4096];
      ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n <= 0) return std::nullopt;
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  /// Reads lines until one whose parsed "event" matches, skipping others
  /// (submit responses can interleave with completion events).
  std::optional<wire::Json> read_event(const std::string& event,
                                       int timeout_ms = 5000) {
    for (;;) {
      auto line = read_line(timeout_ms);
      if (!line) return std::nullopt;
      auto doc = wire::parse_json(*line);
      if (!doc) continue;
      const wire::Json* e = doc->find("event");
      if (e != nullptr && e->str == event) return doc;
    }
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
  std::string buf_;
};

struct DaemonFixture {
  DaemonFixture() : svc(make_opts()), daemon(svc, DaemonOptions{"", 0}) {
    std::string err;
    started = daemon.start(&err);
  }
  ~DaemonFixture() {
    daemon.stop();
    svc.shutdown();
  }
  static ServiceOptions make_opts() {
    ServiceOptions o;
    o.workers = 2;
    o.default_max_steps = 0;  // deadline/cancel tests need unlimited steps
    return o;
  }
  Service svc;
  Daemon daemon;
  bool started = false;
};

const char* kHelloSubmit =
    R"({"op":"submit","name":"hi","source":"HAI 1.2\nVISIBLE \"O HAI\" ME\nKTHXBYE\n","n_pes":2,"tenant":"alice"})";
const char* kSpinSubmit =
    R"({"op":"submit","name":"spin","source":"HAI 1.2\nIM IN YR l\nIM OUTTA YR l\nKTHXBYE\n","n_pes":1)";

TEST(Daemon, PingPong) {
  DaemonFixture fx;
  ASSERT_TRUE(fx.started);
  Client c(fx.daemon.tcp_port());
  ASSERT_TRUE(c.connected());
  c.send_line(R"({"op":"ping"})");
  auto pong = c.read_event("pong");
  ASSERT_TRUE(pong.has_value());
}

TEST(Daemon, SubmitStreamsAcceptedThenDone) {
  DaemonFixture fx;
  ASSERT_TRUE(fx.started);
  Client c(fx.daemon.tcp_port());
  ASSERT_TRUE(c.connected());

  c.send_line(kHelloSubmit);
  auto accepted = c.read_event("accepted");
  ASSERT_TRUE(accepted.has_value());
  EXPECT_EQ(accepted->find("name")->str, "hi");
  EXPECT_EQ(accepted->find("tenant")->str, "alice");
  double id = accepted->find("id")->num;
  EXPECT_GT(id, 0.0);

  auto done = c.read_event("done");
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(done->find("id")->num, id);
  EXPECT_EQ(done->find("status")->str, "ok");
  const wire::Json* output = done->find("output");
  ASSERT_NE(output, nullptr);
  ASSERT_EQ(output->arr.size(), 2u);
  EXPECT_EQ(output->arr[0].str, "O HAI0\n");
  EXPECT_EQ(output->arr[1].str, "O HAI1\n");
}

TEST(Daemon, DeadlineExceededIsVisibleOnTheWire) {
  DaemonFixture fx;
  ASSERT_TRUE(fx.started);
  Client c(fx.daemon.tcp_port());
  ASSERT_TRUE(c.connected());

  c.send_line(std::string(kSpinSubmit) + R"(,"deadline_ms":200})");
  auto done = c.read_event("done");
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(done->find("status")->str, "deadline-exceeded");
}

TEST(Daemon, CancelInFlightJobFromTheWire) {
  DaemonFixture fx;
  ASSERT_TRUE(fx.started);
  Client c(fx.daemon.tcp_port());
  ASSERT_TRUE(c.connected());

  c.send_line(std::string(kSpinSubmit) + "}");  // no deadline: spins forever
  auto accepted = c.read_event("accepted");
  ASSERT_TRUE(accepted.has_value());
  auto id = static_cast<std::uint64_t>(accepted->find("id")->num);

  // Wait until the worker picked it up, then cancel over the wire.
  while (fx.svc.running_depth() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  c.send_line(R"({"op":"cancel","id":)" + std::to_string(id) + "}");
  auto cancel = c.read_event("cancel");
  ASSERT_TRUE(cancel.has_value());
  EXPECT_TRUE(cancel->find("ok")->b);

  auto done = c.read_event("done");
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(done->find("status")->str, "cancelled");
}

TEST(Daemon, CancelIsScopedToTheSubmittingConnection) {
  // Ids are sequential, so without scoping any client could walk the id
  // space and kill other tenants' jobs.
  DaemonFixture fx;
  ASSERT_TRUE(fx.started);
  Client owner(fx.daemon.tcp_port());
  Client attacker(fx.daemon.tcp_port());

  owner.send_line(std::string(kSpinSubmit) + "}");  // spins forever
  auto accepted = owner.read_event("accepted");
  ASSERT_TRUE(accepted.has_value());
  auto id = static_cast<std::uint64_t>(accepted->find("id")->num);
  while (fx.svc.running_depth() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  attacker.send_line(R"({"op":"cancel","id":)" + std::to_string(id) + "}");
  auto denied = attacker.read_event("cancel");
  ASSERT_TRUE(denied.has_value());
  EXPECT_FALSE(denied->find("ok")->b);

  // The owner can still cancel its own job.
  owner.send_line(R"({"op":"cancel","id":)" + std::to_string(id) + "}");
  auto ok = owner.read_event("cancel");
  ASSERT_TRUE(ok.has_value());
  EXPECT_TRUE(ok->find("ok")->b);
  auto done = owner.read_event("done");
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(done->find("status")->str, "cancelled");
}

TEST(Daemon, CancelUnknownIdReportsFalse) {
  DaemonFixture fx;
  ASSERT_TRUE(fx.started);
  Client c(fx.daemon.tcp_port());
  c.send_line(R"({"op":"cancel","id":99999})");
  auto cancel = c.read_event("cancel");
  ASSERT_TRUE(cancel.has_value());
  EXPECT_FALSE(cancel->find("ok")->b);
}

TEST(Daemon, MalformedLinesYieldErrorsButKeepTheConnection) {
  DaemonFixture fx;
  ASSERT_TRUE(fx.started);
  Client c(fx.daemon.tcp_port());

  c.send_line("this is not json");
  auto err1 = c.read_event("error");
  ASSERT_TRUE(err1.has_value());

  c.send_line(R"({"op":"frobnicate"})");
  auto err2 = c.read_event("error");
  ASSERT_TRUE(err2.has_value());
  EXPECT_NE(err2->find("message")->str.find("unknown op"), std::string::npos);

  c.send_line(R"({"op":"submit"})");  // missing source
  auto err3 = c.read_event("error");
  ASSERT_TRUE(err3.has_value());

  // Still alive.
  c.send_line(R"({"op":"ping"})");
  EXPECT_TRUE(c.read_event("pong").has_value());
}

TEST(Daemon, StatsReflectServedJobs) {
  DaemonFixture fx;
  ASSERT_TRUE(fx.started);
  Client c(fx.daemon.tcp_port());

  c.send_line(kHelloSubmit);
  ASSERT_TRUE(c.read_event("done").has_value());
  c.send_line(R"({"op":"stats"})");
  auto stats = c.read_event("stats");
  ASSERT_TRUE(stats.has_value());
  EXPECT_GE(stats->find("submitted")->num, 1.0);
  EXPECT_GE(stats->find("ok")->num, 1.0);
}

TEST(Daemon, DoneEventsCarryLifecycleTraces) {
  DaemonFixture fx;
  ASSERT_TRUE(fx.started);
  Client c(fx.daemon.tcp_port());
  ASSERT_TRUE(c.connected());

  c.send_line(kHelloSubmit);
  auto done = c.read_event("done");
  ASSERT_TRUE(done.has_value());
  const wire::Json* trace = done->find("trace");
  ASSERT_NE(trace, nullptr);
  ASSERT_TRUE(trace->is(wire::Json::Kind::kArray));
  ASSERT_GE(trace->arr.size(), 2u);
  EXPECT_EQ(trace->arr[0].find("span")->str, "queued");
  for (const auto& sp : trace->arr) {
    EXPECT_GE(sp.find("start_ms")->num, 0.0);
    EXPECT_GE(sp.find("dur_ms")->num, 0.0);
  }
}

TEST(Daemon, MetricsScrapeMidBurstIsParseableAndMonotonic) {
  DaemonFixture fx;
  ASSERT_TRUE(fx.started);
  Client c(fx.daemon.tcp_port());
  ASSERT_TRUE(c.connected());

  auto scrape = [&]() -> std::string {
    c.send_line(R"({"op":"metrics"})");
    auto event = c.read_event("metrics");
    EXPECT_TRUE(event.has_value());
    if (!event) return "";
    const wire::Json* text = event->find("text");
    EXPECT_NE(text, nullptr);
    return text != nullptr ? text->str : "";
  };
  auto counter_value = [](const std::string& text,
                          const std::string& name) -> double {
    std::size_t pos = text.find("\n" + name + " ");
    if (pos == std::string::npos) return -1.0;
    return std::atof(text.c_str() + pos + 1 + name.size());
  };

  // First burst, first scrape.
  for (int i = 0; i < 8; ++i) c.send_line(kHelloSubmit);
  for (int i = 0; i < 8; ++i) ASSERT_TRUE(c.read_event("done").has_value());
  std::string first = scrape();
  ASSERT_FALSE(first.empty());
  double submitted1 = counter_value(first, "lol_jobs_submitted_total");
  EXPECT_GE(submitted1, 8.0);

  // Every line is a comment or `name[{labels}] value`.
  std::size_t start = 0;
  while (start < first.size()) {
    std::size_t nl = first.find('\n', start);
    ASSERT_NE(nl, std::string::npos) << "unterminated exposition line";
    std::string line = first.substr(start, nl - start);
    ASSERT_FALSE(line.empty());
    if (line[0] != '#') {
      EXPECT_NE(line.rfind(' '), std::string::npos) << line;
    }
    start = nl + 1;
  }

  // Second burst: counters are monotonic between scrapes.
  for (int i = 0; i < 8; ++i) c.send_line(kHelloSubmit);
  for (int i = 0; i < 8; ++i) ASSERT_TRUE(c.read_event("done").has_value());
  std::string second = scrape();
  double submitted2 = counter_value(second, "lol_jobs_submitted_total");
  EXPECT_GE(submitted2, submitted1 + 8.0);
  EXPECT_GE(counter_value(second, "lol_barrier_crossings_total"),
            counter_value(first, "lol_barrier_crossings_total"));
}

TEST(Daemon, ShutdownOpUnblocksWait) {
  DaemonFixture fx;
  ASSERT_TRUE(fx.started);
  Client c(fx.daemon.tcp_port());
  c.send_line(R"({"op":"shutdown"})");
  ASSERT_TRUE(c.read_event("bye").has_value());
  fx.daemon.wait();  // returns because the client asked for shutdown
}

TEST(Daemon, TwoClientsInterleave) {
  DaemonFixture fx;
  ASSERT_TRUE(fx.started);
  Client a(fx.daemon.tcp_port());
  Client b(fx.daemon.tcp_port());
  ASSERT_TRUE(a.connected());
  ASSERT_TRUE(b.connected());

  a.send_line(kHelloSubmit);
  b.send_line(kHelloSubmit);
  auto done_a = a.read_event("done");
  auto done_b = b.read_event("done");
  ASSERT_TRUE(done_a.has_value());
  ASSERT_TRUE(done_b.has_value());
  // Each client only sees its own job's events.
  EXPECT_NE(done_a->find("id")->num, done_b->find("id")->num);
}

TEST(Daemon, UnixSocketListens) {
  ServiceOptions sopts;
  sopts.workers = 1;
  Service svc(sopts);
  std::string path = "/tmp/lol_daemon_test_" + std::to_string(::getpid()) +
                     ".sock";
  Daemon daemon(svc, DaemonOptions{path, -1});
  std::string err;
  ASSERT_TRUE(daemon.start(&err)) << err;
  EXPECT_EQ(daemon.unix_path(), path);
  // Connectable via AF_UNIX.
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s", path.c_str());
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const char* ping = "{\"op\":\"ping\"}\n";
  ASSERT_GT(::send(fd, ping, std::strlen(ping), MSG_NOSIGNAL), 0);
  char buf[128];
  ssize_t n = ::recv(fd, buf, sizeof buf, 0);
  ASSERT_GT(n, 0);
  EXPECT_NE(std::string(buf, static_cast<std::size_t>(n)).find("pong"),
            std::string::npos);
  ::close(fd);
  daemon.stop();
  svc.shutdown();
}

// ---------------------------------------------------------------------------
// Wire codec unit tests
// ---------------------------------------------------------------------------

TEST(Wire, ParsesNestedJson) {
  auto doc = wire::parse_json(
      R"({"a":[1,2.5,-3],"b":{"c":"x\ny"},"d":true,"e":null})");
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("a")->arr.size(), 3u);
  EXPECT_EQ(doc->find("a")->arr[1].num, 2.5);
  EXPECT_EQ(doc->find("b")->find("c")->str, "x\ny");
  EXPECT_TRUE(doc->find("d")->b);
  EXPECT_TRUE(doc->find("e")->is(wire::Json::Kind::kNull));
}

TEST(Wire, RejectsMalformedJson) {
  std::string err;
  EXPECT_FALSE(wire::parse_json("{", &err).has_value());
  EXPECT_FALSE(wire::parse_json("{\"a\":}", &err).has_value());
  EXPECT_FALSE(wire::parse_json("[1,2]trailing", &err).has_value());
  EXPECT_FALSE(wire::parse_json("\"dangling\\", &err).has_value());
}

TEST(Wire, QuoteEscapesControlCharacters) {
  EXPECT_EQ(wire::quote("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
  EXPECT_EQ(wire::quote(std::string_view("\x01", 1)), "\"\\u0001\"");
}

TEST(Wire, QuoteRoundTripsEveryControlCharacter) {
  // All of U+0000..U+001F must survive quote() -> parse_json() exactly
  // (RFC 8259 requires them escaped; a raw control byte in the output
  // would also break NDJSON framing for \n).
  for (int c = 0; c < 0x20; ++c) {
    std::string s = "a";
    s += static_cast<char>(c);
    s += "b";
    std::string quoted = wire::quote(s);
    for (char q : quoted) {
      EXPECT_GE(static_cast<unsigned char>(q), 0x20u)
          << "raw control byte " << c << " in: " << quoted;
    }
    auto doc = wire::parse_json(quoted);
    ASSERT_TRUE(doc.has_value()) << "char " << c << ": " << quoted;
    EXPECT_EQ(doc->str, s) << "char " << c;
  }
}

TEST(Wire, RequestRoundTripsJobFields) {
  std::string err;
  auto req = wire::parse_request(
      R"({"op":"submit","source":"HAI","name":"n","tenant":"t",)"
      R"("n_pes":4,"deadline_ms":250,"max_steps":1000,"backend":"interp",)"
      R"("opt_level":1,"stdin":["a","b"]})",
      &err);
  ASSERT_TRUE(req.has_value()) << err;
  EXPECT_EQ(req->job.source, "HAI");
  EXPECT_EQ(req->job.name, "n");
  EXPECT_EQ(req->job.tenant, "t");
  EXPECT_EQ(req->job.n_pes, 4);
  EXPECT_EQ(req->job.deadline_ms, 250u);
  EXPECT_EQ(req->job.max_steps, 1000u);
  EXPECT_EQ(req->job.backend, lol::Backend::kInterp);
  EXPECT_EQ(req->job.opt_level, 1);
  ASSERT_EQ(req->job.stdin_lines.size(), 2u);
  EXPECT_EQ(req->job.stdin_lines[1], "b");
}

TEST(Wire, OptLevelDefaultsAndRejectsMalformedValues) {
  // Absent field: the default -O2 applies.
  std::string err;
  auto req =
      wire::parse_request(R"({"op":"submit","source":"HAI"})", &err);
  ASSERT_TRUE(req.has_value()) << err;
  EXPECT_EQ(req->job.opt_level, 2);

  // opt_level changes what a job computes per step budget, so unlike
  // the lenient numeric knobs it is validated strictly: anything but an
  // integer 0..2 is a protocol error, never silently clamped.
  const char* bad[] = {
      R"({"op":"submit","source":"HAI","opt_level":3})",
      R"({"op":"submit","source":"HAI","opt_level":-1})",
      R"({"op":"submit","source":"HAI","opt_level":1.5})",
      R"({"op":"submit","source":"HAI","opt_level":"max"})",
      R"({"op":"submit","source":"HAI","opt_level":1e400})",
  };
  for (const char* line : bad) {
    std::string e;
    auto r = wire::parse_request(line, &e);
    EXPECT_FALSE(r.has_value()) << "accepted: " << line;
    EXPECT_NE(e.find("opt_level"), std::string::npos) << e;
  }
}

// ---------------------------------------------------------------------------
// Property-style round-trips: serialize -> parse must be the identity for
// random requests and events, u64s over their whole range. Seeded from
// the hostile-number hardening in the daemon: the strict parsers that
// reject inf/1e400 must not clip legitimate payloads.
// ---------------------------------------------------------------------------

namespace {

std::string random_text(std::mt19937_64& rng, std::size_t max_len) {
  // Deliberately hostile strings: quotes, backslashes, control bytes,
  // UTF-8 fragments — everything quote()/parse_string must round-trip.
  static const char* pool[] = {"a",  "Z",  "0",   " ",    "\"", "\\",
                               "\n", "\t", "\r",  "\x01", "{",  "}",
                               ":",  ",",  "\xc3\xa9", "lol"};
  std::uniform_int_distribution<std::size_t> len(0, max_len);
  std::uniform_int_distribution<std::size_t> pick(0, std::size(pool) - 1);
  std::string out;
  for (std::size_t i = 0, n = len(rng); i < n; ++i) out += pool[pick(rng)];
  return out;
}

std::uint64_t random_u64(std::mt19937_64& rng) {
  // The whole u64 range: integers decode from the number's text, not
  // through a double.
  return rng();
}

}  // namespace

TEST(Wire, SubmitRoundTripsRandomJobs) {
  std::mt19937_64 rng(20170529);
  for (int iter = 0; iter < 200; ++iter) {
    lol::service::Job job;
    job.name = random_text(rng, 12);
    job.source = random_text(rng, 64);
    job.tenant = random_text(rng, 8);
    job.n_pes = static_cast<int>(1 + rng() % 1024);
    job.seed = random_u64(rng);
    job.max_steps = random_u64(rng);
    job.deadline_ms = random_u64(rng);
    job.heap_bytes = static_cast<std::size_t>(random_u64(rng));
    job.backend = iter % 3 == 0   ? lol::Backend::kInterp
                  : iter % 3 == 1 ? lol::Backend::kVm
                                  : lol::Backend::kJit;
    job.executor = iter % 3 == 0   ? lol::shmem::ExecutorKind::kThread
                   : iter % 3 == 1 ? lol::shmem::ExecutorKind::kPool
                                   : lol::shmem::ExecutorKind::kFiber;
    job.pes_per_thread = static_cast<int>(rng() % 256);
    job.barrier_radix = static_cast<int>(rng() % 64);
    job.opt_level = static_cast<int>(rng() % 3);
    for (std::size_t i = 0, n = rng() % 4; i < n; ++i) {
      job.stdin_lines.push_back(random_text(rng, 16));
    }

    std::string line = wire::submit_line(job);
    std::string err;
    auto req = wire::parse_request(line, &err);
    ASSERT_TRUE(req.has_value()) << "iter " << iter << ": " << err
                                 << "\nline: " << line;
    EXPECT_EQ(req->op, wire::Request::Op::kSubmit);
    EXPECT_EQ(req->job.name, job.name) << line;
    EXPECT_EQ(req->job.source, job.source) << line;
    EXPECT_EQ(req->job.tenant, job.tenant) << line;
    EXPECT_EQ(req->job.n_pes, job.n_pes);
    EXPECT_EQ(req->job.seed, job.seed);
    EXPECT_EQ(req->job.max_steps, job.max_steps);
    EXPECT_EQ(req->job.deadline_ms, job.deadline_ms);
    EXPECT_EQ(req->job.heap_bytes, job.heap_bytes);
    EXPECT_EQ(req->job.backend, job.backend);
    EXPECT_EQ(req->job.executor, job.executor);
    EXPECT_EQ(req->job.pes_per_thread, job.pes_per_thread);
    EXPECT_EQ(req->job.barrier_radix, job.barrier_radix);
    EXPECT_EQ(req->job.opt_level, job.opt_level);
    EXPECT_EQ(req->job.stdin_lines, job.stdin_lines);
  }
}

TEST(Wire, CancelAndControlRequestsRoundTrip) {
  std::mt19937_64 rng(7);
  for (int iter = 0; iter < 50; ++iter) {
    lol::service::JobId id = 1 + random_u64(rng);
    std::string err;
    auto req = wire::parse_request(wire::cancel_request_line(id), &err);
    ASSERT_TRUE(req.has_value()) << err;
    EXPECT_EQ(req->op, wire::Request::Op::kCancel);
    EXPECT_EQ(req->id, id);
  }
  for (auto op : {wire::Request::Op::kStats, wire::Request::Op::kMetrics,
                  wire::Request::Op::kPing, wire::Request::Op::kShutdown}) {
    wire::Request r;
    r.op = op;
    std::string err;
    auto parsed = wire::parse_request(wire::request_line(r), &err);
    ASSERT_TRUE(parsed.has_value()) << err;
    EXPECT_EQ(parsed->op, op);
  }
}

TEST(Wire, ResultEventsRoundTripThroughTheJsonParser) {
  std::mt19937_64 rng(42);
  using lol::service::JobStatus;
  const JobStatus statuses[] = {
      JobStatus::kOk,           JobStatus::kCompileError,
      JobStatus::kRuntimeError, JobStatus::kStepLimit,
      JobStatus::kDeadlineExceeded, JobStatus::kCancelled,
      JobStatus::kRejected};
  for (int iter = 0; iter < 100; ++iter) {
    lol::service::JobResult r;
    r.id = 1 + random_u64(rng);
    r.name = random_text(rng, 10);
    r.tenant = random_text(rng, 6);
    r.status = statuses[rng() % std::size(statuses)];
    r.error = random_text(rng, 20);
    r.compile_cache_hit = rng() % 2 == 0;
    if (rng() % 2 == 0) r.tuned = "barrier_radix=4 executor=fiber";
    r.queue_ms = static_cast<double>(rng() % 100000) / 1000.0;
    r.run_ms = static_cast<double>(rng() % 100000) / 1000.0;
    for (std::size_t i = 0, n = rng() % 3; i < n; ++i) {
      r.pe_output.push_back(random_text(rng, 24));
      r.pe_errout.push_back(random_text(rng, 8));
    }

    std::string err;
    auto doc = wire::parse_json(wire::result_line(r), &err);
    ASSERT_TRUE(doc.has_value()) << err;
    EXPECT_EQ(doc->find("event")->str, "done");
    EXPECT_EQ(doc->find("id")->num, static_cast<double>(r.id));
    EXPECT_EQ(doc->find("name")->str, r.name);
    EXPECT_EQ(doc->find("tenant")->str, r.tenant);
    EXPECT_EQ(doc->find("status")->str, lol::service::to_string(r.status));
    EXPECT_EQ(doc->find("error")->str, r.error);
    EXPECT_EQ(doc->find("cached")->b, r.compile_cache_hit);
    EXPECT_NEAR(doc->find("queue_ms")->num, r.queue_ms, 0.0005);
    EXPECT_NEAR(doc->find("run_ms")->num, r.run_ms, 0.0005);
    // "tuned" is only on the wire when knobs were actually applied.
    const wire::Json* tuned = doc->find("tuned");
    if (r.tuned.empty()) {
      EXPECT_EQ(tuned, nullptr);
    } else {
      ASSERT_NE(tuned, nullptr);
      EXPECT_EQ(tuned->str, r.tuned);
    }
    const wire::Json* out = doc->find("output");
    ASSERT_EQ(out->arr.size(), r.pe_output.size());
    for (std::size_t i = 0; i < r.pe_output.size(); ++i) {
      EXPECT_EQ(out->arr[i].str, r.pe_output[i]);
    }
  }
}

// The removed in-process C backend's wire name is an unknown backend
// like any other.
TEST(Wire, NativeBackendIsRejectedAsUnknown) {
  std::string err;
  auto req = wire::parse_request(
      R"({"op":"submit","source":"HAI 1.2\nKTHXBYE\n","backend":"native"})",
      &err);
  EXPECT_FALSE(req.has_value());
  EXPECT_EQ(err, "unknown backend 'native'");
  EXPECT_FALSE(lol::backend_from_name("native").has_value());
}

TEST(Wire, MalformedRequestsAreRejectedWithErrors) {
  const char* cases[] = {
      "",                                       // empty line
      "{",                                      // truncated object
      "[1,2]",                                  // not an object
      "42",                                     // not an object
      "{\"op\":\"submit\"}",                    // missing source
      "{\"op\":\"submit\",\"source\":42}",      // source wrong type
      "{\"op\":\"submit\",\"source\":\"HAI\",\"backend\":\"turbo\"}",
      "{\"op\":\"submit\",\"source\":\"HAI\",\"executor\":\"warp\"}",
      "{\"op\":\"nope\"}",                      // unknown op
      "{\"op\":\"cancel\"}",                    // missing id
      "{\"op\":\"cancel\",\"id\":0}",           // id must be nonzero
      "{\"op\":\"cancel\",\"id\":1e400}",       // overflows to inf
      "{\"op\":\"cancel\",\"id\":-7}",          // negative
      "{\"op\":\"ping\"}trailing",              // trailing garbage
      "{\"op\":\"ping\"",                       // unterminated
      "{\"op\":\"pi\\qng\"}",                   // unknown escape
      "{\"op\":\"ping\\u00g1\"}",               // bad \u escape
      "{\"op\":nan}",                           // bad literal
  };
  for (const char* line : cases) {
    std::string err;
    auto req = wire::parse_request(line, &err);
    EXPECT_FALSE(req.has_value()) << "accepted: " << line;
    EXPECT_FALSE(err.empty()) << "no diagnostic for: " << line;
  }

  // Knob values the wire used to default silently: each is refused with
  // the diagnosis of the parser the CLI flag uses, naming the key.
  const std::pair<const char*, const char*> knob_cases[] = {
      {R"("n_pes":"2")", "bad n_pes '\"2\"' (want an integer in [1, 4096])"},
      {R"("n_pes":2.5)", "bad n_pes '2.5' (want an integer in [1, 4096])"},
      {R"("n_pes":-3)", "bad n_pes '-3' (want an integer in [1, 4096])"},
      {R"("n_pes":99999)", "bad n_pes '99999' (want an integer in [1, 4096])"},
      {R"("max_steps":"10")",
       "bad max_steps '\"10\"' (want an unsigned 64-bit integer)"},
      {R"("backend":5)", "unknown backend '5'"},
      {R"("stdin":["a",3])", "bad stdin '[...]' (want an array of strings)"},
      {R"("pes_per_thread":"x")",
       "bad pes_per_thread '\"x\"' (want an integer in [0, 4096])"},
      {R"("replay":7)", "bad replay '7' (want a string)"},
      {R"("fault":"pe=1")", "bad fault spec"},
      {R"("deadline_ms":1.5)",
       "bad deadline_ms '1.5' (want an unsigned 64-bit integer)"},
      {R"("seed":18446744073709551616)",
       "bad seed '18446744073709551616' (want an unsigned 64-bit integer)"},
  };
  for (const auto& [member, diagnosis] : knob_cases) {
    const std::string line =
        std::string(R"({"op":"submit","source":"HAI",)") + member + "}";
    std::string err;
    EXPECT_FALSE(wire::parse_request(line, &err).has_value()) << line;
    EXPECT_EQ(err.rfind(diagnosis, 0), 0u) << line << " -> " << err;
  }
  // Every knob in the table is checked: a value of the wrong JSON type is
  // an error that names the knob's key.
  for (const lol::service::Knob& k : lol::service::knobs()) {
    const std::string line = std::string(R"({"op":"submit","source":"HAI",")") +
                             k.key + R"(":[1]})";
    std::string err;
    EXPECT_FALSE(wire::parse_request(line, &err).has_value()) << line;
    EXPECT_NE(err.find(k.key), std::string::npos) << line << " -> " << err;
  }

  // Nesting deeper than the parser's bound is rejected, not recursed.
  std::string deep;
  for (int i = 0; i < 64; ++i) deep += "[";
  std::string err;
  EXPECT_FALSE(wire::parse_json(deep, &err).has_value());
  EXPECT_FALSE(err.empty());
}

}  // namespace
