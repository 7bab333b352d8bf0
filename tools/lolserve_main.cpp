// lolserve — run parallel LOLCODE jobs through the execution service
// (the multi-tenant analogue of lolrun), as a batch or as a daemon:
//
//   lolserve labs/                       # every .lol under labs/
//   lolserve --workers 8 --repeat 10 a.lol b.lol
//   lolserve --manifest jobs.txt         # lines: <path> [n_pes] [max_steps]
//                                        #        [tenant] [deadline_ms]
//   lolserve --daemon --listen tcp:4004  # NDJSON jobs over a socket
//   lolserve --client --connect tcp:4004 lab.lol   # talk to that daemon
//
// Batch mode prints one status line per job *as it completes* plus
// aggregate throughput and compile-cache statistics. Daemon mode streams
// per-job JSON events to each client (see src/service/wire.hpp). Client
// mode speaks that NDJSON protocol to a running daemon — submit, cancel,
// stats — so scripts do not need raw sockets.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <limits>
#include <mutex>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#if !defined(_WIN32)
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#endif

#include "driver/cli.hpp"
#include "obs/metrics.hpp"
#include "replay/trace.hpp"
#include "service/daemon.hpp"
#include "service/service.hpp"
#include "service/wire.hpp"
#include "shmem/runtime.hpp"

namespace fs = std::filesystem;

namespace {

constexpr std::int64_t kMaxInt = std::numeric_limits<int>::max();

int usage(const char* prog) {
  std::fprintf(
      stderr,
      "usage: %s [options] <job.lol | dir>...\n"
      "       %s --daemon [--listen <unix:PATH|tcp:PORT>] [options]\n"
      "       %s --client [--connect <unix:PATH|tcp:PORT>] <job.lol>... |\n"
      "                   --cancel <ID> | --stats | --metrics | --ping |\n"
      "                   --shutdown\n"
      "  --workers <N>      worker threads (default 4)\n"
      "  --queue <N>        bounded queue capacity (default 256)\n"
      "  --policy <p>       block (default) or reject when the queue is full\n"
      "  -np <N>            PEs per job (default 1)\n"
      "  --backend <b>      vm (default), interp or jit\n"
      "  --executor <e>     pool (default), thread or fiber (virtual PEs —\n"
      "                     lets -np exceed the host's cores)\n"
      "  --pes-per-thread <K>  fiber executor: virtual PEs per carrier\n"
      "  --barrier-radix <R>  combining-tree barrier fan-in for batch/\n"
      "                     client jobs (default auto; results are radix-\n"
      "                     invariant; daemon jobs set \"barrier_radix\"\n"
      "                     per submission on the wire)\n"
      "  --opt-level <L>    optimizer level for batch/client jobs: 0 (off),\n"
      "                     1 (fold, prop, dce) or 2 (adds unroll and\n"
      "                     select; default); daemon jobs set\n"
      "                     \"opt_level\" per submission on the wire\n"
      "  --tuner-cache <file>  durable auto-tuner store; warm jobs get\n"
      "                     the persisted knob winners applied (see\n"
      "                     lolrun --tune)\n"
      "  --max-pes <N>      clamp on per-job n_pes (default 64)\n"
      "  --max-queued-per-tenant <N>  per-tenant queued-job quota; over-\n"
      "                     quota submissions get status quota-exceeded\n"
      "                     (default 0 = unlimited)\n"
      "  --max-steps <S>    per-PE step budget (default 50000000)\n"
      "  --deadline-ms <D>  per-job wall-clock deadline (default none)\n"
      "  --tenant <name>    tenant for command-line jobs (default \"\")\n"
      "  --tenant-weights <a=2,b=1>  DRR weights for fair queueing\n"
      "  --repeat <R>       submit the job list R times (default 1; warms "
      "the compile cache)\n"
      "  --shuffle          randomize the batch submission order "
      "(scheduling-fairness experiments)\n"
      "  --shuffle-seed <S> RNG seed for --shuffle (default 20170529; same "
      "seed => same order)\n"
      "  --manifest <file>  extra jobs, one per line: <path> [n_pes] "
      "[max_steps] [tenant] [deadline_ms]\n"
      "  --quiet            suppress per-job lines, print the summary only\n"
      "  --record <file>    run jobs on a recorded deterministic schedule\n"
      "                     and write the trace to <file> (batch + client)\n"
      "  --replay <file>    enforce a recorded schedule trace on the jobs\n"
      "  --perturb-seed <S> record under a seeded schedule perturbation\n"
      "  --fault <spec>     inject faults: pe=K@step=S, noc=F, input=N\n"
      "                     (comma-separated; job resolves as pe-failed)\n"
      "  --daemon           serve NDJSON jobs over a socket until "
      "{\"op\":\"shutdown\"}\n"
      "  --listen <addr>    unix:/path/to.sock or tcp:PORT (default "
      "tcp:4004, loopback)\n"
      "  --metrics-interval <sec>  daemon: append a Prometheus metrics\n"
      "                     snapshot every <sec> seconds\n"
      "  --metrics-out <file>  destination for --metrics-interval\n"
      "                     snapshots (default stderr)\n"
      "  --client           speak the NDJSON protocol to a running daemon\n"
      "  --connect <addr>   daemon address for --client (default tcp:4004)\n"
      "  --cancel <ID>      client: request cancel of job ID (the daemon\n"
      "                     only honors cancels from the submitting\n"
      "                     connection; a refusal exits 1)\n"
      "  --cancel-after-ms <N>  client: cancel this invocation's still-\n"
      "                     running jobs N ms after submission\n"
      "  --stats|--ping|--shutdown  client: one-shot daemon requests\n"
      "  --metrics          client: print the daemon's Prometheus text\n"
      "                     exposition (decoded, scraper-ready)\n",
      prog, prog, prog);
  return 2;
}

struct JobSpec {
  std::string path;
  int n_pes = 0;  // 0 = use the command-line default
  std::uint64_t max_steps = 0;
  std::string tenant;  // empty = use the command-line default
  std::uint64_t deadline_ms = 0;
};

/// Expands a positional argument into job specs (.lol file or directory).
bool expand_path(const std::string& arg, std::vector<JobSpec>& out) {
  std::error_code ec;
  if (fs::is_directory(arg, ec)) {
    std::vector<std::string> found;
    for (const auto& entry : fs::recursive_directory_iterator(arg, ec)) {
      if (entry.is_regular_file() && entry.path().extension() == ".lol") {
        found.push_back(entry.path().string());
      }
    }
    std::sort(found.begin(), found.end());
    for (auto& p : found) out.push_back({std::move(p), 0, 0, "", 0});
    return true;
  }
  if (fs::is_regular_file(arg, ec)) {
    out.push_back({arg, 0, 0, "", 0});
    return true;
  }
  std::fprintf(stderr, "lolserve: no such file or directory: '%s'\n",
               arg.c_str());
  return false;
}

/// Parses a manifest: `<path> [n_pes] [max_steps] [tenant] [deadline_ms]`,
/// '#' starts a comment. Use `-` for tenant to skip to deadline_ms.
/// Numeric fields are strict (see driver::parse_int); returns 0, or the
/// exit status after reporting `file:line` (1 unreadable, 2 malformed).
int read_manifest(const std::string& path, std::vector<JobSpec>& out) {
  auto text = lol::driver::read_file(path);
  if (!text) {
    std::fprintf(stderr, "lolserve: cannot read manifest '%s'\n",
                 path.c_str());
    return 1;
  }
  std::istringstream in(*text);
  std::string line;
  for (int lineno = 1; std::getline(in, line); ++lineno) {
    if (auto hash = line.find('#'); hash != std::string::npos) {
      line.erase(hash);
    }
    std::istringstream fields(line);
    std::vector<std::string> f;
    for (std::string tok; fields >> tok;) f.push_back(std::move(tok));
    if (f.empty()) continue;  // blank/comment-only line
    auto bad = [&](const char* what, const std::string& value) {
      std::fprintf(stderr, "lolserve: %s:%d: bad %s '%s'\n", path.c_str(),
                   lineno, what, value.c_str());
      return 2;
    };
    if (f.size() > 5) return bad("trailing field", f[5]);
    JobSpec spec;
    spec.path = f[0];
    if (f.size() > 1) {
      auto n = lol::driver::parse_int(f[1], 1, lol::shmem::kMaxPes);
      if (!n) return bad("n_pes", f[1]);
      spec.n_pes = static_cast<int>(*n);
    }
    if (f.size() > 2) {
      auto n = lol::driver::parse_uint(f[2]);
      if (!n) return bad("max_steps", f[2]);
      spec.max_steps = *n;
    }
    if (f.size() > 3 && f[3] != "-") spec.tenant = f[3];
    if (f.size() > 4) {
      auto n = lol::driver::parse_uint(f[4]);
      if (!n) return bad("deadline_ms", f[4]);
      spec.deadline_ms = *n;
    }
    out.push_back(std::move(spec));
  }
  return 0;
}

/// Parses "--tenant-weights a=2,b=1" into ServiceOptions::tenant_weights.
bool parse_tenant_weights(const std::string& arg,
                          std::map<std::string, int>& out) {
  std::istringstream in(arg);
  std::string item;
  while (std::getline(in, item, ',')) {
    auto eq = item.find('=');
    if (eq == std::string::npos || eq == 0) return false;
    auto w = lol::driver::parse_int(std::string_view(item).substr(eq + 1), 1,
                                    std::numeric_limits<int>::max());
    if (!w) return false;
    out[item.substr(0, eq)] = static_cast<int>(*w);
  }
  return true;
}

#if !defined(_WIN32)

/// Connects to a daemon at unix:PATH or tcp:PORT; -1 + message on failure.
int client_connect(const std::string& addr) {
  int fd = -1;
  if (addr.rfind("unix:", 0) == 0) {
    std::string path = addr.substr(5);
    sockaddr_un sa{};
    sa.sun_family = AF_UNIX;
    if (path.size() >= sizeof(sa.sun_path)) {
      std::fprintf(stderr, "lolserve: unix socket path too long\n");
      return -1;
    }
    std::strncpy(sa.sun_path, path.c_str(), sizeof(sa.sun_path) - 1);
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd >= 0 &&
        ::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) < 0) {
      ::close(fd);
      fd = -1;
    }
  } else if (addr.rfind("tcp:", 0) == 0) {
    sockaddr_in sa{};
    sa.sin_family = AF_INET;
    sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    auto port = lol::driver::parse_int(std::string_view(addr).substr(4), 0,
                                       65535);
    if (!port) {
      std::fprintf(stderr, "lolserve: bad port in '%s'\n", addr.c_str());
      return -1;
    }
    sa.sin_port = htons(static_cast<std::uint16_t>(*port));
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd >= 0 &&
        ::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) < 0) {
      ::close(fd);
      fd = -1;
    }
  } else {
    std::fprintf(stderr,
                 "lolserve: --connect wants unix:PATH or tcp:PORT, got '%s'\n",
                 addr.c_str());
    return -1;
  }
  if (fd < 0) {
    std::fprintf(stderr, "lolserve: cannot connect to %s: %s\n", addr.c_str(),
                 std::strerror(errno));
  }
  return fd;
}

bool client_send(int fd, const std::string& line) {
  if (lol::service::wire::send_all(fd, line + "\n")) return true;
  std::fprintf(stderr, "lolserve: daemon connection lost mid-send\n");
  return false;
}

/// Reads one member of an already-parsed event object as text (events
/// are parsed once per line, then queried per field).
std::string event_field(const lol::service::wire::Json& doc,
                        const char* key) {
  const auto* v = doc.find(key);
  if (v == nullptr) return "";
  if (v->is(lol::service::wire::Json::Kind::kString)) return v->str;
  if (v->is(lol::service::wire::Json::Kind::kNumber)) {
    return std::to_string(static_cast<long long>(v->num));
  }
  if (v->is(lol::service::wire::Json::Kind::kBool)) {
    return v->b ? "true" : "false";
  }
  return "";
}

/// What a --client invocation asks of the daemon.
struct ClientAction {
  enum Kind {
    kSubmit,
    kCancel,
    kStats,
    kMetrics,
    kPing,
    kShutdown
  } kind = kSubmit;
  lol::service::JobId cancel_id = 0;
  /// kSubmit only: cancel whatever is still running this long after
  /// submission (same-connection cancel — the scope the daemon allows).
  std::uint64_t cancel_after_ms = 0;
  /// kSubmit only: save the "sched_trace" from each done event here
  /// (recorded/perturbed jobs; the last job's trace wins).
  std::string record_path;
};

/// --client: build requests with the wire serializers, stream every
/// event line to stdout (scripts parse the NDJSON), and for submissions
/// wait until each job's "done" event has arrived. Exit 0 iff every
/// submitted job reported status "ok" (with --cancel-after-ms,
/// "cancelled" counts as expected too) or the one-shot request
/// succeeded — a refused cancel exits 1.
int run_client(const std::string& addr, const ClientAction& action,
               const std::vector<lol::service::Job>& jobs) {
  int fd = client_connect(addr);
  if (fd < 0) return 1;
  lol::service::wire::LineReader reader(fd);
  std::mutex send_m;  // the cancel timer writes concurrently
  int rc = 0;

  auto send_line = [&](const std::string& line) {
    std::lock_guard<std::mutex> g(send_m);
    return client_send(fd, line);
  };
  auto one_shot = [&](const std::string& request)
      -> std::optional<lol::service::wire::Json> {
    if (!send_line(request)) return std::nullopt;
    auto line = reader.next();
    if (!line) {
      std::fprintf(stderr, "lolserve: daemon closed the connection\n");
      return std::nullopt;
    }
    std::printf("%s\n", line->c_str());
    return lol::service::wire::parse_json(*line);
  };
  auto expect_event = [&](const std::optional<lol::service::wire::Json>& doc,
                          const char* want) {
    return doc && event_field(*doc, "event") == want ? 0 : 1;
  };

  if (action.kind == ClientAction::kPing) {
    rc = expect_event(one_shot("{\"op\":\"ping\"}"), "pong");
  } else if (action.kind == ClientAction::kStats) {
    rc = expect_event(one_shot("{\"op\":\"stats\"}"), "stats");
  } else if (action.kind == ClientAction::kMetrics) {
    // Unlike the other one-shots this prints the *decoded* exposition,
    // not the NDJSON envelope, so the output pipes straight into any
    // Prometheus-text consumer.
    if (!send_line("{\"op\":\"metrics\"}")) {
      ::close(fd);
      return 1;
    }
    auto line = reader.next();
    if (!line) {
      std::fprintf(stderr, "lolserve: daemon closed the connection\n");
      rc = 1;
    } else {
      auto doc = lol::service::wire::parse_json(*line);
      const lol::service::wire::Json* text =
          doc && event_field(*doc, "event") == "metrics" ? doc->find("text")
                                                         : nullptr;
      if (text != nullptr &&
          text->is(lol::service::wire::Json::Kind::kString)) {
        std::fputs(text->str.c_str(), stdout);
      } else {
        std::printf("%s\n", line->c_str());  // surface the error event
        rc = 1;
      }
    }
  } else if (action.kind == ClientAction::kShutdown) {
    rc = expect_event(one_shot("{\"op\":\"shutdown\"}"), "bye");
  } else if (action.kind == ClientAction::kCancel) {
    // Note the daemon scopes cancellation to ids submitted on the same
    // connection (so clients cannot kill other tenants' jobs by walking
    // the sequential id space); a standalone --cancel can therefore only
    // be refused, and the refusal is reported in the exit code. Use
    // --cancel-after-ms with a submission for a cancel the daemon will
    // honor.
    auto doc =
        one_shot(lol::service::wire::cancel_request_line(action.cancel_id));
    rc = expect_event(doc, "cancel") == 0 &&
                 event_field(*doc, "ok") == "true"
             ? 0
             : 1;
  } else if (!jobs.empty()) {
    for (const auto& job : jobs) {
      if (!send_line(lol::service::wire::submit_line(job))) {
        ::close(fd);
        return 1;
      }
    }

    // Live ids for the cancel timer: accepted but not yet done.
    std::mutex live_m;
    std::vector<lol::service::JobId> live;
    std::thread canceller;
    std::atomic<bool> canceller_stop{false};
    std::mutex canceller_m;
    std::condition_variable canceller_cv;
    if (action.cancel_after_ms > 0) {
      canceller = std::thread([&] {
        {
          std::unique_lock<std::mutex> g(canceller_m);
          canceller_cv.wait_for(
              g, std::chrono::milliseconds(action.cancel_after_ms),
              [&] { return canceller_stop.load(); });
        }
        if (canceller_stop.load()) return;
        std::vector<lol::service::JobId> snapshot;
        {
          std::lock_guard<std::mutex> g(live_m);
          snapshot = live;
        }
        for (auto id : snapshot) {
          send_line(lol::service::wire::cancel_request_line(id));
        }
      });
    }

    // Events stream back as jobs finish: count "done"s, surface
    // everything, and fold unexpected statuses into the exit code.
    std::size_t done = 0;
    while (done < jobs.size()) {
      auto line = reader.next();
      if (!line) {
        std::fprintf(stderr,
                     "lolserve: daemon closed with %zu of %zu jobs pending\n",
                     jobs.size() - done, jobs.size());
        rc = 1;
        break;
      }
      std::printf("%s\n", line->c_str());
      std::fflush(stdout);
      auto doc = lol::service::wire::parse_json(*line);
      if (!doc) continue;  // not an event line; surfaced above regardless
      std::string event = event_field(*doc, "event");
      if (event == "error") rc = 1;
      if (event == "accepted") {
        std::lock_guard<std::mutex> g(live_m);
        live.push_back(static_cast<lol::service::JobId>(
            std::strtoull(event_field(*doc, "id").c_str(), nullptr, 10)));
      }
      if (event != "done") continue;
      ++done;
      {
        std::lock_guard<std::mutex> g(live_m);
        auto id = static_cast<lol::service::JobId>(
            std::strtoull(event_field(*doc, "id").c_str(), nullptr, 10));
        live.erase(std::remove(live.begin(), live.end(), id), live.end());
      }
      if (!action.record_path.empty()) {
        const lol::service::wire::Json* trace = doc->find("sched_trace");
        if (trace != nullptr &&
            trace->is(lol::service::wire::Json::Kind::kString) &&
            !lol::driver::write_file(action.record_path, trace->str)) {
          std::fprintf(stderr, "lolserve: cannot write trace to '%s'\n",
                       action.record_path.c_str());
          rc = 1;
        }
      }
      std::string status = event_field(*doc, "status");
      bool expected = status == "ok" || (action.cancel_after_ms > 0 &&
                                         status == "cancelled");
      if (!expected) rc = 1;
    }
    if (canceller.joinable()) {
      canceller_stop.store(true);
      canceller_cv.notify_all();
      canceller.join();
    }
  } else {
    std::fprintf(stderr,
                 "lolserve: --client wants jobs to submit or one of "
                 "--cancel/--stats/--ping/--shutdown\n");
    rc = 2;
  }
  ::close(fd);
  return rc;
}

#endif  // !_WIN32

int run_daemon(lol::service::ServiceOptions opts, const std::string& listen,
               int metrics_interval_s, const std::string& metrics_out) {
  lol::service::DaemonOptions dopts;
  if (listen.rfind("unix:", 0) == 0) {
    dopts.unix_path = listen.substr(5);
  } else if (listen.rfind("tcp:", 0) == 0) {
    auto port =
        lol::driver::parse_int(std::string_view(listen).substr(4), 0, 65535);
    if (!port) {
      std::fprintf(stderr, "lolserve: bad port in --listen '%s'\n",
                   listen.c_str());
      return 2;
    }
    dopts.tcp_port = static_cast<int>(*port);
  } else {
    std::fprintf(stderr,
                 "lolserve: --listen wants unix:PATH or tcp:PORT, got '%s'\n",
                 listen.c_str());
    return 2;
  }

  lol::service::Service svc(opts);
  lol::service::Daemon daemon(svc, dopts);
  std::string err;
  if (!daemon.start(&err)) {
    std::fprintf(stderr, "lolserve: cannot listen: %s\n", err.c_str());
    return 1;
  }
  if (!daemon.unix_path().empty()) {
    std::fprintf(stderr, "lolserve: listening on unix:%s\n",
                 daemon.unix_path().c_str());
  } else {
    std::fprintf(stderr, "lolserve: listening on tcp:127.0.0.1:%d\n",
                 daemon.tcp_port());
  }
  // Periodic metrics snapshots: one appended Prometheus exposition per
  // interval, for fleets that collect files instead of scraping sockets.
  std::thread metrics_thread;
  std::mutex metrics_m;
  std::condition_variable metrics_cv;
  bool metrics_stop = false;
  if (metrics_interval_s > 0) {
    metrics_thread = std::thread([&] {
      for (;;) {
        {
          std::unique_lock<std::mutex> g(metrics_m);
          if (metrics_cv.wait_for(g,
                                  std::chrono::seconds(metrics_interval_s),
                                  [&] { return metrics_stop; })) {
            return;
          }
        }
        std::string text = lol::obs::Registry::global().expose();
        std::FILE* f = metrics_out.empty()
                           ? stderr
                           : std::fopen(metrics_out.c_str(), "a");
        if (f == nullptr) continue;  // transient; retry next interval
        std::fwrite(text.data(), 1, text.size(), f);
        if (f == stderr) {
          std::fflush(f);
        } else {
          std::fclose(f);
        }
      }
    });
  }
  daemon.wait();  // until a client sends {"op":"shutdown"}
  if (metrics_thread.joinable()) {
    {
      std::lock_guard<std::mutex> g(metrics_m);
      metrics_stop = true;
    }
    metrics_cv.notify_all();
    metrics_thread.join();
  }
  daemon.stop();
  svc.shutdown();
  auto stats = svc.stats();
  std::fprintf(stderr,
               "lolserve: daemon served %llu jobs (%llu ok, %llu "
               "deadline-exceeded, %llu cancelled)\n",
               static_cast<unsigned long long>(stats.submitted),
               static_cast<unsigned long long>(stats.ok),
               static_cast<unsigned long long>(stats.deadline_exceeded),
               static_cast<unsigned long long>(stats.cancelled));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  lol::driver::Cli cli(argc, argv);

  lol::service::ServiceOptions opts;
  opts.workers = static_cast<int>(
      cli.int_option("--workers", 1, kMaxInt).value_or(4));
  opts.queue_capacity = static_cast<std::size_t>(
      cli.uint_option("--queue").value_or(256));
  if (auto policy = cli.option("--policy")) {
    if (*policy == "reject") {
      opts.queue_full = lol::service::QueueFullPolicy::kReject;
    } else if (*policy != "block") {
      std::fprintf(stderr, "lolserve: unknown policy '%s'\n",
                   policy->c_str());
      return 2;
    }
  }
  opts.default_max_steps =
      cli.uint_option("--max-steps").value_or(opts.default_max_steps);
  opts.default_deadline_ms =
      cli.uint_option("--deadline-ms").value_or(opts.default_deadline_ms);
  if (auto weights = cli.option("--tenant-weights")) {
    if (!parse_tenant_weights(*weights, opts.tenant_weights)) {
      std::fprintf(stderr,
                   "lolserve: --tenant-weights wants name=N[,name=N...] "
                   "with N >= 1\n");
      return 2;
    }
  }
  opts.max_pes = static_cast<int>(
      cli.int_option("--max-pes", 1, lol::shmem::kMaxPes)
          .value_or(opts.max_pes));
  opts.max_queued_per_tenant = static_cast<std::size_t>(
      cli.uint_option("--max-queued-per-tenant")
          .value_or(opts.max_queued_per_tenant));
  opts.tuner_cache_path = cli.option("--tuner-cache").value_or("");
  const int opt_level =
      static_cast<int>(cli.int_option("--opt-level", 0, 2).value_or(2));

  if (cli.has_flag("--daemon")) {
    std::string listen = cli.option("--listen").value_or("tcp:4004");
    const int metrics_interval = static_cast<int>(
        cli.int_option("--metrics-interval", 0, kMaxInt).value_or(0));
    std::string metrics_out = cli.option("--metrics-out").value_or("");
    return run_daemon(std::move(opts), listen, metrics_interval,
                      metrics_out);
  }

  bool client = cli.has_flag("--client");
#if defined(_WIN32)
  if (client) {
    std::fprintf(stderr, "lolserve: --client needs POSIX sockets\n");
    return 2;
  }
#else
  // Flags are consumed on first query, so resolve the whole client
  // action here; one-shot requests carry no job files and short-circuit
  // before the batch path demands positional arguments.
  ClientAction client_action;
  std::string connect_addr;
  if (client) {
    connect_addr = cli.option("--connect").value_or("tcp:4004");
    if (cli.has_flag("--ping")) {
      client_action.kind = ClientAction::kPing;
    } else if (cli.has_flag("--stats")) {
      client_action.kind = ClientAction::kStats;
    } else if (cli.has_flag("--metrics")) {
      client_action.kind = ClientAction::kMetrics;
    } else if (cli.has_flag("--shutdown")) {
      client_action.kind = ClientAction::kShutdown;
    } else if (auto id = cli.uint_option("--cancel")) {
      client_action.kind = ClientAction::kCancel;
      client_action.cancel_id = *id;
    } else if (auto after = cli.uint_option("--cancel-after-ms")) {
      client_action.cancel_after_ms = *after;
    }
    if (client_action.kind != ClientAction::kSubmit) {
      return run_client(connect_addr, client_action, {});
    }
  }
#endif

  const int default_pes = static_cast<int>(
      cli.int_option("-np", 1, lol::shmem::kMaxPes, "--np").value_or(1));
  std::string default_tenant = cli.option("--tenant").value_or("");
  lol::Backend backend = lol::Backend::kVm;
  if (auto name = cli.option("--backend")) {
    if (auto b = lol::backend_from_name(*name)) {
      backend = *b;
    } else {
      std::fprintf(stderr, "lolserve: unknown backend '%s'\n", name->c_str());
      return 2;
    }
  }
  lol::shmem::ExecutorKind executor = lol::shmem::ExecutorKind::kPool;
  if (auto name = cli.option("--executor")) {
    if (auto e = lol::shmem::executor_from_name(*name)) {
      executor = *e;
    } else {
      std::fprintf(stderr, "lolserve: unknown executor '%s'\n", name->c_str());
      return 2;
    }
  }
  const int pes_per_thread = static_cast<int>(
      cli.int_option("--pes-per-thread", 0, lol::shmem::kMaxPes).value_or(0));
  const int barrier_radix = static_cast<int>(
      cli.int_option("--barrier-radix", 0, lol::shmem::kMaxPes).value_or(0));
  const int repeat =
      static_cast<int>(cli.int_option("--repeat", 0, kMaxInt).value_or(1));
  bool quiet = cli.has_flag("--quiet");
  bool shuffle = cli.has_flag("--shuffle");
  const std::uint64_t shuffle_seed =
      cli.uint_option("--shuffle-seed").value_or(20170529);

  // Record/replay + fault injection, applied to every job in the batch.
  std::string record_path = cli.option("--record").value_or("");
  auto schedule = lol::replay::ScheduleMode::kNone;
  std::uint64_t perturb_seed = 0;
  std::string replay_trace_text;
  if (auto seed = cli.uint_option("--perturb-seed")) {
    schedule = lol::replay::ScheduleMode::kPerturb;
    perturb_seed = *seed;
  } else if (!record_path.empty()) {
    schedule = lol::replay::ScheduleMode::kRecord;
  }
  if (auto replay_path = cli.option("--replay")) {
    // Same rules and messages as lolrun: a replay is one fixed schedule,
    // and a bad trace is a usage error reported once, not once per job.
    if (schedule != lol::replay::ScheduleMode::kNone) {
      std::fprintf(stderr,
                   "lolserve: --replay excludes --record/--perturb-seed\n");
      return 2;
    }
    auto text = lol::driver::read_file(*replay_path);
    if (!text) {
      std::fprintf(stderr, "lolserve: cannot read trace '%s'\n",
                   replay_path->c_str());
      return 2;
    }
    std::string terr;
    if (!lol::replay::Trace::parse(*text, &terr)) {
      std::fprintf(stderr, "lolserve: bad trace '%s': %s\n",
                   replay_path->c_str(), terr.c_str());
      return 2;
    }
    schedule = lol::replay::ScheduleMode::kReplay;
    replay_trace_text = std::move(*text);
  }
  std::string fault_spec = cli.option("--fault").value_or("");
  if (!fault_spec.empty()) {
    std::string ferr;
    if (!lol::replay::parse_fault_spec(fault_spec, nullptr, &ferr)) {
      std::fprintf(stderr, "lolserve: %s\n", ferr.c_str());
      return 2;
    }
  }

  std::vector<JobSpec> specs;
  if (auto manifest = cli.option("--manifest")) {
    if (int rc = read_manifest(*manifest, specs); rc != 0) return rc;
  }
  for (const auto& arg : cli.positional()) {
    if (!expand_path(arg, specs)) return 1;
  }
  if (specs.empty() || default_pes < 1 || repeat < 1) {
    return usage(argv[0]);
  }

  // Read every source once up front so IO errors surface before launch.
  std::vector<lol::service::Job> jobs;
  for (const auto& spec : specs) {
    auto source = lol::driver::read_file(spec.path);
    if (!source) {
      std::fprintf(stderr, "lolserve: cannot read '%s'\n", spec.path.c_str());
      return 1;
    }
    lol::service::Job job;
    job.name = spec.path;
    job.source = std::move(*source);
    job.n_pes = spec.n_pes > 0 ? spec.n_pes : default_pes;
    job.max_steps = spec.max_steps;
    job.tenant = spec.tenant.empty() ? default_tenant : spec.tenant;
    job.deadline_ms = spec.deadline_ms;
    job.backend = backend;
    job.executor = executor;
    job.pes_per_thread = pes_per_thread;
    job.barrier_radix = barrier_radix;
    job.schedule = schedule;
    job.perturb_seed = perturb_seed;
    job.replay_trace = replay_trace_text;
    job.fault_spec = fault_spec;
    job.opt_level = opt_level;
    jobs.push_back(std::move(job));
  }

#if !defined(_WIN32)
  if (client) {
    client_action.record_path = record_path;
    return run_client(connect_addr, client_action, jobs);
  }
#endif

  lol::service::Service svc(opts);
  auto t0 = std::chrono::steady_clock::now();

  // Stream each status line the moment the job completes (a failing or
  // slow job no longer holds back the report of everything after it).
  std::mutex print_m;
  auto print_result = [&](const lol::service::JobResult& r) {
    if (quiet) return;
    // Lifecycle spans inline on the status line: where each job's time
    // actually went (queue vs compile vs setup vs claim vs run vs drain).
    std::string trace;
    for (const auto& sp : r.trace) {
      char buf[80];
      std::snprintf(buf, sizeof buf, "%s%s %.2f",
                    trace.empty() ? "" : " > ", sp.name.c_str(), sp.dur_ms);
      trace += buf;
    }
    std::string tuned = r.tuned.empty() ? "" : " [tuned " + r.tuned + "]";
    std::lock_guard<std::mutex> g(print_m);
    std::printf("[%s] %s%s%s (queue %.2f ms, run %.2f ms) [trace: %s]%s%s\n",
                lol::service::to_string(r.status), r.name.c_str(),
                r.compile_cache_hit ? " [cached]" : "", tuned.c_str(),
                r.queue_ms, r.run_ms, trace.c_str(),
                r.error.empty() ? "" : " — ", r.error.c_str());
    std::fflush(stdout);
  };

  // Build the submission order up front so --shuffle can permute it with
  // a seeded RNG: fairness experiments (DRR vs arrival order) need
  // reproducible interleavings, not wall-clock noise.
  std::vector<const lol::service::Job*> order;
  order.reserve(jobs.size() * static_cast<std::size_t>(repeat));
  for (int r = 0; r < repeat; ++r) {
    for (const auto& job : jobs) order.push_back(&job);
  }
  if (shuffle) {
    std::mt19937_64 rng(shuffle_seed);
    std::shuffle(order.begin(), order.end(), rng);
  }

  std::vector<std::future<lol::service::JobResult>> futures;
  futures.reserve(order.size());
  for (const auto* job : order) {
    futures.push_back(svc.submit_job(*job, print_result).result);
  }

  int failed = 0;
  for (auto& fut : futures) {
    lol::service::JobResult r = fut.get();
    if (!r.ok()) ++failed;
    if (!record_path.empty() && !r.schedule_trace.empty() &&
        !lol::driver::write_file(record_path, r.schedule_trace)) {
      std::fprintf(stderr, "lolserve: cannot write trace to '%s'\n",
                   record_path.c_str());
      ++failed;
    }
  }

  double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  svc.shutdown();
  auto stats = svc.stats();
  std::printf(
      "lolserve: %llu jobs (%llu ok, %llu compile-error, %llu "
      "runtime-error, %llu step-limit, %llu deadline-exceeded, %llu "
      "cancelled, %llu rejected, %llu quota-exceeded) on %d workers in "
      "%.3f s — %.1f jobs/s\n",
      static_cast<unsigned long long>(stats.submitted),
      static_cast<unsigned long long>(stats.ok),
      static_cast<unsigned long long>(stats.compile_errors),
      static_cast<unsigned long long>(stats.runtime_errors),
      static_cast<unsigned long long>(stats.step_limited),
      static_cast<unsigned long long>(stats.deadline_exceeded),
      static_cast<unsigned long long>(stats.cancelled),
      static_cast<unsigned long long>(stats.rejected),
      static_cast<unsigned long long>(stats.quota_rejected), opts.workers,
      wall_s, wall_s > 0 ? static_cast<double>(futures.size()) / wall_s : 0.0);
  std::printf(
      "lolserve: compile cache %llu hits / %llu misses (%.1f%% hit rate), "
      "%llu evictions\n",
      static_cast<unsigned long long>(stats.cache.hits),
      static_cast<unsigned long long>(stats.cache.misses),
      100.0 * stats.cache.hit_rate(),
      static_cast<unsigned long long>(stats.cache.evictions));
  return failed == 0 ? 0 : 1;
}
