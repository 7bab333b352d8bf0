// e2e_bench — the workload runner of the end-to-end benchmark. run.py
// builds it beside lolrun/lolserve and calls one subcommand per run; a
// workload subcommand prints one JSON line of raw samples (per-op
// latencies, failures, set-up times, peak RSS and, with --trace 1, the
// per-op layer spans) that run.py reduces to the named metrics.
//
//   e2e_bench oneshot   --bin D --work D --expected D --seed S --seconds T --trace 0|1
//   e2e_bench nbody     --expected D --seed S --seconds T --trace 0|1
//   e2e_bench classroom --bin D --work D --expected D --seed S --seconds T --trace 0|1
//   e2e_bench nbody-setup             one untraced n-body set-up, fresh process
//   e2e_bench child FILE N_PES        one traced cold run (oneshot, --trace 1)
//   e2e_bench plan WORKLOAD SEED N    the first N ops of a seeded op sequence
//   e2e_bench reference DIR           regenerate the expected-output files
//   e2e_bench build-info              build type, compiler, optimization
//
// Layer spans are timed from outside, around calls into each module's
// public functions, so the program under test is unmodified.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "codegen/jit_backend.hpp"
#include "codegen/native_backend.hpp"
#include "core/engine.hpp"
#include "core/paper_programs.hpp"
#include "lex/lexer.hpp"
#include "opt/opt.hpp"
#include "parse/parser.hpp"
#include "rt/exec_context.hpp"
#include "rt/io.hpp"
#include "sema/analyzer.hpp"
#include "service/wire.hpp"
#include "shmem/runtime.hpp"
#include "vm/compiler.hpp"
#include "vm/vm.hpp"

extern char** environ;

namespace {

namespace wire = lol::service::wire;

// Workload shape. Changing any of these changes the benchmark.
// Every workload runs 2 PEs, not the paper's 4: on a 4-CPU host, 4 PE
// threads plus the launcher, the benchmark and the daemon's own threads
// outnumber the CPUs, and a run then measures the host's scheduler and
// its other tenants more than the program: at 4 PEs an n-body op took
// twice as long as at 2, and beside two CPU-bound processes the spread
// of oneshot_cli's p90 across runs was 11.1% against 2.3% at 2 PEs.
constexpr int kOneshotPes = 2;       // lolrun -np 2
constexpr int kNbodyPes = 2;
constexpr int kNbodyParticles = 32;  // the paper's own §VI.D size
constexpr int kNbodySteps = 10;
// The classroom shape is assumed, not taken from recorded submissions
// (the repository holds none). Its mix (see Planner) is repeat-heavy on
// purpose, about 75% compile-cache hits: the all-cold path, where every
// submission compiles, is what oneshot_cli measures, so this workload
// measures the service's cached path, and its 25% misses keep compile
// visible. n_pes 2 fits (nproc - 1) / 2 workers below nproc; a window of
// 4 keeps jobs queued behind the running ones, so queueing shows.
constexpr int kClassPes = 2;         // workers x n_pes stays below nproc
constexpr int kClassWindow = 4;      // jobs outstanding on the connection
constexpr std::uint64_t kRunawaySteps = 20000;
constexpr int kSetupReps = 21;       // set-ups per run; run.py reports the median
constexpr int kClassBlock = 20;      // classroom mix repeats every 20 ops

// The oneshot and classroom corpus: examples/lol plus the §VI.A-C
// listings, in a fixed list so programs added to examples/ later do not
// change the workload.
const std::vector<std::string>& corpus_names() {
  static const std::vector<std::string> names = {
      "quickstart", "hello_team",   "heat_1d",    "pi_monte_carlo",
      "ring",       "lock_counter", "barrier_sum"};
  return names;
}

std::string nbody_name() {
  return "nbody_" + std::to_string(kNbodyParticles) + "x" +
         std::to_string(kNbodySteps);
}

// ---------------------------------------------------------------------------
// Small utilities
// ---------------------------------------------------------------------------

using Clock = std::chrono::steady_clock;

// steady_clock is CLOCK_MONOTONIC on Linux: one timeline for every
// process on the host, so a child's timestamps compare with the parent's.
std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double ms_between(std::int64_t a_ns, std::int64_t b_ns) {
  return static_cast<double>(b_ns - a_ns) / 1e6;
}

/// Thrown by die(); main() reports it after unwinding has stopped every
/// process this run started.
struct Fatal : std::runtime_error {
  using std::runtime_error::runtime_error;
};

[[noreturn]] void die(const std::string& msg) { throw Fatal(msg); }

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  if (!out) die("cannot write " + path);
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

std::string json_nums(const std::vector<double>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) s += ',';
    s += num(v[i]);
  }
  return s + "]";
}

std::string json_obj(const std::map<std::string, double>& m) {
  std::string s = "{";
  bool first = true;
  for (const auto& [k, v] : m) {
    if (!first) s += ',';
    first = false;
    s += wire::quote(k) + ":" + num(v);
  }
  return s + "}";
}

std::string json_strs(const std::vector<std::string>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) s += ',';
    s += wire::quote(v[i]);
  }
  return s + "]";
}

// SplitMix64: a fixed, portable generator, so one seed gives the same
// op sequence with every standard library.
struct Rng {
  std::uint64_t s;
  std::uint64_t next() {
    std::uint64_t z = (s += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[below(i)]);
  }
};

struct Args {
  std::map<std::string, std::string> kv;
  std::vector<std::string> pos;
  Args(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string a = argv[i];
      if (a.rfind("--", 0) == 0 && i + 1 < argc) {
        kv[a.substr(2)] = argv[++i];
      } else {
        pos.push_back(a);
      }
    }
  }
  [[nodiscard]] std::string get(const std::string& k) const {
    auto it = kv.find(k);
    if (it == kv.end()) die("missing --" + k);
    return it->second;
  }
  [[nodiscard]] std::uint64_t u64(const std::string& k) const {
    std::string v = get(k);
    char* end = nullptr;
    unsigned long long x = std::strtoull(v.c_str(), &end, 10);
    if (v.empty() || *end != '\0') die("bad --" + k + " '" + v + "'");
    return x;
  }
  [[nodiscard]] double seconds() const {
    std::string v = get("seconds");
    char* end = nullptr;
    double x = std::strtod(v.c_str(), &end);
    if (v.empty() || *end != '\0' || !(x > 0.0 && x < 3600.0)) {
      die("bad --seconds '" + v + "'");
    }
    return x;
  }
};

// ---------------------------------------------------------------------------
// Corpus, op plans and expected outputs
// ---------------------------------------------------------------------------

/// Source of a corpus program, read once (the classroom client builds
/// thousands of jobs from these).
const std::string& corpus_source(const std::string& name) {
  static std::map<std::string, std::string> cache;
  auto it = cache.find(name);
  if (it != cache.end()) return it->second;
  std::string text;
  if (name == "ring") {
    text = lol::paper::ring_listing();
  } else if (name == "lock_counter") {
    text = lol::paper::lock_counter_listing();
  } else if (name == "barrier_sum") {
    text = lol::paper::barrier_sum_listing();
  } else {
    const std::string path = "examples/lol/" + name + ".lol";
    auto file = read_file(path);
    if (!file) die("cannot read " + path + " (run from the repository root)");
    text = std::move(*file);
  }
  return cache.emplace(name, std::move(text)).first->second;
}

std::string nbody_source() {
  return lol::paper::nbody_program(kNbodyParticles, kNbodySteps, true);
}

/// One operation of a workload. `kind` is "run" (oneshot, nbody),
/// "repeat", "variant", "compile_error" or "runaway" (classroom).
struct Op {
  std::string kind;
  std::string prog;      // corpus program (or the n-body) it is based on
  std::uint64_t tag = 0; // makes variant/error sources distinct
};

/// Op `index` of the seeded sequence. Every block of ops holds a fixed
/// mix (each corpus program once for oneshot; 14 repeats, 3 variants,
/// 2 compile errors and 1 runaway per 20 classroom ops), shuffled by the
/// seed, so the shares are exact and only the order depends on the seed.
class Planner {
 public:
  Planner(std::string workload, std::uint64_t seed)
      : workload_(std::move(workload)), seed_(seed) {
    if (workload_ != "oneshot_cli" && workload_ != "nbody_jit" &&
        workload_ != "classroom_service") {
      die("unknown workload '" + workload_ + "'");
    }
  }

  Op at(std::size_t index) {
    if (workload_ == "nbody_jit") return {"run", nbody_name(), 0};
    const std::size_t bsize =
        workload_ == "oneshot_cli" ? corpus_names().size() : kClassBlock;
    const std::size_t b = index / bsize;
    if (b != block_no_ || block_.empty()) fill_block(b);
    return block_[index % bsize];
  }

 private:
  void fill_block(std::size_t b) {
    Rng rng{seed_ * 0x100000001b3ULL ^ (b + 1) * 0x9e3779b97f4a7c15ULL};
    block_.clear();
    const auto& names = corpus_names();
    if (workload_ == "oneshot_cli") {
      for (const auto& n : names) block_.push_back({"run", n, 0});
    } else {
      const std::uint64_t base = b * kClassBlock;
      for (int rep = 0; rep < 2; ++rep) {
        for (const auto& n : names) block_.push_back({"repeat", n, 0});
      }
      for (int i = 0; i < 3; ++i) {
        block_.push_back({"variant", names[rng.below(names.size())], base + i});
      }
      for (int i = 0; i < 2; ++i) {
        block_.push_back(
            {"compile_error", names[rng.below(names.size())], base + 3 + i});
      }
      block_.push_back({"runaway", "spin", 0});
    }
    rng.shuffle(block_);
    block_no_ = b;
  }

  std::string workload_;
  std::uint64_t seed_;
  std::size_t block_no_ = 0;
  std::vector<Op> block_;
};

std::string insert_after_first_line(const std::string& src,
                                    const std::string& line) {
  const std::size_t nl = src.find('\n');
  if (nl == std::string::npos) die("corpus program has no HAI line");
  return src.substr(0, nl + 1) + line + "\n" + src.substr(nl + 1);
}

/// The LOLCODE a classroom op submits.
std::string classroom_source(const Op& op, std::uint64_t seed) {
  const std::string student =
      "BTW student " + std::to_string(seed) + "-" + std::to_string(op.tag);
  if (op.kind == "repeat") return corpus_source(op.prog);
  if (op.kind == "variant") {
    return insert_after_first_line(corpus_source(op.prog), student);
  }
  if (op.kind == "compile_error") {
    // Alternate a lex error (unterminated YARN) and a parse error
    // (operator missing its second operand).
    const char* bad = op.tag % 2 == 0 ? "VISIBLE \"oh noes" : "VISIBLE SUM OF 1 AN";
    return insert_after_first_line(corpus_source(op.prog),
                                   student + "\n" + bad);
  }
  return "HAI 1.2\nBTW runaway loop\nIM IN YR spin\nIM OUTTA YR spin\nKTHXBYE\n";
}

const char* expected_status(const Op& op) {
  if (op.kind == "compile_error") return "compile-error";
  if (op.kind == "runaway") return "step-limit";
  return "ok";
}

using PeOut = std::vector<std::string>;

std::string expected_path(const std::string& dir, const std::string& name,
                          int n_pes) {
  return dir + "/" + name + ".np" + std::to_string(n_pes) + ".out";
}

/// Tagged form of per-PE stdout, as `lolrun --tag` prints it: each line
/// prefixed "[peN] ", grouped in PE order.
std::string tag_output(const PeOut& out) {
  std::string s;
  for (std::size_t pe = 0; pe < out.size(); ++pe) {
    std::size_t pos = 0;
    while (pos < out[pe].size()) {
      std::size_t nl = out[pe].find('\n', pos);
      if (nl == std::string::npos) die("PE output does not end in a newline");
      s += "[pe" + std::to_string(pe) + "] " + out[pe].substr(pos, nl + 1 - pos);
      pos = nl + 1;
    }
  }
  return s;
}

/// Inverse of tag_output; also splits interleaved `lolrun --tag` stdout.
/// nullopt when a line is not tagged with a PE below n_pes.
std::optional<PeOut> untag_output(const std::string& text, int n_pes) {
  PeOut out(static_cast<std::size_t>(n_pes));
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) return std::nullopt;
    const std::string line = text.substr(pos, nl - pos);
    pos = nl + 1;
    if (line.rfind("[pe", 0) != 0) return std::nullopt;
    const std::size_t close = line.find("] ");
    if (close == std::string::npos || close <= 3) return std::nullopt;
    int pe = 0;
    for (std::size_t i = 3; i < close; ++i) {
      if (line[i] < '0' || line[i] > '9') return std::nullopt;
      pe = pe * 10 + (line[i] - '0');
      if (pe >= n_pes) return std::nullopt;
    }
    out[static_cast<std::size_t>(pe)] += line.substr(close + 2) + "\n";
  }
  return out;
}

PeOut load_expected(const std::string& dir, const std::string& name,
                    int n_pes) {
  const std::string path = expected_path(dir, name, n_pes);
  auto text = read_file(path);
  if (!text) die("missing expected output " + path);
  auto out = untag_output(*text, n_pes);
  if (!out) die("malformed expected output " + path);
  return *out;
}

/// The strings of a JSON array (per-PE outputs in events and replies).
PeOut json_strings(const wire::Json* arr) {
  PeOut v;
  for (const auto& s : arr->arr) v.push_back(s.str);
  return v;
}

bool all_empty(const std::vector<std::string>& v) {
  return std::all_of(v.begin(), v.end(),
                     [](const std::string& s) { return s.empty(); });
}

// ---------------------------------------------------------------------------
// Child processes
// ---------------------------------------------------------------------------

struct Fd {
  int fd = -1;
  Fd() = default;
  explicit Fd(int f) : fd(f) {}
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  ~Fd() { reset(); }
  void reset() {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
};

/// Starts argv with the given stdin/stdout/stderr (in_fd -1: /dev/null).
pid_t spawn(const std::vector<std::string>& argv, int in_fd, int out_fd,
            int err_fd) {
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  if (in_fd < 0) {
    posix_spawn_file_actions_addopen(&fa, 0, "/dev/null", O_RDONLY, 0);
  } else {
    posix_spawn_file_actions_adddup2(&fa, in_fd, 0);
  }
  posix_spawn_file_actions_adddup2(&fa, out_fd, 1);
  posix_spawn_file_actions_adddup2(&fa, err_fd, 2);
  std::vector<char*> cargv;
  for (const auto& a : argv) cargv.push_back(const_cast<char*>(a.c_str()));
  cargv.push_back(nullptr);
  pid_t pid = -1;
  int rc = posix_spawn(&pid, cargv[0], &fa, nullptr, cargv.data(), environ);
  posix_spawn_file_actions_destroy(&fa);
  if (rc != 0) die("cannot spawn " + argv[0] + ": " + std::strerror(rc));
  return pid;
}

std::string self_dir() {
  std::string exe(4096, '\0');
  ssize_t n = ::readlink("/proc/self/exe", exe.data(), exe.size() - 1);
  if (n <= 0) die("readlink /proc/self/exe failed");
  exe.resize(static_cast<std::size_t>(n));
  return exe.substr(0, exe.rfind('/'));
}

/// Peak resident size of a live process (its address space's
/// high-water mark, which unlike ru_maxrss owes nothing to its parent).
double vm_hwm_mb(const std::string& pid) {
  auto status = read_file("/proc/" + pid + "/status");
  const std::size_t at = status ? status->find("VmHWM:") : std::string::npos;
  if (at == std::string::npos) die("no VmHWM for process " + pid);
  return std::strtod(status->c_str() + at + 6, nullptr) / 1024.0;
}

struct ProcResult {
  int status = -1;
  double maxrss_mb = 0.0;
  std::string out, err;
  std::int64_t spawn_ns = 0;
  std::int64_t end_ns = 0;  // after wait4 returned
  [[nodiscard]] bool exited_zero() const {
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }
};

/// Runs processes to completion through e2e_launcher (see launcher.c
/// for why), which reports each one's wait status, rusage peak RSS,
/// spawn/exit times and captured output.
class Launcher {
 public:
  Launcher() {
    int sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv) != 0) {
      die("socketpair failed");
    }
    Fd theirs(sv[1]);
    conn_.fd = sv[0];
    pid_ = spawn({self_dir() + "/e2e_launcher"}, theirs.fd, theirs.fd, 2);
    reader_ = std::make_unique<wire::LineReader>(conn_.fd);
  }
  Launcher(const Launcher&) = delete;
  Launcher& operator=(const Launcher&) = delete;
  ~Launcher() {
    conn_.reset();  // EOF on its stdin: the launcher exits
    int st = 0;
    ::waitpid(pid_, &st, 0);
  }

  ProcResult run(const std::vector<std::string>& argv) {
    std::string req;
    for (const auto& a : argv) req += (req.empty() ? "" : "\t") + a;
    if (!wire::send_all(conn_.fd, req + "\n")) die("launcher went away");
    auto line = reader_->next();
    if (!line) die("launcher went away");
    std::istringstream in(*line);
    ProcResult r;
    long rss_kb = 0;
    std::string out_hex, err_hex;
    in >> r.status >> rss_kb >> r.spawn_ns >> r.end_ns >> out_hex >> err_hex;
    if (!in) die("bad launcher reply: " + *line);
    r.maxrss_mb = static_cast<double>(rss_kb) / 1024.0;
    r.out = unhex(out_hex);
    r.err = unhex(err_hex);
    return r;
  }

 private:
  static std::string unhex(const std::string& h) {
    std::string s;
    if (h == "-") return s;
    for (std::size_t i = 0; i + 1 < h.size(); i += 2) {
      s += static_cast<char>(std::stoi(h.substr(i, 2), nullptr, 16));
    }
    return s;
  }

  Fd conn_;
  pid_t pid_ = -1;
  std::unique_ptr<wire::LineReader> reader_;
};

// ---------------------------------------------------------------------------
// Output of a workload run
// ---------------------------------------------------------------------------

/// One traced op: disjoint layer spans, whatever of the op's wall time
/// they leave uncovered, and overlapping times or counts ("extra").
struct TracedOp {
  double op_ms = 0.0;
  std::map<std::string, double> spans;
  std::map<std::string, double> extra;
};

struct RunReport {
  std::string workload;
  std::uint64_t seed = 0;
  std::vector<double> setup_s;
  std::vector<double> lat_ms;           // untraced ops
  std::vector<double> done_s;           // their completion, from t_start_ns
  std::int64_t t_start_ns = 0;          // start of the timed phase
  std::vector<TracedOp> traced;         // --trace 1 only
  std::map<std::string, double> layer;  // one-off layer values (set-up)
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;    // first few, for diagnosis
  double timed_s = 0.0;
  double peak_rss_mb = 0.0;
  std::map<std::string, double> info;   // op counts, sizes, workers

  void record(double ms, std::int64_t end_ns) {
    lat_ms.push_back(ms);
    done_s.push_back(static_cast<double>(end_ns - t_start_ns) / 1e9);
  }

  void fail(const std::string& why) {
    ++failed;
    if (failures.size() < 5) failures.push_back(why);
  }

  void print() const {
    std::string s = "{\"workload\":" + wire::quote(workload) +
                    ",\"seed\":" + std::to_string(seed) +
                    ",\"setup_s\":" + json_nums(setup_s) +
                    ",\"lat_ms\":" + json_nums(lat_ms) +
                    ",\"done_s\":" + json_nums(done_s) +
                    ",\"attempted\":" + std::to_string(attempted) +
                    ",\"failed\":" + std::to_string(failed) +
                    ",\"failures\":" + json_strs(failures) +
                    ",\"timed_s\":" + num(timed_s) +
                    ",\"peak_rss_mb\":" + num(peak_rss_mb) +
                    ",\"layer\":" + json_obj(layer) +
                    ",\"info\":" + json_obj(info) + ",\"traced\":[";
    for (std::size_t i = 0; i < traced.size(); ++i) {
      if (i != 0) s += ',';
      s += "{\"op_ms\":" + num(traced[i].op_ms) +
           ",\"spans\":" + json_obj(traced[i].spans) +
           ",\"extra\":" + json_obj(traced[i].extra) + "}";
    }
    s += "]}\n";
    std::fwrite(s.data(), 1, s.size(), stdout);
    std::fflush(stdout);
  }
};

/// Fills the unattributed remainder of a traced op.
void close_trace(TracedOp& t) {
  double sum = 0.0;
  for (const auto& [k, v] : t.spans) sum += v;
  t.spans["trace.unattributed_ms"] = t.op_ms - sum;
}

struct Phases {
  std::int64_t untraced_end_ns;
  std::int64_t end_ns;
  [[nodiscard]] bool traced(std::int64_t t) const { return t >= untraced_end_ns; }
  Phases(double seconds, bool trace) {
    const std::int64_t t0 = now_ns();
    end_ns = t0 + static_cast<std::int64_t>(seconds * 1e9);
    // A traced run spends its first third untraced: the difference in op
    // latency between the two phases is the tracing overhead.
    untraced_end_ns = trace ? t0 + static_cast<std::int64_t>(seconds * 1e9 / 3)
                            : INT64_MAX;
  }
};

// ---------------------------------------------------------------------------
// Traced compile: engine::compile's steps, each timed
// ---------------------------------------------------------------------------

struct TracedCompile {
  lol::CompiledProgram prog;
  std::shared_ptr<const lol::vm::Chunk> chunk;
  std::map<std::string, double> spans;  // lex.ms ... vm.lower_ms
  double rewrites = 0.0;
};

TracedCompile traced_compile(const std::string& source) {
  TracedCompile tc;
  std::int64_t t = now_ns();
  auto lap = [&](const char* name) {
    const std::int64_t n = now_ns();
    tc.spans[name] = ms_between(t, n);
    t = n;
  };
  std::vector<lol::lex::Token> toks = lol::lex::tokenize(source);
  lap("lex.ms");
  tc.prog.program = lol::parse::Parser(std::move(toks)).parse_program();
  lap("parse.ms");
  tc.prog.analysis = lol::sema::analyze(tc.prog.program);
  lap("sema.pre_ms");
  lol::opt::Stats stats;
  lol::opt::optimize(tc.prog.program, lol::opt::Options{}, &stats);
  lap("opt.ms");
  tc.prog.analysis = lol::sema::analyze(tc.prog.program);
  lap("sema.post_ms");
  tc.chunk = std::make_shared<const lol::vm::Chunk>(
      lol::vm::compile_program(tc.prog.program, tc.prog.analysis));
  lap("vm.lower_ms");
  tc.rewrites = static_cast<double>(stats.total());
  return tc;
}

/// One SPMD run through the shmem layer, as engine::run does it, with
/// each step timed. `run_pe` executes one PE.
template <typename RunPe>
TracedOp traced_launch(const lol::CompiledProgram& prog, int n_pes,
                       std::uint64_t seed, RunPe run_pe, PeOut* out,
                       PeOut* err, bool* ok) {
  TracedOp t;
  const std::int64_t t0 = now_ns();
  lol::shmem::Config scfg;
  scfg.n_pes = n_pes;
  scfg.n_locks = prog.analysis.lock_count;
  scfg.profile = true;
  lol::shmem::Runtime runtime(scfg);
  const std::int64_t t1 = now_ns();
  lol::rt::CaptureSink sink(n_pes);
  lol::rt::VectorInput input({}, n_pes);
  lol::shmem::LaunchResult lr = runtime.launch([&](lol::shmem::Pe& pe) {
    lol::rt::ExecContext ctx(pe, seed, sink, input);
    run_pe(ctx);
  });
  const std::int64_t t2 = now_ns();
  *out = sink.take_out();
  *err = sink.take_err();
  const std::int64_t t3 = now_ns();
  *ok = lr.ok;
  t.op_ms = ms_between(t0, t3);
  t.spans["shmem.setup_ms"] = ms_between(t0, t1);
  t.spans["shmem.claim_ms"] = lr.claim_ms;
  t.spans["shmem.exec_ms"] = lr.exec_ms;
  t.spans["rt.drain_ms"] = ms_between(t2, t3);
  double wait_ns = 0.0, barriers = 0.0, steps = 0.0;
  for (const auto& p : lr.profiles) {
    wait_ns += static_cast<double>(p.barrier_wait_ns);
    barriers += static_cast<double>(p.barrier_crossings);
    steps += static_cast<double>(p.steps);
  }
  t.extra["shmem.barrier_wait_ms"] = wait_ns / 1e6;
  t.extra["shmem.barriers"] = barriers;
  t.extra["pe.steps"] = steps;
  return t;
}

// ---------------------------------------------------------------------------
// oneshot_cli: cold `lolrun -np 2` processes, one at a time
// ---------------------------------------------------------------------------

std::string check_lolrun(const ProcResult& r, const PeOut& expected) {
  if (!r.exited_zero()) return "exit status " + std::to_string(r.status);
  if (!r.err.empty()) return "stderr: " + r.err.substr(0, 200);
  auto got = untag_output(r.out, kOneshotPes);
  if (!got || *got != expected) return "wrong output";
  return "";
}

int cmd_oneshot(const Args& a) {
  RunReport rep;
  rep.workload = "oneshot_cli";
  rep.seed = a.u64("seed");
  const std::string lolrun = a.get("bin") + "/lolrun";
  const std::string dir = a.get("work") + "/corpus";
  const bool trace = a.u64("trace") != 0;
  std::map<std::string, PeOut> expected;
  Launcher launcher;
  auto file_of = [&](const std::string& n) { return dir + "/" + n + ".lol"; };
  auto lolrun_argv = [&](const std::string& n) {
    return std::vector<std::string>{lolrun, "-np", std::to_string(kOneshotPes),
                                    "--tag", file_of(n)};
  };

  // Set-up: write the corpus, load its expected outputs, and run each
  // program once so the binary and files are in the page cache.
  for (int r = 0; r < kSetupReps; ++r) {
    const std::int64_t t0 = now_ns();
    std::filesystem::create_directories(dir);
    for (const auto& n : corpus_names()) {
      write_file(file_of(n), corpus_source(n));
      expected[n] = load_expected(a.get("expected"), n, kOneshotPes);
      (void)launcher.run(lolrun_argv(n));
    }
    rep.setup_s.push_back(ms_between(t0, now_ns()) / 1e3);
  }

  Planner plan(rep.workload, rep.seed);
  const std::string exe = self_dir() + "/e2e_bench";
  Phases ph(a.seconds(), trace);
  const std::int64_t t_start = now_ns();
  std::int64_t t_last = t_start;
  rep.t_start_ns = t_start;
  double rss_max = 0.0;
  for (std::size_t i = 0;; ++i) {
    const std::int64_t t = now_ns();
    if (t >= ph.end_ns) break;
    const Op op = plan.at(i);
    ++rep.attempted;
    if (!ph.traced(t)) {
      ProcResult r = launcher.run(lolrun_argv(op.prog));
      rep.record(ms_between(r.spawn_ns, r.end_ns), r.end_ns);
      rss_max = std::max(rss_max, r.maxrss_mb);
      std::string why = check_lolrun(r, expected[op.prog]);
      if (!why.empty()) rep.fail(op.prog + ": " + why);
      t_last = r.end_ns;
      continue;
    }
    // Traced op: the benchmark's own cold child runs engine::run's steps
    // and reports their spans; process start and exit are timed here.
    ProcResult r = launcher.run(
        {exe, "child", file_of(op.prog), std::to_string(kOneshotPes)});
    t_last = r.end_ns;
    std::string perr;
    auto j = wire::parse_json(r.out, &perr);
    const wire::Json* spans = j ? j->find("spans") : nullptr;
    if (!r.exited_zero() || !j || spans == nullptr) {
      rep.fail(op.prog + ": traced child failed: " + r.err.substr(0, 200));
      continue;
    }
    TracedOp tr;
    tr.op_ms = ms_between(r.spawn_ns, r.end_ns);
    for (const auto& [k, v] : spans->obj) tr.spans[k] = v.num;
    for (const auto& [k, v] : j->find("extra")->obj) tr.extra[k] = v.num;
    const double t_main = j->find("t_main_ns")->num;
    const double t_end = j->find("t_end_ns")->num;
    tr.spans["proc.start_ms"] = (t_main - static_cast<double>(r.spawn_ns)) / 1e6;
    tr.spans["proc.exit_ms"] = (static_cast<double>(r.end_ns) - t_end) / 1e6;
    close_trace(tr);
    if (!j->find("ok")->b || json_strings(j->find("out")) != expected[op.prog] ||
        !all_empty(json_strings(j->find("err")))) {
      rep.fail(op.prog + ": traced child output differs");
    }
    rep.traced.push_back(std::move(tr));
  }
  rep.timed_s = ms_between(t_start, t_last) / 1e3;
  rep.peak_rss_mb = rss_max;
  rep.info["n_pes"] = kOneshotPes;
  rep.print();
  return 0;
}

/// The traced cold child: engine::run's steps on the VM backend (lolrun's
/// default), each timed. Prints spans, counts and per-PE output as JSON.
int cmd_child(const Args& a) {
  const std::int64_t t_main = now_ns();
  if (a.pos.size() != 2) die("usage: child FILE N_PES");
  const int n_pes = std::atoi(a.pos[1].c_str());
  auto source = read_file(a.pos[0]);
  if (!source) die("cannot read " + a.pos[0]);
  TracedCompile tc = traced_compile(*source);
  PeOut out, err;
  bool ok = false;
  const lol::vm::Chunk& chunk = *tc.chunk;
  TracedOp run = traced_launch(
      tc.prog, n_pes, lol::RunConfig{}.seed,
      [&](lol::rt::ExecContext& ctx) { lol::vm::run_pe(chunk, ctx); }, &out,
      &err, &ok);
  const std::int64_t t_end = now_ns();
  std::map<std::string, double> spans = tc.spans;
  spans.insert(run.spans.begin(), run.spans.end());
  std::map<std::string, double> extra = run.extra;
  extra["opt.rewrites"] = tc.rewrites;
  extra["vm.instrs"] = static_cast<double>(chunk.code.size());
  std::string s = "{\"t_main_ns\":" + std::to_string(t_main) +
                  ",\"t_end_ns\":" + std::to_string(t_end) +
                  ",\"ok\":" + (ok ? "true" : "false") +
                  ",\"spans\":" + json_obj(spans) +
                  ",\"extra\":" + json_obj(extra) + ",\"out\":" +
                  json_strs(out) + ",\"err\":" + json_strs(err) + "}\n";
  std::fwrite(s.data(), 1, s.size(), stdout);
  return 0;
}

// ---------------------------------------------------------------------------
// nbody_jit: warm in-process runs of the §VI.D n-body on the JIT
// ---------------------------------------------------------------------------

/// Untraced set-up: compile, lower to bytecode and emit machine code, as
/// the engine would lazily on the first run. Returns seconds taken.
double nbody_setup(lol::CompiledProgram* prog) {
  const std::int64_t t0 = now_ns();
  *prog = lol::compile(nbody_source());
  auto chunk = std::make_shared<const lol::vm::Chunk>(
      lol::vm::compile_program(prog->program, prog->analysis));
  prog->vm_slot->chunk = chunk;
  std::string err;
  prog->jit_slot->prog = lol::codegen::JitProgram::get_or_build(chunk, &err);
  if (prog->jit_slot->prog == nullptr) die("jit: " + err);
  return ms_between(t0, now_ns()) / 1e3;
}

int cmd_nbody_setup() {
  lol::CompiledProgram prog;
  std::printf("%s\n", num(nbody_setup(&prog)).c_str());
  return 0;
}

int cmd_nbody(const Args& a) {
  if (!lol::codegen::jit_available()) die("the JIT is not available here");
  RunReport rep;
  rep.workload = "nbody_jit";
  rep.seed = a.u64("seed");
  const bool trace = a.u64("trace") != 0;
  const PeOut expected = load_expected(a.get("expected"), nbody_name(), kNbodyPes);
  lol::RunConfig cfg;
  cfg.n_pes = kNbodyPes;
  cfg.backend = lol::Backend::kJit;
  // The n-body draws its initial positions with WHATEVAR: it keeps the
  // engine's default seed, the one its expected output was made with.
  // Every op is the same program, so the op sequence is seed-free.

  // The JIT code cache is process-wide, so repeated set-ups each run in a
  // fresh process; the first one is this process's own.
  lol::CompiledProgram prog;
  std::shared_ptr<const lol::codegen::JitProgram> jit;
  if (trace) {
    TracedCompile tc = traced_compile(nbody_source());
    const std::int64_t t0 = now_ns();
    std::string err;
    jit = lol::codegen::JitProgram::get_or_build(tc.chunk, &err);
    if (jit == nullptr) die("jit: " + err);
    rep.layer = tc.spans;
    rep.layer["jit.emit_ms"] = ms_between(t0, now_ns());
    rep.layer["opt.rewrites"] = tc.rewrites;
    const double instrs = static_cast<double>(tc.chunk->code.size());
    rep.layer["vm.instrs"] = instrs;
    rep.layer["jit.code_bytes"] = static_cast<double>(jit->code_bytes());
    rep.layer["jit.regions"] = static_cast<double>(jit->emit_info().regions);
    rep.layer["jit.spec_pc_share"] =
        static_cast<double>(jit->emit_info().spec_pcs) / instrs;
    prog = std::move(tc.prog);
    prog.vm_slot = std::make_shared<lol::vm::VmSlot>();
    prog.vm_slot->chunk = tc.chunk;
    prog.jit_slot = std::make_shared<lol::codegen::JitSlot>();
    prog.jit_slot->prog = jit;
    prog.native_slot = std::make_shared<lol::codegen::NativeSlot>();
  } else {
    rep.setup_s.push_back(nbody_setup(&prog));
    jit = prog.jit_slot->prog;
    Launcher launcher;
    for (int r = 1; r < kSetupReps; ++r) {
      ProcResult p = launcher.run({self_dir() + "/e2e_bench", "nbody-setup"});
      if (!p.exited_zero()) die("nbody-setup failed: " + p.err);
      rep.setup_s.push_back(std::strtod(p.out.c_str(), nullptr));
    }
  }
  // One discarded warm-up run: first-touch page faults, thread stacks.
  (void)lol::run(prog, cfg);

  Phases ph(a.seconds(), trace);
  const std::int64_t t_start = now_ns();
  std::int64_t t_last = t_start;
  rep.t_start_ns = t_start;
  while (true) {
    const std::int64_t t = now_ns();
    if (t >= ph.end_ns) break;
    ++rep.attempted;
    if (!ph.traced(t)) {
      lol::RunResult r = lol::run(prog, cfg);
      t_last = now_ns();
      rep.record(ms_between(t, t_last), t_last);
      if (!r.ok || r.pe_output != expected || !all_empty(r.pe_errout)) {
        rep.fail("nbody: " + (r.ok ? std::string("wrong output") : r.first_error()));
      }
      continue;
    }
    PeOut out, err;
    bool ok = false;
    TracedOp tr = traced_launch(
        prog, kNbodyPes, cfg.seed,
        [&](lol::rt::ExecContext& ctx) { jit->run_pe(ctx); }, &out, &err, &ok);
    t_last = now_ns();
    close_trace(tr);
    if (!ok || out != expected || !all_empty(err)) rep.fail("nbody: traced run failed");
    rep.traced.push_back(std::move(tr));
  }
  rep.timed_s = ms_between(t_start, t_last) / 1e3;
  rep.peak_rss_mb = vm_hwm_mb("self");
  rep.info["n_pes"] = kNbodyPes;
  rep.info["particles"] = kNbodyParticles;
  rep.info["steps"] = kNbodySteps;
  rep.print();
  return 0;
}

// ---------------------------------------------------------------------------
// classroom_service: a closed-loop client of `lolserve --daemon`
// ---------------------------------------------------------------------------

/// A spawned daemon; the destructor kills and reaps it if still running.
struct Daemon {
  pid_t pid = -1;
  Fd conn;
  std::unique_ptr<wire::LineReader> reader;
  Daemon() = default;
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() {
    if (pid > 0) {
      ::kill(pid, SIGKILL);
      int st = 0;
      ::waitpid(pid, &st, 0);
    }
  }

  void start(const std::string& lolserve, const std::string& sock,
             const std::string& log, int workers) {
    ::unlink(sock.c_str());
    Fd logfd(::open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644));
    if (logfd.fd < 0) die("cannot open " + log);
    const std::string listen = "unix:" + sock;
    const std::string n = std::to_string(workers);
    pid = ::fork();
    if (pid < 0) die("fork failed");
    if (pid == 0) {
      // The daemon must not outlive this process, however it ends.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      int null_fd = ::open("/dev/null", O_RDONLY);
      ::dup2(null_fd, 0);
      ::dup2(logfd.fd, 1);
      ::dup2(logfd.fd, 2);
      ::execl(lolserve.c_str(), lolserve.c_str(), "--daemon", "--listen",
              listen.c_str(), "--workers", n.c_str(), static_cast<char*>(nullptr));
      ::_exit(127);
    }
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (sock.size() >= sizeof addr.sun_path) die("socket path too long: " + sock);
    std::memcpy(addr.sun_path, sock.c_str(), sock.size() + 1);
    const std::int64_t give_up = now_ns() + 20'000'000'000LL;
    while (true) {
      conn.reset();
      conn.fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
      if (::connect(conn.fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0) break;
      int st = 0;
      if (::waitpid(pid, &st, WNOHANG) == pid) {
        pid = -1;
        die("lolserve exited during start-up; see " + log);
      }
      if (now_ns() > give_up) die("lolserve did not listen; see " + log);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    reader = std::make_unique<wire::LineReader>(conn.fd);
  }

  void send(const std::string& line) {
    if (!wire::send_all(conn.fd, line + "\n")) die("lost the daemon connection");
  }

  /// Next event, skipping nothing; dies on EOF.
  wire::Json next_event() {
    auto line = reader->next();
    if (!line) die("daemon closed the connection");
    std::string err;
    auto j = wire::parse_json(*line, &err);
    if (!j) die("bad event from daemon: " + err);
    return *j;
  }

  wire::Json await(const std::string& event) {
    while (true) {
      wire::Json j = next_event();
      const wire::Json* e = j.find("event");
      if (e != nullptr && e->str == event) return j;
      if (e != nullptr && e->str == "error") die("daemon error: " + j.find("message")->str);
    }
  }

  void stop() {
    send("{\"op\":\"shutdown\"}");
    while (reader->next()) {
    }
    conn.reset();
    const std::int64_t give_up = now_ns() + 20'000'000'000LL;
    int st = 0;
    while (::waitpid(pid, &st, WNOHANG) != pid) {
      if (now_ns() > give_up) die("lolserve did not exit after shutdown");
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    pid = -1;
  }
};

std::string check_done(const wire::Json& done, const Op& op,
                       const std::map<std::string, PeOut>& expected) {
  const std::string status = done.find("status")->str;
  if (status != expected_status(op)) {
    return "status " + status + ", want " + expected_status(op) + " (" +
           done.find("error")->str.substr(0, 120) + ")";
  }
  if (status != "ok") return "";
  if (json_strings(done.find("output")) != expected.at(op.prog) ||
      !all_empty(json_strings(done.find("errout")))) {
    return "wrong output";
  }
  return "";
}

int cmd_classroom(const Args& a) {
  RunReport rep;
  rep.workload = "classroom_service";
  rep.seed = a.u64("seed");
  const bool trace = a.u64("trace") != 0;
  const std::string work = a.get("work");
  std::filesystem::create_directories(work);
  const std::string sock = work + "/lolserve.sock";
  const std::string log = work + "/lolserve.log";
  const int nproc = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  const int workers = std::max(1, (nproc - 1) / kClassPes);
  std::map<std::string, PeOut> expected;
  for (const auto& n : corpus_names()) {
    expected[n] = load_expected(a.get("expected"), n, kClassPes);
  }
  auto job_of = [&](const Op& op, const std::string& name) {
    lol::service::Job job;
    job.name = name;
    job.source = classroom_source(op, rep.seed);
    job.n_pes = kClassPes;
    if (op.kind == "runaway") job.max_steps = kRunawaySteps;
    return job;
  };

  // Set-up: start the daemon, wait until it answers, and submit every
  // corpus program once so the compile cache holds them. Repeated; the
  // last daemon is the one measured.
  Daemon d;
  for (int r = 0; r < kSetupReps; ++r) {
    if (r != 0) d.stop();
    const std::int64_t t0 = now_ns();
    d.start(a.get("bin") + "/lolserve", sock, log, workers);
    d.send("{\"op\":\"ping\"}");
    d.await("pong");
    for (const auto& n : corpus_names()) {
      d.send(wire::submit_line(job_of({"repeat", n, 0}, "warm-" + n)));
      wire::Json done = d.await("done");
      if (!check_done(done, {"repeat", n, 0}, expected).empty()) {
        die("warm-up of " + n + " failed: " + done.find("status")->str);
      }
    }
    rep.setup_s.push_back(ms_between(t0, now_ns()) / 1e3);
  }

  struct Pending {
    Op op;
    std::int64_t sent_ns = 0;
    std::int64_t ack_ns = 0;
    bool traced = false;
  };
  std::map<std::string, Pending> pending;
  Planner plan(rep.workload, rep.seed);
  Phases ph(a.seconds(), trace);
  const std::int64_t t_start = now_ns();
  std::int64_t t_last = t_start;
  rep.t_start_ns = t_start;
  std::size_t next = 0;
  std::map<std::string, double> kinds;
  while (true) {
    while (pending.size() < kClassWindow && now_ns() < ph.end_ns) {
      const Op op = plan.at(next);
      const std::string name = "op" + std::to_string(next++);
      Pending p{op, 0, 0, false};
      const std::string line = wire::submit_line(job_of(op, name));
      p.sent_ns = now_ns();
      p.traced = ph.traced(p.sent_ns);
      pending[name] = p;
      d.send(line);
      ++rep.attempted;
      kinds[op.kind] += 1;
    }
    if (pending.empty()) break;
    wire::Json ev = d.next_event();
    const std::int64_t t = now_ns();
    const std::string event = ev.find("event")->str;
    if (event == "error") die("daemon error: " + ev.find("message")->str);
    const wire::Json* name = ev.find("name");
    if (name == nullptr || pending.count(name->str) == 0) continue;
    Pending& p = pending[name->str];
    if (event == "accepted") {
      p.ack_ns = t;
      continue;
    }
    if (event != "done") continue;
    t_last = t;
    const std::string why = check_done(ev, p.op, expected);
    if (!why.empty()) rep.fail(p.op.kind + " " + p.op.prog + ": " + why);
    if (!p.traced) {
      rep.record(ms_between(p.sent_ns, t), t);
    } else {
      TracedOp tr;
      tr.op_ms = ms_between(p.sent_ns, t);
      for (const auto& sp : ev.find("trace")->arr) {
        std::string s = sp.find("span")->str;
        if (s.rfind("compile", 0) == 0) s = "compile";
        if (s == "queued") s = "queue";
        tr.spans["service." + s + "_ms"] += sp.find("dur_ms")->num;
      }
      if (p.ack_ns != 0) tr.extra["wire.ack_ms"] = ms_between(p.sent_ns, p.ack_ns);
      close_trace(tr);
      rep.traced.push_back(std::move(tr));
    }
    pending.erase(name->str);
  }
  rep.timed_s = ms_between(t_start, t_last) / 1e3;
  d.send("{\"op\":\"stats\"}");
  wire::Json st = d.await("stats");
  const double hits = st.find("cache_hits")->num;
  const double misses = st.find("cache_misses")->num;
  rep.layer["service.cache_hit_ratio"] = hits + misses > 0 ? hits / (hits + misses) : 0.0;
  rep.peak_rss_mb = vm_hwm_mb(std::to_string(d.pid));
  d.stop();
  rep.info = kinds;
  rep.info["n_pes"] = kClassPes;
  rep.info["workers"] = workers;
  rep.info["window"] = kClassWindow;
  rep.print();
  return 0;
}

// ---------------------------------------------------------------------------
// Reference outputs, plans, build info
// ---------------------------------------------------------------------------

/// Expected outputs come from the tree-walking interpreter at -O0 and are
/// cross-checked against the VM at the default level, never against a
/// backend a workload measures with them alone.
int cmd_reference(const Args& a) {
  if (a.pos.size() != 1) die("usage: reference DIR");
  const std::string dir = a.pos[0];
  std::vector<std::pair<std::string, int>> jobs;
  for (const auto& n : corpus_names()) {
    jobs.emplace_back(n, kOneshotPes);
    if (kClassPes != kOneshotPes) jobs.emplace_back(n, kClassPes);
  }
  jobs.emplace_back(nbody_name(), kNbodyPes);
  for (const auto& [name, n_pes] : jobs) {
    const std::string src = name == nbody_name() ? nbody_source() : corpus_source(name);
    lol::RunConfig cfg;
    cfg.n_pes = n_pes;
    cfg.backend = lol::Backend::kInterp;
    lol::CompileOptions o0;
    o0.opt_level = 0;
    lol::RunResult ref = lol::run(lol::compile(src, o0), cfg);
    cfg.backend = lol::Backend::kVm;
    lol::RunResult vm = lol::run(lol::compile(src), cfg);
    if (!ref.ok || !all_empty(ref.pe_errout)) die(name + ": interpreter run failed");
    if (vm.pe_output != ref.pe_output || !vm.ok) die(name + ": VM disagrees with the interpreter");
    write_file(expected_path(dir, name, n_pes), tag_output(ref.pe_output));
    std::printf("wrote %s\n", expected_path(dir, name, n_pes).c_str());
  }
  return 0;
}

int cmd_plan(const Args& a) {
  if (a.pos.size() != 3) die("usage: plan WORKLOAD SEED COUNT");
  Planner plan(a.pos[0], std::strtoull(a.pos[1].c_str(), nullptr, 10));
  const std::size_t n = std::strtoull(a.pos[2].c_str(), nullptr, 10);
  for (std::size_t i = 0; i < n; ++i) {
    Op op = plan.at(i);
    std::printf("%s %s %llu\n", op.kind.c_str(), op.prog.c_str(),
                static_cast<unsigned long long>(op.tag));
  }
  return 0;
}

int cmd_build_info() {
#if defined(__OPTIMIZE__)
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
  std::printf("{\"build_type\":%s,\"compiler\":%s,\"optimized\":%s}\n",
              wire::quote(E2E_BUILD_TYPE).c_str(),
              wire::quote(E2E_COMPILER).c_str(), optimized ? "true" : "false");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: e2e_bench COMMAND [options] (see the header)\n");
    return 2;
  }
  const std::string cmd = argv[1];
  try {
    const Args a(argc, argv, 2);
    if (cmd == "oneshot") return cmd_oneshot(a);
    if (cmd == "child") return cmd_child(a);
    if (cmd == "nbody") return cmd_nbody(a);
    if (cmd == "nbody-setup") return cmd_nbody_setup();
    if (cmd == "classroom") return cmd_classroom(a);
    if (cmd == "reference") return cmd_reference(a);
    if (cmd == "plan") return cmd_plan(a);
    if (cmd == "build-info") return cmd_build_info();
    die("unknown command '" + cmd + "'");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_bench %s: %s\n", cmd.c_str(), e.what());
    return 1;
  }
}
