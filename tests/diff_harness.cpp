#include "diff_harness.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <map>
#include <mutex>
#include <semaphore>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "codegen/jit_backend.hpp"
#include "core/abort.hpp"
#include "driver/cli.hpp"
#include "support/error.hpp"

#ifndef LCC_BIN
#define LCC_BIN "lcc"
#endif

namespace lol::difftest {

namespace fs = std::filesystem;

namespace {

/// The spec's optimization level: its explicit value, else the
/// LOL_OPT_LEVEL environment override (the CI opt-matrix leg), else the
/// default -O2.
int opt_level_of(const Spec& spec) {
  if (spec.opt_level >= 0) return spec.opt_level;
  if (const char* env = std::getenv("LOL_OPT_LEVEL");
      env != nullptr && env[0] != '\0') {
    return std::atoi(env);
  }
  return CompileOptions{}.opt_level;
}

}  // namespace

const char* to_string(Outcome o) {
  switch (o) {
    case Outcome::kOk: return "ok";
    case Outcome::kCompileError: return "compile-error";
    case Outcome::kRuntimeError: return "runtime-error";
    case Outcome::kStepLimit: return "step-limit";
    case Outcome::kAborted: return "aborted";
    case Outcome::kCrashed: return "crashed";
  }
  return "?";
}

bool jit_available() { return codegen::jit_available(); }

bool lcc_available() {
  // lcc runs $CC (else cc) unquoted, like make's $(CC): probe its first
  // word.
  static const bool ok =
      std::system("set -- ${CC:-cc}; command -v \"$1\" >/dev/null 2>&1") == 0;
  return ok;
}

std::vector<Backend> backends_under_test() {
  std::vector<Backend> out = {Backend::kInterp, Backend::kVm};
  if (jit_available()) out.push_back(Backend::kJit);
  return out;
}

std::vector<shmem::ExecutorKind> executors_under_test() {
  std::vector<shmem::ExecutorKind> out = {shmem::ExecutorKind::kThread,
                                          shmem::ExecutorKind::kPool};
  if (shmem::fiber_executor_available()) {
    out.push_back(shmem::ExecutorKind::kFiber);
  }
  return out;
}

const char* backend_label(Backend b) { return lol::to_string(b); }

BackendRun run_one(const Spec& spec, Backend backend,
                   shmem::ExecutorKind executor) {
  BackendRun out;
  out.label =
      std::string(backend_label(backend)) + "/" + shmem::to_string(executor);

  CompileOptions copts;
  copts.opt_level = opt_level_of(spec);

  CompiledProgram prog;
  try {
    prog = compile(spec.source, copts);
  } catch (const support::LolError& e) {
    out.outcome = Outcome::kCompileError;
    out.error = e.what();
    return out;
  }

  RunConfig cfg;
  cfg.n_pes = spec.n_pes;
  cfg.backend = backend;
  cfg.seed = spec.seed;
  cfg.max_steps = spec.max_steps;
  cfg.stdin_lines = spec.stdin_lines;
  cfg.executor = executor;
  cfg.pes_per_thread = spec.pes_per_thread;
  cfg.heap_bytes = spec.heap_bytes;
  cfg.barrier_radix = spec.barrier_radix;
  // CI exports the variable (possibly empty) on every matrix leg. Only
  // a non-empty value overrides, and only for specs that left the radix
  // at auto — a spec naming an explicit radix is testing that radix
  // (BarrierRadixIsOutputInvariant must not collapse to a tautology in
  // the radix-override leg).
  if (const char* env = std::getenv("LOL_BARRIER_RADIX");
      env != nullptr && env[0] != '\0' && spec.barrier_radix == 0) {
    cfg.barrier_radix = std::atoi(env);
  }

  // Mid-run abort: fire the token from a timer thread, like the
  // service's deadline reaper does. The thread always joins before the
  // result is read.
  AbortToken token;
  std::thread timer;
  if (spec.abort_after_ms > 0) {
    cfg.abort = &token;
    timer = std::thread([&] {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(spec.abort_after_ms));
      token.request();
    });
  }

  auto t0 = std::chrono::steady_clock::now();
  RunResult r = run(prog, cfg);
  out.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
  if (timer.joinable()) timer.join();

  out.pe_output = std::move(r.pe_output);
  out.pe_errout = std::move(r.pe_errout);
  out.error = r.first_error();
  if (r.step_limited) {
    out.outcome = Outcome::kStepLimit;
  } else if (r.aborted) {
    out.outcome = Outcome::kAborted;
  } else if (r.ok) {
    out.outcome = Outcome::kOk;
  } else {
    out.outcome = Outcome::kRuntimeError;
  }
  return out;
}

namespace {

/// An lcc compile: the executable, or lcc's diagnostics when it failed.
struct LccBuild {
  std::string exe;
  std::string error;
};

/// The lcc column's process-wide state: a private scratch directory,
/// removed at exit, and the builds. Each distinct (source, opt level)
/// compiles once per process, in the background and at most four at a
/// time: a compile-and-link costs far more than running the result, so
/// builds overlap each other and the in-process columns.
class LccBuilds {
 public:
  LccBuilds() {
    if (::mkdtemp(dir_.data()) == nullptr) {
      throw std::runtime_error("cannot create " + dir_);
    }
  }
  // A build still running here (a test stopped on an ASSERT) uses the
  // slots and the directory, so it finishes before either goes.
  ~LccBuilds() {
    for (auto& entry : builds_) entry.second.wait();
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  LccBuilds(const LccBuilds&) = delete;
  LccBuilds& operator=(const LccBuilds&) = delete;

  /// A fresh path stem in the scratch directory. Paths here never hold
  /// a single quote, so the commands below quote them plainly.
  std::string stem(const char* kind) {
    return dir_ + "/" + kind + std::to_string(next_.fetch_add(1));
  }

  std::shared_future<LccBuild> get(const std::string& source, int opt_level) {
    std::lock_guard<std::mutex> g(m_);
    auto key = std::make_pair(source, opt_level);
    if (auto it = builds_.find(key); it != builds_.end()) return it->second;
    auto build = std::async(std::launch::async, [this, source, opt_level] {
                   slots_.acquire();
                   LccBuild b = compile(source, opt_level);
                   slots_.release();
                   return b;
                 }).share();
    builds_.emplace(std::move(key), build);
    return build;
  }

 private:
  LccBuild compile(const std::string& source, int opt_level) {
    const std::string s = stem("prog");
    driver::write_file(s + ".lol", source);
    const std::string cmd = std::string("'") + LCC_BIN + "' --opt-level " +
                            std::to_string(opt_level) + " '" + s +
                            ".lol' -o '" + s + ".x' 2>'" + s + ".log'";
    if (std::system(cmd.c_str()) == 0) return {s + ".x", ""};
    return {"", driver::read_file(s + ".log").value_or("lcc failed")};
  }

  std::string dir_ =
      (fs::temp_directory_path() / "lol_diff_XXXXXX").string();
  std::atomic<int> next_{0};
  std::counting_semaphore<4> slots_{4};
  std::mutex m_;
  std::map<std::pair<std::string, int>, std::shared_future<LccBuild>>
      builds_;
};

LccBuilds& lcc_builds() {
  static LccBuilds builds;
  return builds;
}

/// Splits `[peK] `-tagged output back into per-PE streams; a PE's
/// last text without a newline comes tagged `[peK!] ` and gets none
/// back. Untagged lines go to `untagged`.
void split_tagged(const std::string& text, std::vector<std::string>& per_pe,
                  std::string& untagged) {
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) {
    std::size_t close = line.find("] ");
    if (line.rfind("[pe", 0) == 0 && close != std::string::npos) {
      const bool tail = line[close - 1] == '!';
      if (auto pe = driver::parse_int(
              std::string_view(line).substr(3, close - 3 - (tail ? 1 : 0)), 0,
              static_cast<std::int64_t>(per_pe.size()) - 1)) {
        per_pe[static_cast<std::size_t>(*pe)] +=
            line.substr(close + 2) + (tail ? "" : "\n");
        continue;
      }
    }
    untagged += line + "\n";
  }
}

/// True when `spec` can run as an lcc executable: lcc is available and
/// the spec needs nothing a standalone process lacks — no abort timer,
/// and no GIMMEH input on several PEs (a process has one shared stdin,
/// the in-process backends give every PE its own cursor).
bool lcc_runs(const Spec& spec) {
  return lcc_available() && spec.abort_after_ms == 0 &&
         (spec.n_pes == 1 || spec.stdin_lines.empty());
}

/// Runs one spec as an lcc executable with `-np N --seed S --max-steps
/// M --heap-bytes H --tag` and the spec's stdin lines, and splits its tagged
/// output back into per-PE streams. Exit status 0/1/3 maps to
/// ok/runtime-error/step-limit, an lcc failure to compile-error.
/// Untagged stderr (the executable's "error: ..." reports, sanitizer
/// banners) is diagnostic only; untagged stdout bypassed the per-PE
/// sink, so the run counts as crashed.
BackendRun run_lcc(const Spec& spec) {
  BackendRun out;
  out.label = "lcc";
  const std::shared_future<LccBuild> pending =
      lcc_builds().get(spec.source, opt_level_of(spec));
  const LccBuild& build = pending.get();
  if (build.exe.empty()) {
    out.outcome = Outcome::kCompileError;
    out.error = build.error;
    return out;
  }

  const std::string stem = lcc_builds().stem("run");
  std::string input;
  for (const std::string& line : spec.stdin_lines) input += line + "\n";
  driver::write_file(stem + ".in", input);
  const std::string cmd =
      "'" + build.exe + "' -np " + std::to_string(spec.n_pes) + " --seed " +
      std::to_string(spec.seed) + " --max-steps " +
      std::to_string(spec.max_steps) + " --heap-bytes " +
      std::to_string(spec.heap_bytes) + " --tag <'" + stem + ".in' >'" +
      stem + ".out' 2>'" + stem + ".err'";
  const int status = std::system(cmd.c_str());

  out.pe_output.assign(static_cast<std::size_t>(spec.n_pes), "");
  out.pe_errout.assign(static_cast<std::size_t>(spec.n_pes), "");
  std::string stray;
  split_tagged(driver::read_file(stem + ".out").value_or(""), out.pe_output,
               stray);
  split_tagged(driver::read_file(stem + ".err").value_or(""), out.pe_errout,
               out.error);
  switch (WIFEXITED(status) ? WEXITSTATUS(status) : -1) {
    case 0: out.outcome = Outcome::kOk; break;
    case 1: out.outcome = Outcome::kRuntimeError; break;
    case 3: out.outcome = Outcome::kStepLimit; break;
    default:
      out.outcome = Outcome::kCrashed;
      out.error = "wait status " + std::to_string(status) + ": " + out.error;
  }
  if (!stray.empty()) {
    out.outcome = Outcome::kCrashed;
    out.error = "untagged stdout: " + stray + out.error;
  }
  return out;
}

}  // namespace

std::vector<std::vector<BackendRun>> run_matrix(
    const std::vector<Spec>& specs) {
  // Start every lcc build of the table first, so they compile while the
  // in-process columns of the specs before them run.
  for (const Spec& spec : specs) {
    if (lcc_runs(spec)) (void)lcc_builds().get(spec.source, opt_level_of(spec));
  }
  std::vector<std::vector<BackendRun>> matrix;
  for (const Spec& spec : specs) {
    std::vector<BackendRun>& runs = matrix.emplace_back();
    for (Backend b : backends_under_test()) {
      for (shmem::ExecutorKind e : executors_under_test()) {
        runs.push_back(run_one(spec, b, e));
      }
    }
    if (lcc_runs(spec)) runs.push_back(run_lcc(spec));
  }
  return matrix;
}

namespace {

/// Output comparison applies only to runs that completed: a killed run
/// (step limit, abort) stops PEs at backend-dependent points, so partial
/// output legitimately differs.
bool compare_output(Outcome o) { return o == Outcome::kOk; }

void describe(std::ostringstream& os, const Spec& spec,
              const BackendRun& r) {
  os << "  [" << r.label << "] outcome=" << to_string(r.outcome);
  if (!r.error.empty()) os << " error=\"" << r.error << "\"";
  os << "\n";
  if (compare_output(r.outcome)) {
    for (std::size_t pe = 0; pe < r.pe_output.size(); ++pe) {
      os << "    pe" << pe << " stdout: "
         << (r.pe_output[pe].size() > 200
                 ? r.pe_output[pe].substr(0, 200) + "..."
                 : r.pe_output[pe])
         << "\n";
    }
  }
  (void)spec;
}

/// The divergence report for one spec's columns (empty on agreement).
std::string report(const Spec& spec, const std::vector<BackendRun>& runs) {
  const BackendRun& ref = runs.front();
  bool diverged = false;
  std::ostringstream why;
  for (std::size_t i = 1; i < runs.size(); ++i) {
    const BackendRun& r = runs[i];
    if (r.outcome != ref.outcome) {
      diverged = true;
      why << "classification differs: " << ref.label << "="
          << to_string(ref.outcome) << " vs " << r.label << "="
          << to_string(r.outcome) << "\n";
      continue;
    }
    if (!compare_output(ref.outcome)) continue;
    if (r.pe_output != ref.pe_output) {
      diverged = true;
      why << "per-PE stdout differs between " << ref.label << " and "
          << r.label << "\n";
    }
    if (r.pe_errout != ref.pe_errout) {
      diverged = true;
      why << "per-PE stderr differs between " << ref.label << " and "
          << r.label << "\n";
    }
  }
  if (!diverged) return "";

  std::ostringstream os;
  os << "spec '" << spec.name << "' (n_pes=" << spec.n_pes
     << ", seed=" << spec.seed << ", max_steps=" << spec.max_steps
     << ") diverged:\n"
     << why.str();
  for (const BackendRun& r : runs) describe(os, spec, r);
  return os.str();
}

}  // namespace

std::vector<std::string> divergence(const std::vector<Spec>& specs) {
  const std::vector<std::vector<BackendRun>> matrix = run_matrix(specs);
  std::vector<std::string> reports;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    reports.push_back(report(specs[i], matrix[i]));
  }
  return reports;
}

std::vector<Spec> load_lol_dir(const std::string& dir, int n_pes) {
  std::vector<Spec> out;
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) return out;
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.is_regular_file() && entry.path().extension() == ".lol") {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  for (const auto& p : files) {
    auto text = driver::read_file(p.string());
    if (!text) continue;
    Spec s;
    s.name = p.filename().string();
    s.source = std::move(*text);
    s.n_pes = n_pes;
    out.push_back(std::move(s));
  }
  return out;
}

}  // namespace lol::difftest
