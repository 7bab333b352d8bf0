// Differential cross-backend conformance harness.
//
// The paper's pedagogical claim — and this repo's north star — is that
// one parallel LOLCODE program means the same thing on every execution
// substrate. This harness makes that claim testable: run one program
// through the interpreter, the VM and the JIT under *identical*
// RunConfigs, and (when the host has a C compiler) as an executable
// built by `lcc` with the same flags, then require
//
//   * the same outcome classification (ok / compile error / runtime
//     error / step-limited / aborted), and
//   * byte-identical per-PE stdout and stderr.
//
// Per-PE comparison sidesteps SPMD interleaving: scheduling may order
// PEs differently between runs, but what each PE prints is deterministic
// given the program, the seed and the barriers it contains.
//
// The in-process backends also run under every PE executor
// (thread-per-PE, the persistent pool and fiber carriers), so the full
// conformance matrix is {interp, vm, jit} x {thread, pool, fiber} plus
// the lcc column: multiplexing virtual PEs on fibers, executing emitted
// x86-64 instead of dispatching bytecode, or compiling generated C must
// not change what any PE computes or prints.
//
// Step-budget caveat: a "step" is a statement in the interpreter and the
// generated C but an instruction in the VM, so budgets near the edge can
// classify differently by design. Differential cases therefore use
// budgets that are either clearly exhausted (tiny budget, infinite loop)
// or clearly generous; the classification must then agree.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/engine.hpp"

namespace lol::difftest {

/// How a run ended, collapsed to the classification every backend must
/// agree on (the same partition JobStatus uses, minus service-only
/// states). kCrashed is an lcc executable breaking its contract (a
/// signal, a status other than 0, 1 or 3, or stdout outside the per-PE
/// tags); no spec expects it.
enum class Outcome {
  kOk,
  kCompileError,
  kRuntimeError,
  kStepLimit,
  kAborted,
  kCrashed,
};

[[nodiscard]] const char* to_string(Outcome o);

/// One differential case: a program plus the RunConfig knobs under test.
struct Spec {
  std::string name;
  std::string source;
  int n_pes = 1;
  std::uint64_t seed = 20170529;
  std::uint64_t max_steps = 0;          // 0 = unlimited
  std::vector<std::string> stdin_lines; // GIMMEH input
  std::uint64_t abort_after_ms = 0;     // >0: request abort from a timer
  /// Fiber column only: virtual PEs per carrier (0 = auto).
  int pes_per_thread = 0;
  /// Combining-tree barrier fan-in (0 = auto). The LOL_BARRIER_RADIX
  /// environment variable overrides this for every spec — CI uses it to
  /// run the whole suite under a non-default radix and prove outputs
  /// are radix-invariant.
  int barrier_radix = 0;
  /// Symmetric heap limit per PE (reserved, not committed).
  std::size_t heap_bytes = 1 << 20;
  /// Optimizing middle-end level: -1 (the default) resolves to the
  /// LOL_OPT_LEVEL environment variable, else 2 — CI uses the variable
  /// to run the whole suite at -O0 and -O2 and prove the optimizer is
  /// output-invariant across the full backend x executor matrix. A spec
  /// naming an explicit level is testing that level and ignores the
  /// override. Specs with step budgets near the edge must pin a level:
  /// folding and unrolling legitimately change step counts.
  int opt_level = -1;
};

/// What one column (a backend x executor cell, or lcc) did with a Spec.
struct BackendRun {
  std::string label;  // "interp/thread", "vm/fiber", "lcc", ...
  Outcome outcome = Outcome::kOk;
  std::vector<std::string> pe_output;
  std::vector<std::string> pe_errout;
  std::string error;   // first error (diagnostic only, not compared)
  double wall_ms = 0.0;  // in-process columns only
};

/// True when Backend::kJit can run here (x86-64, executable mmap).
bool jit_available();

/// True when the lcc column can run here: the host C compiler lcc
/// drives ($CC, else cc) is on the PATH. Tests GTEST_SKIP the column
/// when false; the in-process backends still run.
bool lcc_available();

/// The backends this host can compare: interp and VM always, jit when
/// available.
std::vector<Backend> backends_under_test();

/// The executor axis: thread-per-PE and the persistent pool always,
/// fibers where ucontext exists (everywhere we build, today).
std::vector<shmem::ExecutorKind> executors_under_test();

[[nodiscard]] const char* backend_label(Backend b);

/// Runs one spec on one (backend, executor) cell.
BackendRun run_one(const Spec& spec, Backend backend,
                   shmem::ExecutorKind executor = shmem::ExecutorKind::kThread);

/// Runs each spec of a table through every column, in table order:
/// each backend x executor cell, then the lcc column — the spec run as
/// an lcc executable with the same flags — unless lcc is unavailable or
/// the spec needs what a standalone process lacks (an abort timer, or
/// GIMMEH input on several PEs: a process has one shared stdin). The
/// lcc builds of the whole table start first, in the background, so
/// they overlap the in-process columns.
std::vector<std::vector<BackendRun>> run_matrix(const std::vector<Spec>& specs);

/// Runs a table through run_matrix and reports, per spec, divergence:
/// an empty string when all columns agree on classification and per-PE
/// output, else a human-readable report naming the disagreeing columns.
std::vector<std::string> divergence(const std::vector<Spec>& specs);

/// Loads every *.lol file under `dir` (sorted by name) as a Spec with
/// the given PE count. Empty when the directory is missing.
std::vector<Spec> load_lol_dir(const std::string& dir, int n_pes);

}  // namespace lol::difftest
