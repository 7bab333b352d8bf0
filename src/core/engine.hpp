// PARALLOL public API.
//
// Typical embedding:
//
//   auto prog = lol::compile(source);                 // lex+parse+sema
//   lol::RunConfig cfg;
//   cfg.n_pes = 4;
//   auto result = lol::run(prog, cfg);                // SPMD execution
//   std::cout << result.pe_output[0];
//
// The paper's command-line flow (`lcc code.lol -o x && coprsh -np 16 ./x`)
// is provided by the `lcc` and `lolrun` tools built on this API.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "ast/ast.hpp"
#include "core/abort.hpp"
#include "noc/model.hpp"
#include "obs/profile.hpp"
#include "replay/fault.hpp"
#include "replay/trace.hpp"
#include "rt/io.hpp"
#include "sema/analyzer.hpp"
#include "shmem/executor.hpp"

namespace lol::codegen {
struct JitSlot;
struct NativeSlot;
}

namespace lol::vm {
struct VmSlot;
}

namespace lol {

/// Which execution backend runs the program.
enum class Backend {
  kInterp,  // tree-walking interpreter (reference semantics)
  kVm,      // bytecode VM (compiled dispatch; same semantics, faster)
  kJit,     // the VM with its type-specialized regions compiled to
            // x86-64 in executable pages (W^X mmap) — no host toolchain,
            // microsecond cold compiles. Runs the plain VM when the host
            // is not x86-64, the kernel refuses PROT_EXEC, or LOL_JIT=0
            // (lol::codegen::jit_available())
};

/// Canonical backend name ("interp" / "vm" / "jit") — the single
/// mapping every surface shares: lolrun/lolserve --backend flags, the
/// daemon wire protocol, the differential harness. Inline, so the run
/// knob table (service/run_request.hpp) can use it inside lcc
/// executables without linking the engine.
[[nodiscard]] inline const char* to_string(Backend b) {
  switch (b) {
    case Backend::kInterp: return "interp";
    case Backend::kVm: return "vm";
    case Backend::kJit: return "jit";
  }
  return "vm";
}

/// Inverse of to_string; nullopt for unknown names.
[[nodiscard]] inline std::optional<Backend> backend_from_name(
    std::string_view name) {
  for (Backend b : {Backend::kInterp, Backend::kVm, Backend::kJit}) {
    if (name == to_string(b)) return b;
  }
  return std::nullopt;
}

/// Front-end configuration for compile(). Level 0 runs the raw AST,
/// level 1 runs the folding passes, level 2 (the default everywhere)
/// adds the loop pipeline — see opt/opt.hpp. All levels are observably
/// equivalent per PE except step *counts* near a max_steps edge.
struct CompileOptions {
  int opt_level = 2;
  int unroll_max_trip = 16;  // forwarded to opt::Options
};

/// A compiled (parsed + analyzed) program. Movable; the analysis borrows
/// AST nodes owned by `program`, whose addresses are stable under moves.
struct CompiledProgram {
  ast::Program program;
  sema::Analysis analysis;

  /// The options this program was compiled with (cache keys and replay
  /// hashes must distinguish optimized shapes).
  CompileOptions options;

  /// Unused; kept only until e2ebench/e2e_bench.cpp stops assigning it.
  std::shared_ptr<codegen::NativeSlot> native_slot;

  /// Backend::kVm memo: the compiled bytecode chunk, filled on first VM
  /// run so warm service jobs stop re-compiling bytecode per submission
  /// (see vm/compiler.hpp). Null on hand-constructed instances means
  /// every run compiles afresh — correct, just slower.
  std::shared_ptr<vm::VmSlot> vm_slot;

  /// Backend::kJit memo: the emitted machine code for this program,
  /// filled on first JIT run (see codegen/jit_backend.hpp). Shares the
  /// vm_slot chunk. Null on hand-constructed instances falls back to
  /// the process-wide JIT code cache.
  std::shared_ptr<codegen::JitSlot> jit_slot;

  /// Bytes of sealed JIT code currently memoized in jit_slot (0 when
  /// none) — the service compile cache charges these against its byte
  /// budget after a JIT run.
  [[nodiscard]] std::size_t jit_code_bytes() const;
};

/// SPMD run configuration.
struct RunConfig {
  int n_pes = 1;
  Backend backend = Backend::kInterp;
  std::size_t heap_bytes = 1 << 20;  // symmetric heap per PE
  noc::ModelPtr machine;             // optional simulated-time model
  std::uint64_t seed = 20170529;     // WHATEVR/WHATEVAR determinism
  std::vector<std::string> stdin_lines;  // GIMMEH input (per-PE cursor)
  rt::OutputSink* sink = nullptr;    // external sink; null => capture

  /// External input source for GIMMEH; null => stdin_lines. Lets hosts
  /// feed live (possibly blocking) input; blocked reads stay abortable
  /// because backends poll through InputSource::try_read_line.
  rt::InputSource* input = nullptr;

  /// Per-PE step budget; 0 = unlimited. A step is one statement in the
  /// interpreter or one instruction in the VM; a PE that exhausts it is
  /// killed with support::StepLimitError (the service layer relies on
  /// this to survive hostile/looping submissions).
  std::uint64_t max_steps = 0;

  /// External kill switch; null => the run cannot be aborted from
  /// outside. AbortToken::request() (any thread, any time) stops the
  /// run: blocked barriers/locks/GIMMEH reads wake up and spinning PEs
  /// die at the next step poll. The service's deadline reaper and
  /// cancel() fire this.
  AbortToken* abort = nullptr;

  /// How PEs map onto OS threads (shmem/executor.hpp): thread-per-PE
  /// (default), the persistent process-wide pool, or fiber carriers
  /// multiplexing many virtual PEs per core — the only way to run
  /// n_pes far beyond hardware_concurrency. Abort/deadline semantics
  /// are identical across executors.
  shmem::ExecutorKind executor = shmem::ExecutorKind::kThread;

  /// Fiber executor only: virtual PEs per carrier thread (0 = auto,
  /// spreading the gang over the hardware threads).
  int pes_per_thread = 0;

  /// Fan-in of the combining-tree barrier and tree collectives
  /// (shmem/runtime.hpp); values below 2 mean auto. Affects contention
  /// and the modeled tree depth only — reduction results are
  /// byte-identical across radices by construction.
  int barrier_radix = 0;

  /// Explicit executor instance; overrides `executor` when set (hosts
  /// that want their own pool lifetime instead of the shared one).
  shmem::ExecutorPtr executor_impl;

  /// Sample wall-clock wait times (barrier park, lock spin) into the
  /// per-PE profiles returned in RunResult::pe_profiles. Event counts
  /// (steps, crossings, acquisitions, GIMMEH blocks) are collected
  /// regardless; the clock reads are opt-in (lolrun --profile).
  bool profile = false;

  /// Deterministic scheduling (replay/controller.hpp). kNone (default)
  /// runs free. kRecord serializes the gang on an execution token and
  /// captures the handoff order into RunResult::schedule_trace. kPerturb
  /// does the same with a seeded random token order (perturb_seed).
  /// kReplay re-enforces a recorded order from `replay_trace`. Recorded
  /// and replayed runs are byte-identical across backends and executors.
  replay::ScheduleMode schedule = replay::ScheduleMode::kNone;
  std::uint64_t perturb_seed = 0;
  /// Required when schedule == kReplay; must match this run's n_pes,
  /// seed and (when both sides carry one) program_hash.
  std::shared_ptr<const replay::Trace> replay_trace;
  /// FNV-1a hash of the program source (replay::fnv1a), stamped into
  /// recorded traces and checked on replay. 0 = unknown (check skipped).
  std::uint64_t program_hash = 0;

  /// Fault injection (replay/fault.hpp): kill a PE at a step, spike the
  /// modeled NoC latency, fail the GIMMEH source after N reads.
  replay::FaultPlan fault;
};

/// Outcome of an SPMD run.
struct RunResult {
  bool ok = false;
  bool step_limited = false;  // some PE exceeded RunConfig::max_steps
  bool aborted = false;       // RunConfig::abort was requested
  bool pe_failed = false;     // a PE was killed by fault injection
  bool replay_diverged = false;  // kReplay: execution left the trace
  std::vector<std::string> pe_output;  // per-PE captured stdout
  std::vector<std::string> pe_errout;  // per-PE captured stderr
  std::vector<std::string> errors;     // per-PE error ("" when fine)
  std::vector<double> sim_ns;          // per-PE simulated time
  /// Per-PE runtime profiles (steps, barrier/lock events, GIMMEH
  /// blocks; *_wait_ns populated only when RunConfig::profile was set).
  std::vector<obs::PeProfile> pe_profiles;
  /// Lifecycle timing for job traces, three disjoint measured spans:
  /// setup is run() entry until launch (vm/jit memo lookups,
  /// runtime construction), claim is launch entry until the first PE
  /// body started (per-launch reset, executor claim), exec is from
  /// then until the gang joined.
  double setup_ms = 0.0;
  double claim_ms = 0.0;
  double exec_ms = 0.0;
  /// Serialized schedule trace (replay::Trace::serialize) when the run
  /// was recorded or perturbed; empty otherwise.
  std::string schedule_trace;

  /// First non-empty per-PE error.
  [[nodiscard]] std::string first_error() const;
  /// Modeled wall-clock: max simulated time across PEs.
  [[nodiscard]] double max_sim_ns() const;
};

/// Lexes, parses, analyzes and optimizes `source`. Throws
/// support::LexError, support::ParseError or support::SemaError with
/// source locations; sema runs on the raw AST first, so invalid programs
/// produce identical diagnostics at every opt level.
CompiledProgram compile(std::string_view source,
                        const CompileOptions& opts = {});

/// Runs a compiled program SPMD on cfg.n_pes PEs.
RunResult run(const CompiledProgram& prog, const RunConfig& cfg = {});

/// Convenience: compile + run.
RunResult run_source(std::string_view source, const RunConfig& cfg = {});

/// Library version string.
std::string_view version();

}  // namespace lol
