#include "core/engine.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>

#include "codegen/jit_backend.hpp"
#include "interp/interpreter.hpp"
#include "obs/metrics.hpp"
#include "opt/opt.hpp"
#include "parse/parser.hpp"
#include "replay/controller.hpp"
#include "rt/exec_context.hpp"
#include "shmem/executor.hpp"
#include "shmem/runtime.hpp"
#include "vm/compiler.hpp"
#include "vm/vm.hpp"

namespace lol {

namespace {

/// Engine-level counters, resolved once (cold path: once per run).
struct EngineMetrics {
  obs::CounterFamily& runs_by_backend;
  obs::Counter& step_limited;
  EngineMetrics()
      : runs_by_backend(obs::Registry::global().counter_family(
            "lol_engine_runs_total", "SPMD runs started, by backend",
            "backend")),
        step_limited(obs::Registry::global().counter(
            "lol_engine_step_limited_total",
            "Runs killed by the per-PE step budget")) {}
};

EngineMetrics& engine_metrics() {
  static EngineMetrics m;
  return m;
}

}  // namespace

const char* to_string(Backend b) {
  switch (b) {
    case Backend::kInterp: return "interp";
    case Backend::kVm: return "vm";
    case Backend::kJit: return "jit";
  }
  return "vm";
}

std::optional<Backend> backend_from_name(std::string_view name) {
  if (name == "interp") return Backend::kInterp;
  if (name == "vm") return Backend::kVm;
  if (name == "jit") return Backend::kJit;
  return std::nullopt;
}

std::string RunResult::first_error() const {
  return support::first_root_error(errors);
}

double RunResult::max_sim_ns() const {
  double m = 0.0;
  for (double v : sim_ns) m = v > m ? v : m;
  return m;
}

CompiledProgram compile(std::string_view source, const CompileOptions& opts) {
  CompiledProgram out;
  out.options = opts;
  out.program = parse::parse_program(source);
  // Sema first, on the raw AST: invalid programs throw the same
  // diagnostic at every opt level, and the passes may assume validity.
  out.analysis = sema::analyze(out.program);
  if (opts.opt_level > 0) {
    opt::Options oo;
    oo.level = opts.opt_level;
    oo.unroll_max_trip = opts.unroll_max_trip;
    opt::optimize(out.program, oo);
    // Analysis borrows AST nodes the passes may have replaced.
    out.analysis = sema::analyze(out.program);
  }
  out.vm_slot = std::make_shared<vm::VmSlot>();
  out.jit_slot = std::make_shared<codegen::JitSlot>();
  return out;
}

std::size_t CompiledProgram::jit_code_bytes() const {
  if (jit_slot == nullptr) return 0;
  std::lock_guard<std::mutex> g(jit_slot->m);
  return jit_slot->prog != nullptr ? jit_slot->prog->code_bytes() : 0;
}

namespace {

/// Result shape for a run that failed before any PE started (pre-launch
/// abort, bad replay trace). Must not trust cfg.n_pes: the Runtime
/// constructor, which normally rejects bad values, is skipped on these
/// paths.
RunResult error_result(int n_pes, const std::string& message) {
  RunResult result;
  auto n = static_cast<std::size_t>(std::max(1, n_pes));
  result.errors.assign(n, "");
  result.errors[0] = message;
  result.pe_output.assign(n, "");
  result.pe_errout.assign(n, "");
  result.sim_ns.assign(n, 0.0);
  return result;
}

RunResult aborted_before_launch(int n_pes) {
  RunResult result = error_result(n_pes, "SPMD aborted before launch");
  result.aborted = true;
  return result;
}

}  // namespace

RunResult run(const CompiledProgram& prog, const RunConfig& cfg) {
  // Fast path for a cancel that lands while the job is still queued:
  // skip Runtime construction (arenas) entirely.
  if (cfg.abort != nullptr && cfg.abort->requested()) {
    return aborted_before_launch(cfg.n_pes);
  }
  engine_metrics().runs_by_backend.with(to_string(cfg.backend)).inc();
  const auto t_run0 = std::chrono::steady_clock::now();

  // Resolve the effective backend: kJit runs the plain VM when this
  // host can't execute emitted pages (non-x86-64, W^X-only kernel,
  // LOL_JIT=0) — the same program without its machine-code regions.
  Backend backend = cfg.backend;
  if (backend == Backend::kJit && !codegen::jit_available()) {
    backend = Backend::kVm;
  }

  // Deterministic scheduling: build the controller before the Runtime so
  // a bad replay trace fails cheaply with a diagnostic.
  std::unique_ptr<replay::ScheduleController> ctrl;
  if (cfg.schedule == replay::ScheduleMode::kReplay) {
    if (cfg.replay_trace == nullptr) {
      return error_result(cfg.n_pes, "replay requested without a trace");
    }
    std::string terr;
    if (!cfg.replay_trace->matches(cfg.n_pes, cfg.seed, cfg.program_hash,
                                   &terr)) {
      return error_result(cfg.n_pes, "replay trace mismatch: " + terr);
    }
    ctrl = std::make_unique<replay::ScheduleController>(cfg.replay_trace);
  } else if (cfg.schedule != replay::ScheduleMode::kNone) {
    ctrl = std::make_unique<replay::ScheduleController>(
        cfg.schedule, cfg.n_pes, cfg.perturb_seed);
  }

  shmem::Config scfg;
  scfg.n_pes = cfg.n_pes;
  scfg.heap_bytes = cfg.heap_bytes;
  scfg.n_locks = prog.analysis.lock_count;
  scfg.model = cfg.machine;
  scfg.barrier_radix = cfg.barrier_radix;
  scfg.profile = cfg.profile;
  scfg.schedule = ctrl.get();
  if (cfg.fault.noc_spike()) {
    if (scfg.model == nullptr) {
      return error_result(cfg.n_pes,
                          "fault injection: noc=F needs a --machine model "
                          "whose latencies it can spike");
    }
    scfg.model = replay::make_spike_model(scfg.model, cfg.fault.noc_factor);
  }
  if (cfg.executor_impl != nullptr) {
    scfg.executor = cfg.executor_impl;
  } else if (cfg.executor != shmem::ExecutorKind::kThread) {
    scfg.executor = shmem::make_executor(cfg.executor, cfg.pes_per_thread);
    if (scfg.executor == nullptr) {
      return error_result(cfg.n_pes,
                          std::string("executor '") +
                              shmem::to_string(cfg.executor) +
                              "' is not available on this platform");
    }
  }
  shmem::Runtime runtime(scfg);

  rt::CaptureSink capture(cfg.n_pes);
  rt::OutputSink* sink = cfg.sink != nullptr ? cfg.sink : &capture;
  rt::VectorInput vec_input(cfg.stdin_lines, cfg.n_pes);
  rt::InputSource* input = cfg.input != nullptr ? cfg.input : &vec_input;
  std::optional<replay::FaultyInput> faulty_input;
  if (cfg.fault.input_fault()) {
    faulty_input.emplace(*input, cfg.fault.input_fail_after);
    input = &*faulty_input;
  }

  // Pre-compile once for the VM and JIT backends; shared read-only by
  // all PEs. The per-program slot memoizes the chunk across runs (warm
  // service jobs skip bytecode compilation entirely); its lock
  // serializes concurrent first builds from workers sharing one cached
  // program.
  std::shared_ptr<const vm::Chunk> chunk;
  if (backend == Backend::kVm || backend == Backend::kJit) {
    if (prog.vm_slot != nullptr) {
      std::lock_guard<std::mutex> g(prog.vm_slot->m);
      if (prog.vm_slot->chunk == nullptr) {
        prog.vm_slot->chunk = std::make_shared<const vm::Chunk>(
            vm::compile_program(prog.program, prog.analysis));
      }
      chunk = prog.vm_slot->chunk;
    } else {
      chunk = std::make_shared<const vm::Chunk>(
          vm::compile_program(prog.program, prog.analysis));
    }
  }

  // Lower the chunk to machine code for the JIT backend (per-program
  // memo over the process-wide single-flight code cache).
  std::shared_ptr<const codegen::JitProgram> jit;
  if (backend == Backend::kJit) {
    std::string jerr;
    if (prog.jit_slot != nullptr) {
      std::lock_guard<std::mutex> g(prog.jit_slot->m);
      if (prog.jit_slot->prog == nullptr) {
        prog.jit_slot->prog = codegen::JitProgram::get_or_build(chunk, &jerr);
      }
      jit = prog.jit_slot->prog;
    } else {
      jit = codegen::JitProgram::get_or_build(chunk, &jerr);
    }
    if (jit == nullptr) {
      return error_result(cfg.n_pes, "jit backend: " + jerr);
    }
  }

  std::atomic<bool> step_limited{false};
  std::atomic<bool> pe_failed{false};
  AbortToken::Binding abort_binding(cfg.abort, runtime);
  const double setup_ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - t_run0)
                              .count();
  shmem::LaunchResult lr;
  try {
    lr = runtime.launch([&](shmem::Pe& pe) {
    // launch() resets the runtime's abort flag; re-assert a request that
    // raced into the window between Binding construction and that reset
    // so an early deadline/cancel can never be lost.
    if (cfg.abort != nullptr && cfg.abort->requested()) pe.runtime().abort();
    rt::ExecContext ctx(pe, cfg.seed, *sink, *input, cfg.max_steps);
    if (cfg.fault.kill() && cfg.fault.kill_pe == pe.id()) {
      ctx.kill_at_step = cfg.fault.kill_step;
    }
    try {
      switch (backend) {
        case Backend::kInterp:
          interp::run_pe(prog.program, prog.analysis, ctx);
          break;
        case Backend::kVm:
          vm::run_pe(*chunk, ctx);
          break;
        case Backend::kJit:
          jit->run_pe(ctx);
          break;
      }
    } catch (const support::StepLimitError&) {
      step_limited.store(true, std::memory_order_relaxed);
      throw;  // the launch captures it as this PE's error and aborts peers
    } catch (const support::PeKilledError&) {
      pe_failed.store(true, std::memory_order_relaxed);
      throw;
    }
    });
  } catch (const std::exception& e) {
    // Launch-resource failure: fiber stacks under memory pressure
    // (support::RuntimeError) or raw std::system_error/bad_alloc from
    // thread spawns. No PE ran; report it like any other pre-launch
    // error instead of letting it escape to terminate a CLI or daemon.
    return error_result(cfg.n_pes, e.what());
  }

  RunResult result;
  result.ok = lr.ok;
  result.step_limited = step_limited.load(std::memory_order_relaxed);
  if (result.step_limited) engine_metrics().step_limited.inc();
  result.aborted = cfg.abort != nullptr && cfg.abort->requested();
  result.pe_failed = pe_failed.load(std::memory_order_relaxed);
  result.errors = std::move(lr.errors);
  result.sim_ns = std::move(lr.sim_ns);
  result.pe_profiles = std::move(lr.profiles);

  if (ctrl != nullptr) {
    if (cfg.schedule == replay::ScheduleMode::kReplay) {
      // Divergence: the controller flagged it, the trace did not fully
      // drain, or the per-PE RNG draw counts disagree with the footer.
      std::string why = ctrl->failure();
      if (why.empty() && result.ok) {
        if (ctrl->events_consumed() != cfg.replay_trace->schedule.size()) {
          why = "trace not fully consumed: " +
                std::to_string(ctrl->events_consumed()) + " of " +
                std::to_string(cfg.replay_trace->schedule.size()) +
                " events replayed";
        } else {
          for (std::size_t i = 0; i < result.pe_profiles.size() &&
                                  i < cfg.replay_trace->rng_draws.size();
               ++i) {
            if (result.pe_profiles[i].rng_draws !=
                cfg.replay_trace->rng_draws[i]) {
              why = "PE " + std::to_string(i) + " drew " +
                    std::to_string(result.pe_profiles[i].rng_draws) +
                    " WHATEVR values, trace recorded " +
                    std::to_string(cfg.replay_trace->rng_draws[i]);
              break;
            }
          }
        }
      }
      if (!why.empty()) {
        result.replay_diverged = true;
        result.ok = false;
        // Surface the divergence unless a PE already reported a real root
        // cause (collateral "SPMD aborted" deaths don't count).
        const std::string root = support::first_root_error(result.errors);
        if (!result.errors.empty() &&
            (root.empty() || root.find("SPMD aborted") != std::string::npos)) {
          result.errors[0] = "replay diverged: " + why;
        }
      }
    } else {
      // Record/perturb: package the handoff sequence as a trace.
      replay::Trace t;
      t.n_pes = cfg.n_pes;
      t.seed = cfg.seed;
      t.perturb_seed = cfg.perturb_seed;
      t.program_hash = cfg.program_hash;
      t.perturbed = cfg.schedule == replay::ScheduleMode::kPerturb;
      t.schedule = ctrl->recorded();
      t.rng_draws.reserve(result.pe_profiles.size());
      for (const auto& p : result.pe_profiles) t.rng_draws.push_back(p.rng_draws);
      result.schedule_trace = t.serialize();
      // A schedule deadlock diagnosed by the controller beats the generic
      // "SPMD aborted" messages the other PEs die with.
      if (!ctrl->failure().empty() && !result.errors.empty()) {
        const std::string root = support::first_root_error(result.errors);
        if (root.empty() || root.find("SPMD aborted") != std::string::npos) {
          result.errors[0] = ctrl->failure();
        }
      }
    }
  }
  result.setup_ms = setup_ms;
  result.claim_ms = lr.claim_ms;
  result.exec_ms = lr.exec_ms;
  if (cfg.sink == nullptr) {
    result.pe_output = capture.take_out();
    result.pe_errout = capture.take_err();
  } else {
    result.pe_output.assign(static_cast<std::size_t>(cfg.n_pes), "");
    result.pe_errout.assign(static_cast<std::size_t>(cfg.n_pes), "");
  }
  return result;
}

RunResult run_source(std::string_view source, const RunConfig& cfg) {
  CompiledProgram prog = compile(source);
  return run(prog, cfg);
}

std::string_view version() { return "1.0.0"; }

}  // namespace lol
