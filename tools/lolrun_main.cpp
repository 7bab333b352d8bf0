// lolrun — run a parallel LOLCODE program directly (the in-process
// analogue of `coprsh -np N ./program`):
//
//   lolrun -np 16 nbody.lol
//   lolrun --backend vm --machine epiphany3 --sim -np 16 nbody.lol
#include <cstdio>
#include <iostream>
#include <limits>

#if !defined(_WIN32)
#include <unistd.h>
#endif

#include "core/engine.hpp"
#include "ast/printer.hpp"
#include "driver/cli.hpp"
#include "noc/machines.hpp"
#include "opt/tuner.hpp"
#include "parse/parser.hpp"
#include "rt/io.hpp"
#include "service/run_request.hpp"
#include "service/service.hpp"
#include "shmem/runtime.hpp"
#include "support/error.hpp"
#include "vm/compiler.hpp"

namespace {

int usage(const char* prog, const lol::service::Job& defaults) {
  std::fprintf(
      stderr,
      "usage: %s [options] <program.lol>\n%s"
      "  --machine <m>      epiphany3 | xc40 | smp: enable simulated time\n"
      "  --sim              print per-run simulated time (needs --machine)\n"
      "  --record <file>    serialize the gang on a deterministic schedule\n"
      "                     and write the trace to <file>\n"
      "  --shake <N>        schedule shaker: run once recorded, then under N\n"
      "                     perturbation seeds; exit 4 + failing seed (and\n"
      "                     its trace, with --record) on any output mismatch\n"
      "  --shake-seed <B>   first perturbation seed for --shake (default 1)\n"
      "  --profile          print a per-PE runtime profile (steps, barrier\n"
      "                     and lock waits, GIMMEH blocks) to stderr\n"
      "  --tag              prefix output lines with [peN] ([peN!] for a\n"
      "                     PE's last text without a newline)\n"
      "  --no-stdin         do not feed piped stdin to GIMMEH\n"
      "  --tune             run short calibration runs, print the chosen\n"
      "                     runtime knobs, and persist them (--tuner-cache)\n"
      "  --tuner-cache <f>  tuned-knob store: with --tune, where to\n"
      "                     persist the winner (default .lol_tuner_cache);\n"
      "                     without it, apply the stored knobs — incl. the\n"
      "                     tuned unroll budget — to every knob this run\n"
      "                     leaves at its default\n"
      "  --jit-dump         --backend jit: hex + annotated dump of emitted\n"
      "                     regions to stderr (same as LOL_JIT_DUMP=1)\n"
      "  --dump-ast         print the (optimized) AST and exit\n"
      "  --dump-bytecode    print compiled bytecode and exit\n"
      "exit status: 1 error, 2 usage, 3 step budget spent, 4 shake\n"
      "divergence, 5 a fault killed a PE, 6 replay diverged\n",
      prog, lol::service::knob_usage(defaults).c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  lol::driver::Cli cli(argc, argv);
  // lolrun's default request differs from the service's in one knob:
  // PEs get their own threads. (Its caps below leave the step budget
  // unlimited by default.)
  lol::service::Job defaults;
  defaults.executor = lol::shmem::ExecutorKind::kThread;
  lol::service::Job job = defaults;
  std::optional<std::string> record_path = cli.option("--record");
  if (record_path) job.schedule = lol::replay::ScheduleMode::kRecord;
  lol::service::read_flags(cli, job);

  lol::noc::ModelPtr machine;
  bool want_sim = cli.has_flag("--sim");
  if (auto name = cli.option("--machine")) {
    machine = lol::noc::by_name(*name);
    if (machine == nullptr) {
      std::fprintf(stderr, "lolrun: unknown machine '%s'\n", name->c_str());
      return 2;
    }
  }
  const int shake = static_cast<int>(
      cli.int_option("--shake", 0, std::numeric_limits<int>::max())
          .value_or(0));
  const std::uint64_t shake_seed = cli.uint_option("--shake-seed").value_or(1);
  if (shake != 0 && job.schedule == lol::replay::ScheduleMode::kReplay) {
    const auto& replay = lol::service::knob(lol::service::KnobId::kReplay);
    cli.fail(std::string(replay.flag) + " excludes --shake");
  }
  bool profile = cli.has_flag("--profile");
  bool tag = cli.has_flag("--tag");
  bool no_stdin = cli.has_flag("--no-stdin");
  bool dump_ast = cli.has_flag("--dump-ast");
  bool dump_bc = cli.has_flag("--dump-bytecode");
  bool tune = cli.has_flag("--tune");
  auto tuner_cache_flag = cli.option("--tuner-cache");
  std::string tuner_cache = tuner_cache_flag.value_or(".lol_tuner_cache");
  if (cli.has_flag("--jit-dump")) {
#if !defined(_WIN32)
    ::setenv("LOL_JIT_DUMP", "1", 1);  // read by the JIT build path
#endif
  }

  // GIMMEH reads the real stdin whenever input is piped/redirected, the
  // same behavior lcc-compiled executables always had (an interactive
  // terminal still gets the no-input default — a REPL-style prompt is a
  // different feature). --no-stdin restores the old drop-it behavior.
  lol::rt::StdinInput stdin_input;
#if !defined(_WIN32)
  if (!no_stdin && isatty(0) == 0) job.input = &stdin_input;
#else
  (void)no_stdin;
#endif

  const auto& pos = cli.positional();
  if (pos.size() != 1) return usage(argv[0], defaults);

  auto source = lol::driver::read_file(pos[0]);
  if (!source) {
    std::fprintf(stderr, "lolrun: cannot read '%s'\n", pos[0].c_str());
    return 1;
  }
  job.source = std::move(*source);

  // An explicit --tuner-cache without --tune applies a persisted
  // calibration winner, as the service does on warm hits. lolrun caps
  // nothing beyond the engine's own limits.
  std::unique_ptr<lol::opt::TunerStore> store;
  if (tuner_cache_flag && !tune) {
    store = std::make_unique<lol::opt::TunerStore>(tuner_cache);
  }
  lol::service::ServiceOptions caps;
  caps.default_max_steps = 0;
  caps.heap_bytes_cap = 0;
  caps.max_pes = lol::shmem::kMaxPes;
  lol::service::Resolved rs =
      lol::service::resolve(job, defaults, caps, store.get());
  if (!rs.error.empty()) cli.fail(rs.error);
  lol::RunConfig& cfg = rs.run;
  cfg.machine = machine;
  cfg.profile = profile;
  const std::string& src = job.source;

  try {
    lol::CompiledProgram prog = lol::compile(src, rs.compile);
    if (tune) {
      lol::opt::TunerStore tuned_store(tuner_cache);
      lol::opt::TunedKnobs knobs =
          lol::opt::calibrate(prog, src, cfg.n_pes, &tuned_store);
      std::printf(
          "tuned: barrier_radix=%d executor=%s pes_per_thread=%d "
          "unroll_max_trip=%d\n",
          knobs.barrier_radix,
          knobs.executor.empty() ? "-" : knobs.executor.c_str(),
          knobs.pes_per_thread, knobs.unroll_max_trip);
      return 0;
    }
    if (dump_ast) {
      std::cout << lol::ast::dump(prog.program) << "\n";
      return 0;
    }
    if (dump_bc) {
      std::cout << lol::vm::disassemble(
          lol::vm::compile_program(prog.program, prog.analysis));
      return 0;
    }
    if (shake > 0) {
      // Schedule shaker: one recorded baseline, then `shake` perturbed
      // runs. Any divergence in output/status is a real schedule
      // sensitivity (a race, a missing HUGZ); the failing seed's trace
      // is the repro artifact.
      lol::RunConfig scfg = cfg;
      scfg.sink = nullptr;  // capture per-PE output for comparison
      scfg.schedule = lol::replay::ScheduleMode::kRecord;
      scfg.perturb_seed = 0;
      lol::RunResult base = lol::run(prog, scfg);
      std::fprintf(stderr, "[shake] baseline: %s\n",
                   base.ok ? "ok" : base.first_error().c_str());
      for (int k = 0; k < shake; ++k) {
        const std::uint64_t s = shake_seed + static_cast<std::uint64_t>(k);
        scfg.schedule = lol::replay::ScheduleMode::kPerturb;
        scfg.perturb_seed = s;
        lol::RunResult r = lol::run(prog, scfg);
        if (r.ok == base.ok && r.step_limited == base.step_limited &&
            r.pe_output == base.pe_output && r.pe_errout == base.pe_errout) {
          std::fprintf(stderr, "[shake] seed %llu: ok\n",
                       static_cast<unsigned long long>(s));
          continue;
        }
        std::fprintf(stderr,
                     "[shake] seed %llu DIVERGED from the recorded baseline\n",
                     static_cast<unsigned long long>(s));
        for (std::size_t i = 0;
             i < r.pe_output.size() && i < base.pe_output.size(); ++i) {
          if (base.pe_output[i] != r.pe_output[i]) {
            std::fprintf(stderr, "[shake]   pe%zu stdout differs\n", i);
          }
          if (base.pe_errout[i] != r.pe_errout[i]) {
            std::fprintf(stderr, "[shake]   pe%zu stderr differs\n", i);
          }
        }
        if (!r.ok) {
          std::fprintf(stderr, "[shake]   error: %s\n",
                       r.first_error().c_str());
        }
        if (record_path) {
          if (lol::driver::write_file(*record_path, r.schedule_trace)) {
            std::fprintf(stderr, "[shake]   trace written to %s\n",
                         record_path->c_str());
          } else {
            std::fprintf(stderr, "[shake]   cannot write trace to %s\n",
                         record_path->c_str());
          }
        }
        std::fprintf(
            stderr,
            "[shake] reproduce with: lolrun --perturb-seed %llu "
            "--record t.trace %s; lolrun --replay t.trace %s\n",
            static_cast<unsigned long long>(s), pos[0].c_str(),
            pos[0].c_str());
        return 4;
      }
      std::fprintf(stderr, "[shake] %d seeds, no divergence\n", shake);
      return 0;
    }

    lol::rt::StdioSink sink(tag);
    cfg.sink = &sink;
    lol::RunResult result = lol::run(prog, cfg);
    sink.flush();
    if (record_path && !result.schedule_trace.empty()) {
      if (!lol::driver::write_file(*record_path, result.schedule_trace)) {
        std::fprintf(stderr, "lolrun: cannot write trace to '%s'\n",
                     record_path->c_str());
        return 1;
      }
    }
    if (profile) {
      // Profile goes to stderr even for failed runs: a step-limited job
      // is exactly when the per-PE step counts matter.
      // jit_steps/region_entries are the JIT's dynamic coverage: steps
      // retired in specialized regions (of `steps`) and region entries.
      std::fprintf(stderr,
                   "[profile] setup=%.3fms claim=%.3fms exec=%.3fms\n"
                   "[profile] %6s %12s %10s %12s %8s %10s %8s %12s %14s\n",
                   result.setup_ms, result.claim_ms, result.exec_ms, "pe",
                   "steps", "barriers", "barrier_ms", "locks", "lock_ms",
                   "gimmeh", "jit_steps", "region_entries");
      for (std::size_t i = 0; i < result.pe_profiles.size(); ++i) {
        const lol::obs::PeProfile& p = result.pe_profiles[i];
        std::fprintf(stderr,
                     "[profile] %6zu %12llu %10llu %12.3f %8llu %10.3f"
                     " %8llu %12llu %14llu\n",
                     i, static_cast<unsigned long long>(p.steps),
                     static_cast<unsigned long long>(p.barrier_crossings),
                     static_cast<double>(p.barrier_wait_ns) / 1e6,
                     static_cast<unsigned long long>(p.lock_acquires),
                     static_cast<double>(p.lock_wait_ns) / 1e6,
                     static_cast<unsigned long long>(p.gimmeh_blocks),
                     static_cast<unsigned long long>(p.jit_steps),
                     static_cast<unsigned long long>(p.region_entries));
      }
    }
    if (!result.ok) {
      for (const auto& e : result.errors) {
        if (!e.empty()) std::fprintf(stderr, "error: %s\n", e.c_str());
      }
      // Exit-status parity with lcc-compiled executables: 3 = killed by
      // the step budget, 5 = fault injection killed a PE, 6 = replay
      // diverged, 1 = ordinary runtime failure.
      if (result.pe_failed) return 5;
      if (result.replay_diverged) return 6;
      return result.step_limited ? 3 : 1;
    }
    if (want_sim && cfg.machine != nullptr) {
      std::fprintf(stderr, "[sim] machine=%s modeled time=%.1f ns\n",
                   cfg.machine->name().c_str(), result.max_sim_ns());
    }
    return 0;
  } catch (const lol::support::LolError& e) {
    std::fprintf(stderr, "lolrun: %s: %s\n", pos[0].c_str(), e.what());
    return 1;
  }
}
