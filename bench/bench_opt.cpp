// Experiment E-OPT — what the optimizing middle-end buys each backend.
//
// Runs the §VI hot-loop workloads (heat_1d, n-body, barrier-sum) at -O0
// and -O2 on the interp, VM and JIT backends. Warm rows compile once and
// time run() alone (after one untimed run, so the JIT's emit is not in
// them). Cold rows time compile() plus run() per iteration on lolrun's
// default VM backend, so the optimizer's own cost is in the total: a
// pass that saves less run time than it costs compile time shows up as
// a slower -O2 cold row.
#include <sstream>
#include <string>

#include "bench_common.hpp"
#include "codegen/jit_backend.hpp"
#include "core/paper_programs.hpp"

namespace {

// heat_1d: the shipped example's algorithm (8 interior cells + halo
// exchange) with enough time steps that the per-iteration work, not the
// gang launch, dominates. The time loop stays a loop (trip > unroll
// bound); the 8-cell stencil and copy loops unroll, their indices fold,
// and the per-iteration `c = i + 1` temporaries propagate away.
std::string heat_source(int steps) {
  std::ostringstream ss;
  ss << "HAI 1.2\n"
        "WE HAS A u ITZ SRSLY LOTZ A NUMBARS AN THAR IZ 10\n"
        "I HAS A unew ITZ SRSLY LOTZ A NUMBARS AN THAR IZ 10\n"
        "I HAS A left ITZ A NUMBR AN ITZ DIFF OF ME AN 1\n"
        "I HAS A rite ITZ A NUMBR AN ITZ SUM OF ME AN 1\n"
        "I HAS A lastcell ITZ A NUMBR AN ITZ 8\n"
        "BOTH SAEM ME AN 0, O RLY?\nYA RLY\n  u'Z 5 R 100.0\nOIC\nHUGZ\n"
        "IM IN YR steps UPPIN YR t TIL BOTH SAEM t AN "
     << steps
     << "\n"
        "  BIGGER ME AN 0, O RLY?\n  YA RLY\n"
        "    TXT MAH BFF left, UR u'Z SUM OF lastcell AN 1 R MAH u'Z 1\n"
        "  OIC\n"
        "  SMALLR ME AN DIFF OF MAH FRENZ AN 1, O RLY?\n  YA RLY\n"
        "    TXT MAH BFF rite, UR u'Z 0 R MAH u'Z lastcell\n"
        "  OIC\n  HUGZ\n"
        "  IM IN YR cells UPPIN YR i TIL BOTH SAEM i AN lastcell\n"
        "    I HAS A c ITZ A NUMBR AN ITZ SUM OF i AN 1\n"
        "    unew'Z c R SUM OF u'Z c AN PRODUKT OF 0.25 AN ...\n"
        "      SUM OF DIFF OF u'Z DIFF OF c AN 1 AN u'Z c ...\n"
        "      AN DIFF OF u'Z SUM OF c AN 1 AN u'Z c\n"
        "  IM OUTTA YR cells\n"
        "  IM IN YR copy UPPIN YR i TIL BOTH SAEM i AN lastcell\n"
        "    I HAS A c ITZ A NUMBR AN ITZ SUM OF i AN 1\n"
        "    u'Z c R unew'Z c\n"
        "  IM OUTTA YR copy\n  HUGZ\n"
        "IM OUTTA YR steps\n"
        "I HAS A total ITZ A NUMBAR AN ITZ 0.0\n"
        "IM IN YR sum UPPIN YR i TIL BOTH SAEM i AN lastcell\n"
        "  total R SUM OF total AN u'Z SUM OF i AN 1\n"
        "IM OUTTA YR sum\n"
        "VISIBLE \"PE \" ME \" BLOCK HEAT \" total\n"
        "KTHXBYE\n";
  return ss.str();
}

// n-body sized to unroll: 8 particles keep both interaction loops under
// the unroll trip bound (the paper's 32 exercises the non-unrolled
// path); 60 time steps amortize the launch.
std::string nbody_source() { return lol::paper::nbody_program(8, 60, false); }

std::string barrier_source() { return lol::paper::barrier_sum_listing(); }

lol::CompiledProgram compile_at(const std::string& src, int level) {
  lol::CompileOptions copts;
  copts.opt_level = level;
  return lol::compile(src, copts);
}

void run_workload(benchmark::State& state, const std::string& src,
                  lol::Backend backend, int opt_level, int n_pes) {
  if (backend == lol::Backend::kJit && !lol::codegen::jit_available()) {
    state.SkipWithError("jit unavailable on this host");
    return;
  }
  auto prog = compile_at(src, opt_level);
  lol::RunConfig cfg;
  cfg.n_pes = n_pes;
  cfg.backend = backend;
  if (!lol::run(prog, cfg).ok) {
    state.SkipWithError("warmup run failed");
    return;
  }
  for (auto _ : state) {
    auto r = bench::must_run(prog, cfg, state);
    benchmark::DoNotOptimize(r.ok);
  }
  state.SetLabel(std::string(lol::to_string(backend)) + " -O" +
                 std::to_string(opt_level));
  state.SetItemsProcessed(state.iterations());
}

void run_cold(benchmark::State& state, const std::string& src,
              int opt_level, int n_pes) {
  lol::RunConfig cfg;
  cfg.n_pes = n_pes;
  cfg.backend = lol::Backend::kVm;
  for (auto _ : state) {
    auto prog = compile_at(src, opt_level);
    auto r = bench::must_run(prog, cfg, state);
    benchmark::DoNotOptimize(r.ok);
  }
  state.SetLabel(std::string(lol::to_string(cfg.backend)) + " -O" +
                 std::to_string(opt_level) + " cold");
  state.SetItemsProcessed(state.iterations());
}

void BM_OptHeat1d(benchmark::State& state) {
  run_workload(state, heat_source(400),
               static_cast<lol::Backend>(state.range(0)),
               static_cast<int>(state.range(1)), 2);
}

void BM_OptNbody(benchmark::State& state) {
  run_workload(state, nbody_source(),
               static_cast<lol::Backend>(state.range(0)),
               static_cast<int>(state.range(1)), 2);
}

void BM_OptBarrierSum(benchmark::State& state) {
  run_workload(state, barrier_source(),
               static_cast<lol::Backend>(state.range(0)),
               static_cast<int>(state.range(1)), 4);
}

void BM_OptColdHeat1d(benchmark::State& state) {
  run_cold(state, heat_source(400), static_cast<int>(state.range(0)), 2);
}

void BM_OptColdNbody(benchmark::State& state) {
  run_cold(state, nbody_source(), static_cast<int>(state.range(0)), 2);
}

void BM_OptColdBarrierSum(benchmark::State& state) {
  run_cold(state, barrier_source(), static_cast<int>(state.range(0)), 4);
}

void opt_args(benchmark::internal::Benchmark* b) {
  for (auto backend :
       {lol::Backend::kInterp, lol::Backend::kVm, lol::Backend::kJit}) {
    for (int level : {0, 2}) {
      b->Args({static_cast<long>(backend), level});
    }
  }
  b->Unit(benchmark::kMillisecond);
}

void cold_args(benchmark::internal::Benchmark* b) {
  b->Arg(0)->Arg(2)->Unit(benchmark::kMillisecond);
}

BENCHMARK(BM_OptHeat1d)->Apply(opt_args);
BENCHMARK(BM_OptNbody)->Apply(opt_args);
BENCHMARK(BM_OptBarrierSum)->Apply(opt_args);
BENCHMARK(BM_OptColdHeat1d)->Apply(cold_args);
BENCHMARK(BM_OptColdNbody)->Apply(cold_args);
BENCHMARK(BM_OptColdBarrierSum)->Apply(cold_args);

}  // namespace

int main(int argc, char** argv) {
  bench::banner("E-OPT",
                "Optimizing middle-end: -O0 vs -O2 per backend on the "
                "paper's SVI hot-loop workloads, warm and cold");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
