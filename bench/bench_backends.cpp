// Experiment A1 — the paper's §II claim: "Using a compiler for LOLCODE is
// more flexible and efficient than an interpreter."
//
// The same compute-heavy program on all execution tiers:
//   interp      — tree-walking interpreter (the lci-style baseline)
//   vm          — bytecode VM (compiled dispatch)
//   lcc+cc      — the paper's pipeline: LOLCODE -> C -> host cc -> native
// The shape that must reproduce: interp < vm < lcc, with lcc approaching
// native C speed for SRSLY-typed code.
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "bench_common.hpp"
#include "driver/cli.hpp"

#ifndef LCC_BIN
#define LCC_BIN "lcc"
#endif

namespace {

// A numeric workload dominated by SRSLY NUMBAR arithmetic, so the C
// backend's native lowering can shine (the n-body inner loop shape).
std::string workload(int outer) {
  return "HAI 1.2\n"
         "I HAS A acc ITZ SRSLY A NUMBAR AN ITZ 0.0\n"
         "I HAS A x ITZ SRSLY A NUMBAR AN ITZ 1.5\n"
         "IM IN YR o UPPIN YR i TIL BOTH SAEM i AN " +
         std::to_string(outer) +
         "\n"
         "  IM IN YR in UPPIN YR j TIL BOTH SAEM j AN 100\n"
         "    acc R SUM OF acc AN FLIP OF UNSQUAR OF SUM OF SQUAR OF x "
         "AN j\n"
         "  IM OUTTA YR in\n"
         "IM OUTTA YR o\n"
         "VISIBLE acc\n"
         "KTHXBYE\n";
}

constexpr int kOuter = 400;

void BM_Interp(benchmark::State& state) {
  auto prog = bench::compile_once(workload(kOuter));
  lol::RunConfig cfg;
  cfg.backend = lol::Backend::kInterp;
  for (auto _ : state) {
    auto r = bench::must_run(prog, cfg, state);
    benchmark::DoNotOptimize(r.ok);
  }
  state.SetItemsProcessed(state.iterations() * kOuter * 100);
}

void BM_Vm(benchmark::State& state) {
  auto prog = bench::compile_once(workload(kOuter));
  lol::RunConfig cfg;
  cfg.backend = lol::Backend::kVm;
  for (auto _ : state) {
    auto r = bench::must_run(prog, cfg, state);
    benchmark::DoNotOptimize(r.ok);
  }
  state.SetItemsProcessed(state.iterations() * kOuter * 100);
}

/// The lcc pipeline through the `lcc` built alongside this bench.
/// Compiles once in setup, then benchmarks the resulting executable.
void BM_LccNative(benchmark::State& state) {
  static std::string exe = [] {
    std::string dir = "/tmp/parallol_bench";
    (void)std::system(("mkdir -p " + dir).c_str());
    std::string lol = dir + "/w.lol";
    std::string x = dir + "/w.x";
    if (!lol::driver::write_file(lol, workload(kOuter))) return std::string();
    if (std::system((std::string(LCC_BIN) + " " + lol + " -o " + x +
                     " >/dev/null 2>&1")
                        .c_str()) != 0) {
      return std::string();
    }
    return x;
  }();
  if (exe.empty()) {
    state.SkipWithError("lcc failed to build the workload (no host cc?)");
    return;
  }
  for (auto _ : state) {
    int rc = std::system((exe + " >/dev/null").c_str());
    if (rc != 0) state.SkipWithError("generated executable failed");
  }
  state.SetItemsProcessed(state.iterations() * kOuter * 100);
  state.SetLabel("includes ~ms process spawn overhead");
}

}  // namespace

BENCHMARK(BM_Interp)->Unit(benchmark::kMillisecond)->MinTime(0.1);
BENCHMARK(BM_Vm)->Unit(benchmark::kMillisecond)->MinTime(0.1);
BENCHMARK(BM_LccNative)->Unit(benchmark::kMillisecond)->MinTime(0.1);

int main(int argc, char** argv) {
  bench::banner("A1 (paper SII claim)",
                "Backend ablation: interpreter vs bytecode VM vs the "
                "paper's lcc->C->cc pipeline on a SRSLY-typed numeric "
                "kernel (items = inner-loop iterations).");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
