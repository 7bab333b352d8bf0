// Experiment J1 — the JIT's specialized regions against the VM they run
// inside.
//
// The paper's §VI kernels (1-D heat stencil, n-body accumulation),
// reduced to their inner loops, on two execution variants:
//   vm      — bytecode VM (the semantic reference)
//   jit     — the VM with its type-specialized regions in machine code
// These are probes of one layer; the end-to-end numbers on the
// unreduced paper programs live in e2ebench/. The PaperNbody rows are the
// exception: the unmodified §VI.D listing at the paper's size, on 2 PEs,
// VM against JIT — how much of the kernel rows' gain survives remote
// reads, TXT MAH BFF, UNSQUAR/FLIP and barriers.
#include <string>

#include "bench_common.hpp"
#include "codegen/jit_backend.hpp"
#include "core/paper_programs.hpp"

namespace {

// §VI heat: Jacobi sweeps over a private SRSLY NUMBAR block. Indexed
// loads/stores stay helper calls; the stencil arithmetic and the loop
// counters are what the specialized regions lift into registers.
std::string heat_kernel(int sweeps) {
  return "HAI 1.2\n"
         "I HAS A u ITZ SRSLY LOTZ A NUMBARS AN THAR IZ 66\n"
         "I HAS A unew ITZ SRSLY LOTZ A NUMBARS AN THAR IZ 66\n"
         "u'Z 33 R 100.0\n"
         "IM IN YR sweeps UPPIN YR t TIL BOTH SAEM t AN " +
         std::to_string(sweeps) +
         "\n"
         "  IM IN YR cells UPPIN YR i TIL BOTH SAEM i AN 64\n"
         "    I HAS A c ITZ A NUMBR AN ITZ SUM OF i AN 1\n"
         "    unew'Z c R SUM OF u'Z c AN PRODUKT OF 0.25 AN "
         "SUM OF DIFF OF u'Z DIFF OF c AN 1 AN u'Z c "
         "AN DIFF OF u'Z SUM OF c AN 1 AN u'Z c\n"
         "  IM OUTTA YR cells\n"
         "  IM IN YR copy UPPIN YR i TIL BOTH SAEM i AN 64\n"
         "    I HAS A c ITZ A NUMBR AN ITZ SUM OF i AN 1\n"
         "    u'Z c R unew'Z c\n"
         "  IM OUTTA YR copy\n"
         "IM OUTTA YR sweeps\n"
         "I HAS A total ITZ A NUMBAR AN ITZ 0.0\n"
         "IM IN YR sum UPPIN YR i TIL BOTH SAEM i AN 64\n"
         "  total R SUM OF total AN u'Z SUM OF i AN 1\n"
         "IM OUTTA YR sum\n"
         "VISIBLE total\n"
         "KTHXBYE\n";
}

// §VI n-body: the pairwise force accumulation, with the softened
// inverse square replaced by its multiply/add core (QUOSHUNT can throw,
// which would end every region) — straight-line NUMBAR arithmetic, the
// specialized regions' best case.
std::string nbody_kernel(int pairs) {
  return "HAI 1.2\n"
         "I HAS A fx ITZ SRSLY A NUMBAR AN ITZ 0.0\n"
         "I HAS A fy ITZ SRSLY A NUMBAR AN ITZ 0.0\n"
         "I HAS A xi ITZ SRSLY A NUMBAR AN ITZ 0.5\n"
         "I HAS A yi ITZ SRSLY A NUMBAR AN ITZ 0.25\n"
         "IM IN YR pairs UPPIN YR j TIL BOTH SAEM j AN " +
         std::to_string(pairs) +
         "\n"
         "  I HAS A dx ITZ A NUMBAR AN ITZ DIFF OF PRODUKT OF 0.001 AN j "
         "AN xi\n"
         "  I HAS A dy ITZ A NUMBAR AN ITZ DIFF OF PRODUKT OF 0.002 AN j "
         "AN yi\n"
         "  I HAS A r2 ITZ A NUMBAR AN ITZ SUM OF SUM OF SQUAR OF dx AN "
         "SQUAR OF dy AN 0.01\n"
         "  I HAS A w ITZ A NUMBAR AN ITZ SMALLR OF r2 AN 1.0\n"
         "  fx R SUM OF fx AN PRODUKT OF dx AN w\n"
         "  fy R SUM OF fy AN PRODUKT OF dy AN w\n"
         "IM OUTTA YR pairs\n"
         "VISIBLE SUM OF fx AN fy\n"
         "KTHXBYE\n";
}

constexpr int kSweeps = 300;
constexpr int kPairs = 20000;

constexpr int kPaperParticles = 32;
constexpr int kPaperSteps = 10;
constexpr int kPaperPes = 2;

void run_variant(benchmark::State& state, const std::string& src,
                 lol::Backend backend, std::int64_t items, int n_pes = 1) {
  if (backend == lol::Backend::kJit && !lol::codegen::jit_available()) {
    state.SkipWithError("jit unavailable on this host");
    return;
  }
  auto prog = bench::compile_once(src);
  lol::RunConfig cfg;
  cfg.backend = backend;
  cfg.n_pes = n_pes;
  // Warm the code caches outside the timed loop (the JIT emits on the
  // cold run).
  if (!lol::run(prog, cfg).ok) {
    state.SkipWithError("warmup run failed");
    return;
  }
  for (auto _ : state) {
    auto r = bench::must_run(prog, cfg, state);
    benchmark::DoNotOptimize(r.ok);
  }
  state.SetItemsProcessed(state.iterations() * items);
}

constexpr std::int64_t kHeatItems =
    static_cast<std::int64_t>(kSweeps) * 2 * 64;

void BM_Heat_Vm(benchmark::State& s) {
  run_variant(s, heat_kernel(kSweeps), lol::Backend::kVm, kHeatItems);
}
void BM_Heat_JitSpecialized(benchmark::State& s) {
  run_variant(s, heat_kernel(kSweeps), lol::Backend::kJit, kHeatItems);
}

void BM_Nbody_Vm(benchmark::State& s) {
  run_variant(s, nbody_kernel(kPairs), lol::Backend::kVm, kPairs);
}
void BM_Nbody_JitSpecialized(benchmark::State& s) {
  run_variant(s, nbody_kernel(kPairs), lol::Backend::kJit, kPairs);
}

// Pair interactions one PE evaluates: its particles against every
// particle of the gang, each time step.
constexpr std::int64_t kPaperItems = static_cast<std::int64_t>(kPaperSteps) *
                                     kPaperParticles * kPaperParticles *
                                     kPaperPes;

void BM_PaperNbody_Vm(benchmark::State& s) {
  run_variant(s, lol::paper::nbody_program(kPaperParticles, kPaperSteps, true),
              lol::Backend::kVm, kPaperItems, kPaperPes);
}
void BM_PaperNbody_JitSpecialized(benchmark::State& s) {
  run_variant(s, lol::paper::nbody_program(kPaperParticles, kPaperSteps, true),
              lol::Backend::kJit, kPaperItems, kPaperPes);
}

}  // namespace

BENCHMARK(BM_Heat_Vm)->Unit(benchmark::kMillisecond)->MinTime(0.2);
BENCHMARK(BM_Heat_JitSpecialized)
    ->Unit(benchmark::kMillisecond)
    ->MinTime(0.2);
BENCHMARK(BM_Nbody_Vm)->Unit(benchmark::kMillisecond)->MinTime(0.2);
BENCHMARK(BM_Nbody_JitSpecialized)
    ->Unit(benchmark::kMillisecond)
    ->MinTime(0.2);
BENCHMARK(BM_PaperNbody_Vm)->Unit(benchmark::kMillisecond)->MinTime(0.2);
BENCHMARK(BM_PaperNbody_JitSpecialized)
    ->Unit(benchmark::kMillisecond)
    ->MinTime(0.2);

int main(int argc, char** argv) {
  // Keep stdout machine-readable under --benchmark_format=json (CI
  // parses the archived JSON).
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]).find("json") != std::string::npos) json = true;
  }
  if (!json) {
    bench::banner("J1 (specialized JIT regions)",
                  "JIT vs VM on the SVI heat and n-body inner "
                  "loops (items = inner-loop iterations), and JIT vs VM "
                  "on the unreduced SVI.D n-body (items = pair "
                  "interactions per PE).");
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
