// Experiment A6 — cold-compile latency: Backend::kJit against the VM.
//
// The service's cold path is "new source arrives, nothing is cached":
// the JIT lowers the bytecode chunk in-process (emit + mmap/mprotect),
// the VM runs the chunk with no backend build at all. The question is
// how much of a classroom-sized program's first run the JIT's emit
// costs. Every iteration uses a fresh, never-before-seen source so the
// single-flight cache and the per-program memos miss — this measures
// the miss path, nothing else.
//
// (Warm columns are in bench_backends.cpp; steady-state throughput is
// not at issue here.)
#include <atomic>
#include <cstdio>
#include <string>

#include "bench_common.hpp"
#include "codegen/jit_backend.hpp"

namespace {

std::atomic<std::uint64_t> salt_counter{0};

// Classroom-sized program (functions, loops, conditionals, string ops);
// the embedded salt makes every instance a distinct source, so each
// build is genuinely cold on every backend cache layer.
std::string fresh_source() {
  std::string salt = std::to_string(salt_counter.fetch_add(1));
  return "HAI 1.2\n"
         "BTW cold-compile salt " + salt + "\n"
         "HOW IZ I fib YR n\n"
         "  DIFFRINT n AN SMALLR OF n AN 1, O RLY?\n"
         "  YA RLY\n"
         "    FOUND YR SUM OF I IZ fib YR DIFF OF n AN 1 MKAY AN I IZ "
         "fib YR DIFF OF n AN 2 MKAY\n"
         "  OIC\n"
         "  FOUND YR n\n"
         "IF U SAY SO\n"
         "I HAS A acc ITZ 0\n"
         "IM IN YR l UPPIN YR i TIL BOTH SAEM i AN 10\n"
         "  acc R SUM OF acc AN I IZ fib YR i MKAY\n"
         "IM OUTTA YR l\n"
         "VISIBLE SMOOSH \"acc=\" AN acc AN \" salt=" + salt + "\" MKAY\n"
         "KTHXBYE\n";
}

/// Times backend build + first run on a never-seen source. The frontend
/// compile (lex/parse/sema) happens outside the timer — it is identical
/// for both backends and not what the JIT changes.
void cold_run(benchmark::State& state, lol::Backend backend) {
  lol::RunConfig cfg;
  cfg.backend = backend;
  for (auto _ : state) {
    state.PauseTiming();
    lol::CompiledProgram prog = lol::compile(fresh_source());
    state.ResumeTiming();
    auto r = bench::must_run(prog, cfg, state);
    benchmark::DoNotOptimize(r.ok);
  }
}

void BM_ColdJit(benchmark::State& state) {
  if (!lol::codegen::jit_available()) {
    state.SkipWithError("jit unavailable (non-x86-64 or LOL_JIT=0)");
    return;
  }
  cold_run(state, lol::Backend::kJit);
}

/// Reference point: the VM runs the chunk with zero backend build work,
/// so this is the floor any cold-compile scheme is chasing.
void BM_ColdVm(benchmark::State& state) {
  cold_run(state, lol::Backend::kVm);
}

}  // namespace

BENCHMARK(BM_ColdJit)->Unit(benchmark::kMillisecond)->MinTime(0.5);
BENCHMARK(BM_ColdVm)->Unit(benchmark::kMillisecond)->MinTime(0.5);

int main(int argc, char** argv) {
  bench::banner("A6 (cold compiles)",
                "Cold compile+first-run latency on a fresh source: "
                "in-process x86-64 JIT vs the VM's zero-build floor.");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
