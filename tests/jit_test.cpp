// JIT backend tests: x86-64 availability and parity with the VM,
// single-flight deduplication of concurrent cold JIT emits, and
// compile-cache recharging of sealed JIT code bytes.
#include <gtest/gtest.h>

#include <cstdlib>
#include <latch>
#include <string>
#include <thread>
#include <vector>

#include "codegen/jit_backend.hpp"
#include "core/engine.hpp"
#include "obs/metrics.hpp"
#include "service/compile_cache.hpp"

namespace {

using lol::Backend;
using lol::RunConfig;
using lol::RunResult;

// A program with enough structure to exercise most emitted ops:
// functions and calls, loops, conditionals. The salt rides in a string
// *literal* (not a comment — comments don't survive into the bytecode
// chunk), so every backend cache key derived from the program is unique
// per test and cold-compile tests are not poisoned by other tests that
// compiled the same semantics earlier in the process.
std::string salted_source(const std::string& salt) {
  return "HAI 1.2\n"
         "I HAS A salt ITZ \"" + salt + "\"\n"
         "HOW IZ I fib YR n\n"
         "  DIFFRINT n AN SMALLR OF n AN 1, O RLY?\n"
         "  YA RLY\n"
         "    FOUND YR SUM OF I IZ fib YR DIFF OF n AN 1 MKAY AN I IZ "
         "fib YR DIFF OF n AN 2 MKAY\n"
         "  OIC\n"
         "  FOUND YR n\n"
         "IF U SAY SO\n"
         "I HAS A r ITZ I IZ fib YR 10 MKAY\n"
         "VISIBLE SMOOSH \"fib=\" AN r MKAY\n"
         "KTHXBYE\n";
}

RunResult run_backend(const lol::CompiledProgram& prog, Backend b,
                      int n_pes = 1) {
  RunConfig cfg;
  cfg.n_pes = n_pes;
  cfg.backend = b;
  return lol::run(prog, cfg);
}

TEST(Jit, AvailabilityIsReported) {
#if defined(__x86_64__)
  const char* env = std::getenv("LOL_JIT");
  if (env != nullptr && std::string(env) == "0") {
    EXPECT_FALSE(lol::codegen::jit_available());
  } else if (!lol::codegen::jit_available()) {
    GTEST_SKIP() << "x86-64 host but no executable mmap (hardened "
                    "kernel?): jit column skipped";
  }
#else
  EXPECT_FALSE(lol::codegen::jit_available());
#endif
}

TEST(Jit, ByteIdenticalToVmAndChargesCodeBytes) {
  if (!lol::codegen::jit_available()) GTEST_SKIP() << "jit unavailable";
  auto prog = lol::compile(salted_source("parity"));
  EXPECT_EQ(prog.jit_code_bytes(), 0u) << "charged before any jit run";

  RunResult vm = run_backend(prog, Backend::kVm, 2);
  RunResult jit = run_backend(prog, Backend::kJit, 2);
  ASSERT_TRUE(vm.ok) << vm.first_error();
  ASSERT_TRUE(jit.ok) << jit.first_error();
  EXPECT_EQ(jit.pe_output, vm.pe_output);
  EXPECT_EQ(jit.pe_errout, vm.pe_errout);
  EXPECT_NE(jit.pe_output.at(0).find("fib=55"), std::string::npos);

  // The run memoized the sealed code on the program; the compile cache
  // uses this to charge JIT code against its byte budget.
  EXPECT_GT(prog.jit_code_bytes(), 0u);
}

// Single-flight on the JIT path: one emit per distinct chunk, no matter
// how many programs race to it cold.
TEST(Jit, ConcurrentColdJitCompilesEmitExactlyOnce) {
  if (!lol::codegen::jit_available()) GTEST_SKIP() << "jit unavailable";
  const std::string source = salted_source("jit-single-flight");
  constexpr int kThreads = 8;
  std::vector<lol::CompiledProgram> programs;
  programs.reserve(kThreads);
  // -O0: the salt declaration is dead code the optimizer would remove,
  // and cold-compile tests depend on per-test-unique compiled shapes.
  lol::CompileOptions copts;
  copts.opt_level = 0;
  for (int i = 0; i < kThreads; ++i) {
    programs.push_back(lol::compile(source, copts));
  }

  lol::obs::Counter& compiles = lol::obs::Registry::global().counter(
      "lol_jit_compiles_total", "Bytecode-to-x86-64 JIT compilations");
  const std::uint64_t before = compiles.value();

  std::latch start(kThreads);
  std::vector<std::thread> threads;
  std::vector<RunResult> results(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      start.arrive_and_wait();
      results[i] = run_backend(programs[i], Backend::kJit);
    });
  }
  for (auto& t : threads) t.join();

  for (int i = 0; i < kThreads; ++i) {
    ASSERT_TRUE(results[i].ok) << results[i].first_error();
    EXPECT_EQ(results[i].pe_output, results[0].pe_output);
  }
  EXPECT_EQ(compiles.value() - before, 1u)
      << "concurrent identical cold jobs must share one JIT emit";
}

TEST(Jit, CompileCacheRechargesJitCodeBytes) {
  if (!lol::codegen::jit_available()) GTEST_SKIP() << "jit unavailable";
  lol::service::CompileCache cache(8, 32u << 20);
  const std::string source = salted_source("cache-recharge");
  auto compiled = cache.get_or_compile(source);
  ASSERT_TRUE(compiled.ok()) << compiled.error;
  const std::size_t charged = cache.resident_bytes();
  EXPECT_EQ(charged,
            lol::service::CompileCache::charged_bytes(source.size()));

  // Before any JIT run the recharge is a no-op...
  cache.recharge(source);
  EXPECT_EQ(cache.resident_bytes(), charged);

  // ...after one it folds the sealed code into the budget, exactly as
  // the program reports it.
  RunResult r = run_backend(*compiled.program, Backend::kJit);
  ASSERT_TRUE(r.ok) << r.first_error();
  ASSERT_GT(compiled.program->jit_code_bytes(), 0u);
  cache.recharge(source);
  EXPECT_EQ(cache.resident_bytes(),
            charged + compiled.program->jit_code_bytes());

  // Recharging twice does not double-charge.
  cache.recharge(source);
  EXPECT_EQ(cache.resident_bytes(),
            charged + compiled.program->jit_code_bytes());
}

// Typed arithmetic on SRSLY locals runs in a specialized region. Parity
// must hold not just on output but on step *accounting*: the region's
// batches plus the VM's charge for the region entry add up to exactly
// the VM's steps, so at every budget the two backends agree on whether
// the run step-limits.
TEST(Jit, TypedArithmeticMatchesVmStepsExactly) {
  if (!lol::codegen::jit_available()) GTEST_SKIP() << "jit unavailable";
  const std::string src =
      "HAI 1.2\n"
      "I HAS A salt ITZ \"typed-arith\"\n"
      "I HAS A s ITZ SRSLY A NUMBR AN ITZ 1\n"
      "I HAS A f ITZ SRSLY A NUMBAR AN ITZ 1.5\n"
      "IM IN YR lp UPPIN YR i TIL BOTH SAEM i AN 20\n"
      "  s R SUM OF s AN 3\n"
      "  s R PRODUKT OF s AN 2\n"
      "  s R SMALLR OF s AN 100000\n"
      "  s R BIGGR OF s AN 7\n"
      "  s R DIFF OF s AN 1\n"
      "  f R SUM OF f AN 0.25\n"
      "  f R PRODUKT OF f AN 1.01\n"
      "  f R DIFF OF f AN 0.125\n"
      "IM OUTTA YR lp\n"
      "VISIBLE SMOOSH s AN \" \" AN f MKAY\n"
      "KTHXBYE\n";
  // Level 0 keeps the loop (and its typed kBinary ops) in the bytecode
  // instead of letting the optimizer fold the whole thing.
  lol::CompileOptions copts;
  copts.opt_level = 0;
  auto prog = lol::compile(src, copts);

  for (std::uint64_t budget : {40u, 120u, 400u, 0u}) {
    RunConfig cfg;
    cfg.n_pes = 2;
    cfg.max_steps = budget;
    cfg.backend = Backend::kVm;
    RunResult vm = lol::run(prog, cfg);
    cfg.backend = Backend::kJit;
    RunResult jit = lol::run(prog, cfg);
    EXPECT_EQ(jit.ok, vm.ok) << "budget " << budget;
    EXPECT_EQ(jit.step_limited, vm.step_limited) << "budget " << budget;
    EXPECT_EQ(jit.pe_output, vm.pe_output) << "budget " << budget;
    EXPECT_EQ(jit.pe_errout, vm.pe_errout) << "budget " << budget;
  }
}

}  // namespace
