// Specialized JIT region tests: golden type-lattice plans (guard
// placement, spill-at-materialization exits), deopt on a mid-loop
// NUMBR -> YARN flip, step-budget exactness at region boundaries, VM-exact
// steps and barrier crossings on the unreduced paper programs, a region
// exit that resumes in the VM across a recursive call, and record ->
// replay schedule-trace identity through the specialized symmetric-array
// path.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "codegen/jit_analysis.hpp"
#include "codegen/jit_backend.hpp"
#include "core/engine.hpp"
#include "core/paper_programs.hpp"
#include "driver/cli.hpp"
#include "obs/metrics.hpp"
#include "replay/trace.hpp"
#include "vm/compiler.hpp"

namespace {

using lol::Backend;
using lol::RunConfig;
using lol::RunResult;

std::string plan_for(const std::string& source) {
  // -O0: the golden plans pin the lattice itself, not the optimizer
  // (at -O2 these toy bodies fold away to bare VISIBLEs).
  lol::CompileOptions copts;
  copts.opt_level = 0;
  auto prog = lol::compile(source, copts);
  lol::vm::Chunk chunk =
      lol::vm::compile_program(prog.program, prog.analysis);
  lol::codegen::SpecPlan plan = lol::codegen::analyze_chunk(chunk);
  return lol::codegen::describe_plan(chunk, plan);
}

RunResult run_backend(const lol::CompiledProgram& prog, Backend b,
                      int n_pes, std::uint64_t max_steps = 0) {
  RunConfig cfg;
  cfg.n_pes = n_pes;
  cfg.backend = b;
  cfg.max_steps = max_steps;
  return lol::run(prog, cfg);
}

lol::obs::Counter& spec_ops_counter() {
  return lol::obs::Registry::global().counter(
      "lol_jit_specialized_ops_total",
      "Bytecode ops retired by the type-specialized JIT tier");
}

// ---- golden type-lattice plans ----------------------------------------

TEST(JitSpec, LatticePlansDeclaresAndArithmeticAsOneRegion) {
  std::string d = plan_for(
      "HAI 1.2\n"
      "I HAS A a ITZ A NUMBR AN ITZ 3\n"
      "I HAS A b ITZ A NUMBR AN ITZ 4\n"
      "I HAS A c ITZ A NUMBR AN ITZ SUM OF PRODUKT OF a AN a AN "
      "PRODUKT OF b AN b\n"
      "VISIBLE c\n"
      "KTHXBYE\n");
  // In-region declares are guarded as still-unbound, lower to declare
  // acts, and the unprovable VISIBLE ends the region with the printed
  // value spilled at the materialization point.
  EXPECT_NE(d.find("unbound"), std::string::npos) << d;
  EXPECT_NE(d.find("=> declare"), std::string::npos) << d;
  EXPECT_NE(d.find("materialize 1"), std::string::npos) << d;
  EXPECT_NE(d.find("writeback"), std::string::npos) << d;
}

TEST(JitSpec, LatticeGuardsPreexistingLocalByDeclaredHint) {
  std::string d = plan_for(
      "HAI 1.2\n"
      "I HAS A x ITZ A NUMBR AN ITZ 7\n"
      "VISIBLE \"GO\"\n"
      "x R SUM OF x AN 1\n"
      "VISIBLE x\n"
      "KTHXBYE\n");
  // The second region reads x before writing it: the entry guard must
  // prove the cell still holds a NUMBR (payload parked in the bank).
  EXPECT_NE(d.find("scalar-numbr"), std::string::npos) << d;
}

TEST(JitSpec, LatticePromotesMixedNumbrNumbarBinaries) {
  std::string d = plan_for(
      "HAI 1.2\n"
      "I HAS A j ITZ A NUMBR AN ITZ 3\n"
      "I HAS A x ITZ A NUMBAR AN ITZ PRODUKT OF 0.5 AN j\n"
      "VISIBLE x\n"
      "KTHXBYE\n");
  // NUMBR-op-NUMBAR takes rt::arith's float path, so the int operand
  // converts in place and the op proceeds as a double op — without this
  // every mixed expression would end its region mid-statement.
  EXPECT_NE(d.find("bin PRODUKT OF numbar (promote rhs)"),
            std::string::npos)
      << d;
  // Parity with the VM on the same mix.
  lol::RunConfig vm_cfg, jit_cfg;
  vm_cfg.backend = lol::Backend::kVm;
  jit_cfg.backend = lol::Backend::kJit;
  auto prog = lol::compile(
      "HAI 1.2\n"
      "I HAS A acc ITZ A NUMBAR AN ITZ 0.0\n"
      "IM IN YR loop UPPIN YR j TIL BOTH SAEM j AN 9\n"
      "  acc R SUM OF acc AN PRODUKT OF 0.25 AN j\n"
      "  BOTH SAEM j AN SMALLR OF 4.5 AN j\n"  // mixed compare, mixed min
      "IM OUTTA YR loop\n"
      "VISIBLE acc\n"
      "KTHXBYE\n");
  auto vm = lol::run(prog, vm_cfg);
  auto jit = lol::run(prog, jit_cfg);
  ASSERT_TRUE(vm.ok) << vm.first_error();
  ASSERT_TRUE(jit.ok) << jit.first_error();
  EXPECT_EQ(vm.pe_output, jit.pe_output);
}

TEST(JitSpec, LatticeSpecializesSymmetricArraysBehindGuards) {
  std::string d = plan_for(
      "HAI 1.2\n"
      "WE HAS A v ITZ SRSLY LOTZ A NUMBRS AN THAR IZ 4\n"
      "v'Z 0 R 5\n"
      "VISIBLE v'Z 0\n"
      "KTHXBYE\n");
  // Symmetric lanes are raw typed slots: indexed local access lowers to
  // arr acts behind a sym-array guard (the helper preserves the
  // schedule-yield token order and the sim-time charge).
  EXPECT_NE(d.find("sym-array-numbr"), std::string::npos) << d;
  EXPECT_NE(d.find("=> arr-store"), std::string::npos) << d;
  EXPECT_NE(d.find("=> arr-load"), std::string::npos) << d;
}

TEST(JitSpec, EmitterCoversRegionsAndCountsSpecializedOps) {
  if (!lol::codegen::jit_available()) GTEST_SKIP() << "jit unavailable";
  auto prog = lol::compile(
      "HAI 1.2\n"
      "I HAS A spec_cover_salt ITZ \"emit-info\"\n"
      "I HAS A acc ITZ A NUMBR AN ITZ 0\n"
      "IM IN YR loop UPPIN YR i TIL BOTH SAEM i AN 100\n"
      "  acc R SUM OF acc AN i\n"
      "IM OUTTA YR loop\n"
      "VISIBLE acc\n"
      "KTHXBYE\n");
  auto chunk = std::make_shared<lol::vm::Chunk>(
      lol::vm::compile_program(prog.program, prog.analysis));
  std::string err;
  auto jit = lol::codegen::JitProgram::get_or_build(chunk, &err);
  ASSERT_NE(jit, nullptr) << err;
  EXPECT_GT(jit->emit_info().regions, 0u);
  EXPECT_GT(jit->emit_info().spec_pcs, 0u);

  auto& spec_ops = spec_ops_counter();
  std::uint64_t before = spec_ops.value();
  RunResult vm = run_backend(prog, Backend::kVm, 1);
  RunResult jr = run_backend(prog, Backend::kJit, 1);
  ASSERT_TRUE(jr.ok) << jr.first_error();
  EXPECT_EQ(vm.pe_output, jr.pe_output);
  EXPECT_GT(spec_ops.value(), before)
      << "specialized tier reported coverage but retired no ops";
}

// ---- deopt: guard failure falls back to the VM -------------------------

TEST(JitSpec, DeoptsOnNumbrToYarnFlipMidLoop) {
  if (!lol::codegen::jit_available()) GTEST_SKIP() << "jit unavailable";
  // x is NUMBR-hinted and read in the loop's hot region every
  // iteration; halfway through it flips to a YARN, so every later
  // guarded entry must fail, count a deopt, and resume generically
  // (where SUM coerces the YARN) — output byte-identical to the VM.
  auto prog = lol::compile(
      "HAI 1.2\n"
      "I HAS A spec_deopt_salt ITZ \"flip\"\n"
      "I HAS A x ITZ 0\n"
      "I HAS A acc ITZ A NUMBR AN ITZ 0\n"
      "IM IN YR loop UPPIN YR i TIL BOTH SAEM i AN 40\n"
      "  BOTH SAEM i AN 20, O RLY?\n"
      "  YA RLY\n"
      "    x R \"9\"\n"
      "  OIC\n"
      "  acc R SUM OF acc AN x\n"
      "IM OUTTA YR loop\n"
      "VISIBLE acc\n"
      "VISIBLE x\n"
      "KTHXBYE\n");
  auto& deopts = lol::obs::Registry::global().counter(
      "lol_jit_deopts_total",
      "Specialized-region guard failures (the VM ran the region's "
      "first instruction instead)");
  std::uint64_t before = deopts.value();
  RunResult vm = run_backend(prog, Backend::kVm, 1);
  RunResult jr = run_backend(prog, Backend::kJit, 1);
  ASSERT_TRUE(vm.ok) << vm.first_error();
  ASSERT_TRUE(jr.ok) << jr.first_error();
  EXPECT_EQ(vm.pe_output, jr.pe_output);
  EXPECT_GT(deopts.value(), before)
      << "type flip crossed a guarded region entry without deopting";
}

// ---- step-budget exactness at region boundaries -----------------------

TEST(JitSpec, StepBudgetIsExactAcrossRegionBoundaries) {
  if (!lol::codegen::jit_available()) GTEST_SKIP() << "jit unavailable";
  // The loop body is one specialized region charged in batches; the
  // budget edge must land on exactly the same step as the VM's
  // per-op accounting: S steps pass, S-1 trip the limit.
  auto prog = lol::compile(
      "HAI 1.2\n"
      "I HAS A spec_budget_salt ITZ \"edge\"\n"
      "I HAS A acc ITZ A NUMBR AN ITZ 0\n"
      "IM IN YR loop UPPIN YR i TIL BOTH SAEM i AN 50\n"
      "  acc R SUM OF PRODUKT OF acc AN 1 AN i\n"
      "IM OUTTA YR loop\n"
      "VISIBLE acc\n"
      "KTHXBYE\n");
  RunResult base = run_backend(prog, Backend::kVm, 1);
  ASSERT_TRUE(base.ok) << base.first_error();
  ASSERT_EQ(base.pe_profiles.size(), 1u);
  std::uint64_t steps = base.pe_profiles[0].steps;
  ASSERT_GT(steps, 0u);

  for (Backend b : {Backend::kVm, Backend::kJit}) {
    RunResult exact = run_backend(prog, b, 1, steps);
    EXPECT_TRUE(exact.ok) << lol::to_string(b) << ": "
                          << exact.first_error();
    EXPECT_FALSE(exact.step_limited) << lol::to_string(b);
    RunResult tight = run_backend(prog, b, 1, steps - 1);
    EXPECT_FALSE(tight.ok) << lol::to_string(b);
    EXPECT_TRUE(tight.step_limited)
        << lol::to_string(b) << " ran past a budget one below exact";
  }
}

// ---- VM-exact on unreduced programs -------------------------------------

/// The JIT must retire exactly the VM's steps and barrier crossings on
/// every PE, with a nonzero share of them in specialized regions.
void expect_vm_exact(const lol::CompiledProgram& prog, int n_pes) {
  RunResult vm = run_backend(prog, Backend::kVm, n_pes);
  const std::uint64_t before = spec_ops_counter().value();
  RunResult jit = run_backend(prog, Backend::kJit, n_pes);
  ASSERT_TRUE(vm.ok) << vm.first_error();
  ASSERT_TRUE(jit.ok) << jit.first_error();
  EXPECT_EQ(vm.pe_output, jit.pe_output);
  EXPECT_EQ(vm.pe_errout, jit.pe_errout);
  ASSERT_EQ(vm.pe_profiles.size(), static_cast<std::size_t>(n_pes));
  ASSERT_EQ(jit.pe_profiles.size(), static_cast<std::size_t>(n_pes));
  for (int pe = 0; pe < n_pes; ++pe) {
    EXPECT_EQ(vm.pe_profiles[pe].steps, jit.pe_profiles[pe].steps)
        << "pe " << pe;
    EXPECT_EQ(vm.pe_profiles[pe].barrier_crossings,
              jit.pe_profiles[pe].barrier_crossings)
        << "pe " << pe;
  }
  EXPECT_GT(spec_ops_counter().value(), before)
      << "no op of the program ran in a specialized region";
}

TEST(JitSpec, PaperNbodyIsVmExact) {
  if (!lol::codegen::jit_available()) GTEST_SKIP() << "jit unavailable";
  expect_vm_exact(lol::compile(lol::paper::nbody_program(8, 3, true)), 2);
}

TEST(JitSpec, Heat1dExampleIsVmExact) {
  if (!lol::codegen::jit_available()) GTEST_SKIP() << "jit unavailable";
  auto src = lol::driver::read_file(LOL_EXAMPLES_DIR "/heat_1d.lol");
  ASSERT_TRUE(src.has_value());
  expect_vm_exact(lol::compile(*src), 2);
}

TEST(JitSpec, RegionExitIntoRecursiveCallResumesAcrossFrames) {
  if (!lol::codegen::jit_available()) GTEST_SKIP() << "jit unavailable";
  // The loop plus the argument arithmetic form one region in a
  // recursive function; it ends at the CALL with two values live. The
  // VM materializes them, pushes the callee frame, and re-enters the
  // same region's code one frame deeper, twelve times.
  lol::CompileOptions copts;
  copts.opt_level = 0;
  auto prog = lol::compile(
      "HAI 1.2\n"
      "I HAS A spec_call_salt ITZ \"frames\"\n"
      "HOW IZ I countdown YR n\n"
      "  I HAS A left ITZ A NUMBR AN ITZ MAEK n A NUMBR\n"
      "  BOTH SAEM left AN 0, O RLY?\n"
      "  YA RLY\n"
      "    FOUND YR 0\n"
      "  OIC\n"
      "  VISIBLE \"down \" left\n"
      "  I HAS A acc ITZ A NUMBR AN ITZ 0\n"
      "  IM IN YR sum UPPIN YR i TIL BOTH SAEM i AN 4\n"
      "    acc R SUM OF acc AN PRODUKT OF i AN left\n"
      "  IM OUTTA YR sum\n"
      "  FOUND YR SUM OF acc AN I IZ countdown YR DIFF OF left AN 1 MKAY\n"
      "IF U SAY SO\n"
      "VISIBLE I IZ countdown YR 12 MKAY\n"
      "KTHXBYE\n",
      copts);
  lol::vm::Chunk chunk =
      lol::vm::compile_program(prog.program, prog.analysis);
  lol::codegen::SpecPlan plan = lol::codegen::analyze_chunk(chunk);
  bool exits_into_call = false;
  for (const lol::codegen::RegionPlan& r : plan.regions) {
    const lol::codegen::SpecExit* e = r.exit_at(r.hi);
    if (r.lo > chunk.funcs.at(0).entry && e != nullptr &&
        chunk.code.at(e->target).op == lol::vm::Op::kCall &&
        e->vstack.size() == 2) {
      exits_into_call = true;
    }
  }
  ASSERT_TRUE(exits_into_call)
      << lol::codegen::describe_plan(chunk, plan);
  expect_vm_exact(prog, 1);
}

// ---- record -> replay trace identity ----------------------------------

TEST(JitSpec, RecordedScheduleReplaysAcrossTiers) {
  if (!lol::codegen::jit_available()) GTEST_SKIP() << "jit unavailable";
  // Symmetric stores are schedule-yield token events even when they run
  // specialized; a schedule recorded under the JIT must replay exactly
  // under both the VM and the JIT.
  auto prog = lol::compile(
      "HAI 1.2\n"
      "I HAS A spec_replay_salt ITZ \"trace\"\n"
      "WE HAS A ring ITZ SRSLY LOTZ A NUMBRS AN THAR IZ 4\n"
      "IM IN YR fill UPPIN YR i TIL BOTH SAEM i AN 4\n"
      "  ring'Z i R PRODUKT OF SUM OF ME AN 1 AN i\n"
      "IM OUTTA YR fill\n"
      "HUGZ\n"
      "I HAS A nxt ITZ A NUMBR AN ITZ SUM OF ME AN 1\n"
      "BOTH SAEM nxt AN MAH FRENZ, O RLY?\n"
      "YA RLY\n"
      "  nxt R 0\n"
      "OIC\n"
      "I HAS A total ITZ A NUMBR AN ITZ 0\n"
      "IM IN YR gather UPPIN YR i TIL BOTH SAEM i AN 4\n"
      "  TXT MAH BFF nxt, total R SUM OF total AN UR ring'Z i\n"
      "IM OUTTA YR gather\n"
      "VISIBLE \"PE \" ME \" TOTAL \" total\n"
      "KTHXBYE\n");
  RunConfig rec;
  rec.n_pes = 4;
  rec.backend = Backend::kJit;
  rec.schedule = lol::replay::ScheduleMode::kRecord;
  RunResult recorded = lol::run(prog, rec);
  ASSERT_TRUE(recorded.ok) << recorded.first_error();
  ASSERT_FALSE(recorded.schedule_trace.empty());
  std::string terr;
  auto trace =
      lol::replay::Trace::parse(recorded.schedule_trace, &terr);
  ASSERT_TRUE(trace.has_value()) << terr;

  for (Backend b : {Backend::kVm, Backend::kJit}) {
    RunConfig rep;
    rep.n_pes = 4;
    rep.backend = b;
    rep.schedule = lol::replay::ScheduleMode::kReplay;
    rep.replay_trace =
        std::make_shared<lol::replay::Trace>(*trace);
    RunResult replayed = lol::run(prog, rep);
    EXPECT_TRUE(replayed.ok)
        << lol::to_string(b) << ": " << replayed.first_error();
    EXPECT_FALSE(replayed.replay_diverged) << lol::to_string(b);
    EXPECT_EQ(recorded.pe_output, replayed.pe_output)
        << lol::to_string(b);
  }
}

}  // namespace
