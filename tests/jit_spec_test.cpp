// Specialized JIT region tests: golden type-lattice plans (guard
// placement, spill-at-materialization exits, the paper n-body's force
// loop as one region), deopt on a mid-loop NUMBR -> YARN flip, step-budget
// exactness at region boundaries (also inside a UR read loop), error
// parity for the ops that throw inside a region, VM-exact steps, barrier
// crossings and region coverage on the unreduced paper programs (thread
// and fiber executors), a region exit that resumes in the VM across a
// recursive call, and record -> replay schedule-trace identity through
// the specialized symmetric-array and UR paths.
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
/// every PE, with a nonzero share of them (at least `min_share` on each
/// PE) in specialized regions.
void expect_vm_exact(const lol::CompiledProgram& prog, int n_pes,
                     double min_share = 0.0,
                     lol::shmem::ExecutorKind executor =
                         lol::shmem::ExecutorKind::kThread) {
  RunResult vm = run_backend(prog, Backend::kVm, n_pes);
  const std::uint64_t before = spec_ops_counter().value();
  RunConfig cfg;
  cfg.n_pes = n_pes;
  cfg.backend = Backend::kJit;
  cfg.executor = executor;
  RunResult jit = lol::run(prog, cfg);
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
    EXPECT_EQ(vm.pe_profiles[pe].jit_steps, 0u) << "pe " << pe;
    EXPECT_GE(static_cast<double>(jit.pe_profiles[pe].jit_steps),
              min_share * static_cast<double>(jit.pe_profiles[pe].steps))
        << "pe " << pe << ": " << jit.pe_profiles[pe].jit_steps << " of "
        << jit.pe_profiles[pe].steps << " steps in regions";
  }
  EXPECT_GT(spec_ops_counter().value(), before)
      << "no op of the program ran in a specialized region";
}

TEST(JitSpec, PaperNbodyIsVmExact) {
  if (!lol::codegen::jit_available()) GTEST_SKIP() << "jit unavailable";
  // The paper's own size: remote reads, TXT MAH BFF, UNSQUAR/FLIP and
  // the SRSLY NUMBAR accumulators all run specialized, so the VM is left
  // with the HUGZ, the WHATEVAR set-up and the output.
  expect_vm_exact(lol::compile(lol::paper::nbody_program(32, 10, true)), 2,
                  0.95);
}

TEST(JitSpec, PaperNbodyIsVmExactOnFibers) {
  if (!lol::codegen::jit_available()) GTEST_SKIP() << "jit unavailable";
  // Fiber PEs preempt at the step-accounting poll and park in HUGZ; the
  // regions' batched accounting must keep both exact.
  expect_vm_exact(lol::compile(lol::paper::nbody_program(32, 3, true)), 4,
                  0.95, lol::shmem::ExecutorKind::kFiber);
}

TEST(JitSpec, PaperNbodyForceLoopIsOneRegion) {
  // One time step of the -O2 n-body (the unroller copies the time loop)
  // runs from a HUGZ to the next: the i loop with its local-j, k and
  // remote-j loops. All of it must be one region whose only exits lead
  // into the HUGZ — every back edge stays internal, and the region is
  // entered once per time step.
  auto prog = lol::compile(lol::paper::nbody_program(32, 10, true));
  lol::vm::Chunk chunk =
      lol::vm::compile_program(prog.program, prog.analysis);
  lol::codegen::SpecPlan plan = lol::codegen::analyze_chunk(chunk);
  std::size_t push = 0;
  while (push < chunk.code.size() &&
         chunk.code[push].op != lol::vm::Op::kBffPush) {
    ++push;
  }
  ASSERT_LT(push, chunk.code.size());
  const lol::codegen::RegionPlan* force = nullptr;
  for (const lol::codegen::RegionPlan& r : plan.regions) {
    if (r.lo <= push && push < r.hi) force = &r;
  }
  const std::string dump = lol::codegen::describe_plan(chunk, plan);
  ASSERT_NE(force, nullptr) << dump;
  // Bounded by barriers on both sides.
  ASSERT_GT(force->lo, 0u);
  EXPECT_EQ(chunk.code[force->lo - 1].op, lol::vm::Op::kHugz) << dump;
  EXPECT_EQ(chunk.code[force->hi].op, lol::vm::Op::kHugz) << dump;
  EXPECT_NE(force->end_reason.find("HUGZ"), std::string::npos) << dump;
  int back_edges = 0;
  for (std::size_t pc = force->lo; pc < force->hi; ++pc) {
    const lol::vm::Instr& in = chunk.code[pc];
    if (in.op == lol::vm::Op::kJump &&
        static_cast<std::size_t>(in.a) <= pc) {
      ++back_edges;
      EXPECT_GE(static_cast<std::size_t>(in.a), force->lo) << dump;
    }
  }
  EXPECT_EQ(back_edges, 4) << "i, local-j, k and remote-j loops\n" << dump;
  for (const lol::codegen::SpecExit& e : force->exits) {
    EXPECT_TRUE(e.internal || e.target == force->hi)
        << "exit at pc " << e.at_pc << " -> " << e.target << "\n"
        << dump;
  }
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

// ---- error parity for ops that throw inside a region --------------------

/// Every run must fail (or pass) exactly as the VM does: same error
/// text, same classification, same per-PE steps and output — and the
/// op under test must sit inside a region, so the JIT's own check threw.
void expect_same_outcome(const std::string& src, int n_pes, lol::vm::Op op,
                         bool expect_ok) {
  auto prog = lol::compile(src);
  lol::vm::Chunk chunk =
      lol::vm::compile_program(prog.program, prog.analysis);
  lol::codegen::SpecPlan plan = lol::codegen::analyze_chunk(chunk);
  bool covered = false;
  for (const lol::codegen::RegionPlan& r : plan.regions) {
    for (std::size_t pc = r.lo; pc < r.hi; ++pc) {
      if (chunk.code[pc].op == op) covered = true;
    }
  }
  EXPECT_TRUE(covered) << lol::vm::op_name(op) << " is not in a region\n"
                       << lol::codegen::describe_plan(chunk, plan);

  RunResult vm = run_backend(prog, Backend::kVm, n_pes);
  RunResult jit = run_backend(prog, Backend::kJit, n_pes);
  EXPECT_EQ(vm.ok, expect_ok) << vm.first_error();
  EXPECT_EQ(vm.ok, jit.ok) << jit.first_error();
  EXPECT_EQ(vm.errors, jit.errors);
  EXPECT_EQ(vm.step_limited, jit.step_limited);
  EXPECT_EQ(vm.pe_failed, jit.pe_failed);
  EXPECT_EQ(vm.pe_output, jit.pe_output);
  ASSERT_EQ(vm.pe_profiles.size(), jit.pe_profiles.size());
  for (std::size_t pe = 0; pe < vm.pe_profiles.size(); ++pe) {
    EXPECT_EQ(vm.pe_profiles[pe].steps, jit.pe_profiles[pe].steps)
        << "pe " << pe;
    EXPECT_GT(jit.pe_profiles[pe].jit_steps, 0u) << "pe " << pe;
  }
}

TEST(JitSpec, UnsquarOfNegativeThrowsLikeTheVm) {
  if (!lol::codegen::jit_available()) GTEST_SKIP() << "jit unavailable";
  expect_same_outcome(
      "HAI 1.2\n"
      "I HAS A x ITZ SRSLY A NUMBAR AN ITZ 2.0\n"
      "I HAS A r ITZ SRSLY A NUMBAR AN ITZ 0.0\n"
      "IM IN YR l UPPIN YR i TIL BOTH SAEM i AN 10\n"
      "  x R DIFF OF x AN 0.5\n"
      "  r R SUM OF r AN UNSQUAR OF x\n"
      "IM OUTTA YR l\n"
      "VISIBLE r\n"
      "KTHXBYE\n",
      1, lol::vm::Op::kUnary, false);
}

TEST(JitSpec, FlipOfIntegerZeroThrowsLikeTheVm) {
  if (!lol::codegen::jit_available()) GTEST_SKIP() << "jit unavailable";
  expect_same_outcome(
      "HAI 1.2\n"
      "I HAS A n ITZ A NUMBR AN ITZ 3\n"
      "I HAS A acc ITZ SRSLY A NUMBAR AN ITZ 0.0\n"
      "IM IN YR l UPPIN YR i TIL BOTH SAEM i AN 10\n"
      "  n R DIFF OF n AN 1\n"
      "  acc R SUM OF acc AN FLIP OF n\n"
      "IM OUTTA YR l\n"
      "VISIBLE acc\n"
      "KTHXBYE\n",
      1, lol::vm::Op::kUnary, false);
}

TEST(JitSpec, FlipOfNegativeZeroThrowsLikeTheVm) {
  if (!lol::codegen::jit_available()) GTEST_SKIP() << "jit unavailable";
  expect_same_outcome(
      "HAI 1.2\n"
      "I HAS A x ITZ SRSLY A NUMBAR AN ITZ -4.0\n"
      "I HAS A acc ITZ SRSLY A NUMBAR AN ITZ 0.0\n"
      "IM IN YR l UPPIN YR i TIL BOTH SAEM i AN 6\n"
      "  BOTH SAEM i AN 3, O RLY?\n"
      "  YA RLY, x R PRODUKT OF x AN 0.0\n"
      "  OIC\n"
      "  acc R SUM OF acc AN FLIP OF x\n"
      "IM OUTTA YR l\n"
      "VISIBLE acc\n"
      "KTHXBYE\n",
      1, lol::vm::Op::kUnary, false);
}

TEST(JitSpec, NanAndNegativeZeroPassThroughUnsquarAndFlip) {
  if (!lol::codegen::jit_available()) GTEST_SKIP() << "jit unavailable";
  // rt::op_unary lets NaN through both ops (it is neither < 0 nor == 0)
  // and takes UNSQUAR OF -0.0 to -0.0; FLIP OF an infinity is a zero.
  expect_same_outcome(
      "HAI 1.2\n"
      "I HAS A big ITZ SRSLY A NUMBAR AN ITZ 1.0\n"
      "IM IN YR grow UPPIN YR i TIL BOTH SAEM i AN 64\n"
      "  big R PRODUKT OF big AN 1000000.0\n"
      "IM OUTTA YR grow\n"
      "I HAS A nan ITZ SRSLY A NUMBAR AN ITZ DIFF OF big AN big\n"
      "I HAS A z ITZ SRSLY A NUMBAR AN ITZ PRODUKT OF -1.0 AN 0.0\n"
      "I HAS A acc ITZ SRSLY A NUMBAR AN ITZ 0.0\n"
      "I HAS A r ITZ SRSLY A NUMBAR AN ITZ 0.0\n"
      "IM IN YR l UPPIN YR i TIL BOTH SAEM i AN 4\n"
      "  acc R SUM OF UNSQUAR OF nan AN FLIP OF nan\n"
      "  r R SUM OF UNSQUAR OF z AN FLIP OF big\n"
      "IM OUTTA YR l\n"
      "VISIBLE acc \" \" r \" \" UNSQUAR OF z\n"
      "KTHXBYE\n",
      1, lol::vm::Op::kUnary, true);
}

TEST(JitSpec, TxtMahBffToMissingPeThrowsLikeTheVm) {
  if (!lol::codegen::jit_available()) GTEST_SKIP() << "jit unavailable";
  expect_same_outcome(
      "HAI 1.2\n"
      "WE HAS A v ITZ SRSLY LOTZ A NUMBARS AN THAR IZ 4\n"
      "I HAS A t ITZ SRSLY A NUMBAR AN ITZ 0.0\n"
      "HUGZ\n"
      "IM IN YR l UPPIN YR k TIL BOTH SAEM k AN 5\n"
      "  TXT MAH BFF k, t R SUM OF t AN UR v'Z 1\n"
      "IM OUTTA YR l\n"
      "VISIBLE t\n"
      "KTHXBYE\n",
      2, lol::vm::Op::kBffPush, false);
}

TEST(JitSpec, UrIndexOutOfBoundsThrowsLikeTheVm) {
  if (!lol::codegen::jit_available()) GTEST_SKIP() << "jit unavailable";
  expect_same_outcome(
      "HAI 1.2\n"
      "WE HAS A v ITZ SRSLY LOTZ A NUMBARS AN THAR IZ 4\n"
      "I HAS A t ITZ SRSLY A NUMBAR AN ITZ 0.0\n"
      "I HAS A nxt ITZ A NUMBR AN ITZ DIFF OF 1 AN ME\n"
      "HUGZ\n"
      "IM IN YR l UPPIN YR k TIL BOTH SAEM k AN 9\n"
      "  TXT MAH BFF nxt, t R SUM OF t AN UR v'Z k\n"
      "IM OUTTA YR l\n"
      "VISIBLE t\n"
      "KTHXBYE\n",
      2, lol::vm::Op::kBffPush, false);
}

TEST(JitSpec, StepBudgetIsExactInsideARemoteReadLoop) {
  if (!lol::codegen::jit_available()) GTEST_SKIP() << "jit unavailable";
  // The UR read loop is the program's last work, so the final budget
  // edges fall inside its region: S steps pass, anything from S-1 down
  // through its last iterations trips the limit, on both backends.
  auto prog = lol::compile(
      "HAI 1.2\n"
      "I HAS A spec_remote_budget_salt ITZ \"edge\"\n"
      "WE HAS A v ITZ SRSLY LOTZ A NUMBARS AN THAR IZ 16\n"
      "IM IN YR fill UPPIN YR i TIL BOTH SAEM i AN 16\n"
      "  v'Z i R SUM OF ME AN i\n"
      "IM OUTTA YR fill\n"
      "HUGZ\n"
      "I HAS A nxt ITZ A NUMBR AN ITZ DIFF OF 1 AN ME\n"
      "I HAS A total ITZ SRSLY A NUMBAR AN ITZ 0.0\n"
      "IM IN YR gather UPPIN YR j TIL BOTH SAEM j AN 16\n"
      "  TXT MAH BFF nxt, total R SUM OF total AN UR v'Z j\n"
      "IM OUTTA YR gather\n"
      "KTHXBYE\n");
  RunResult base = run_backend(prog, Backend::kVm, 2);
  ASSERT_TRUE(base.ok) << base.first_error();
  const std::uint64_t steps = base.pe_profiles.at(0).steps;
  ASSERT_EQ(steps, base.pe_profiles.at(1).steps);
  RunResult jit = run_backend(prog, Backend::kJit, 2, steps);
  ASSERT_TRUE(jit.ok) << jit.first_error();
  EXPECT_GT(jit.pe_profiles.at(0).jit_steps, steps / 2);

  for (Backend b : {Backend::kVm, Backend::kJit}) {
    RunResult exact = run_backend(prog, b, 2, steps);
    EXPECT_TRUE(exact.ok) << lol::to_string(b) << ": "
                          << exact.first_error();
    for (std::uint64_t cut = 1; cut <= 40; ++cut) {
      RunResult tight = run_backend(prog, b, 2, steps - cut);
      EXPECT_TRUE(tight.step_limited)
          << lol::to_string(b) << " ran past a budget " << cut
          << " below exact";
      ASSERT_EQ(tight.pe_profiles.size(), 2u);
      for (const auto& p : tight.pe_profiles) {
        EXPECT_EQ(p.steps, steps - cut) << lol::to_string(b);
      }
    }
  }
}

// ---- record -> replay trace identity ----------------------------------

/// Records a schedule under the JIT and replays it under both tiers.
void expect_replays_across_tiers(const lol::CompiledProgram& prog,
                                 int n_pes) {
  RunConfig rec;
  rec.n_pes = n_pes;
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
    rep.n_pes = n_pes;
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

TEST(JitSpec, RecordedScheduleReplaysAcrossTiers) {
  if (!lol::codegen::jit_available()) GTEST_SKIP() << "jit unavailable";
  // Symmetric loads and stores are schedule-yield token events even
  // when they run specialized; a schedule recorded under the JIT must
  // replay exactly under both the VM and the JIT.
  expect_replays_across_tiers(
      lol::compile(
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
          "KTHXBYE\n"),
      4);
  // The n-body's remote reads run inside its force-loop region.
  expect_replays_across_tiers(
      lol::compile(lol::paper::nbody_program(8, 3, true)), 2);
}

}  // namespace
