// The optimizing middle-end: a pass pipeline over the AST.
//
// Runs once per compile — between sema validation and backend slot setup
// — so the interpreter, the bytecode VM, the JIT and lcc's generated C
// all execute the same optimized program, and every warm compile-cache
// hit amortizes the work across runs. The pipeline is semantics-
// preserving with respect to per-PE observable behavior: printed output,
// error classification, barrier/lock/symmetric-access sequences, rng
// draw counts and GIMMEH reads are identical at every level. Step
// *counts* are not preserved: unrolling removes per-iteration condition
// checks and select/dce remove statements, so programs near a
// step-budget edge can classify differently across levels — the same
// caveat the differential suite already documents for the
// statement-vs-instruction budget mismatch between backends.
//
// Passes (level 1: fold, prop, dce; level 2 adds unroll and select):
//   fold      constant folding + algebraic simplification, backed by the
//             runtime's own rt::op_* so folded values are bit-identical;
//             expressions that would throw are left for run time
//   prop      literal propagation of once-declared, never-mutated
//             private scalars (declarations are kept: `:{x}`
//             interpolation still reads the environment)
//   unroll    bounded unrolling of `IM IN YR .. UPPIN .. TIL BOTH SAEM
//             var AN <lit>` counting loops (and the WILE DIFFRINT form)
//   select    static branch selection for `<literal expr>, O RLY?`
//   dce       removal of never-referenced declarations and of literal
//             IT writes (branch-selection residue) provably overwritten
//             before any read
//
// Programs using SRS dynamic names disable every name-sensitive pass.
#pragma once

#include <cstdint>

#include "ast/ast.hpp"

namespace lol::opt {

/// Bumped whenever pass behavior changes. The compile cache mixes this
/// into its key so persisted/warm entries never alias an optimized shape
/// produced by a different pipeline.
inline constexpr std::uint32_t kPipelineVersion = 2;

struct Options {
  int level = 2;             // 0 = off, 1 = fold/prop/dce, 2 = full
  int unroll_max_trip = 16;  // largest trip count unrolled (0 disables)
  int unroll_body_budget = 1500;  // max statements one unroll may create
};

/// What the pipeline did (observability + tests).
struct Stats {
  std::uint64_t folded = 0;     // expressions replaced by literals
  std::uint64_t propagated = 0; // variable reads replaced by literals
  std::uint64_t unrolled = 0;   // loops fully unrolled
  std::uint64_t selected = 0;   // statically selected O RLY? branches
  std::uint64_t dead = 0;       // dead declarations / IT writes removed

  [[nodiscard]] std::uint64_t total() const {
    return folded + propagated + unrolled + selected + dead;
  }
};

/// Optimizes a sema-validated program in place. `program` must have
/// passed sema::analyze (the pipeline assumes structural validity);
/// callers re-analyze afterwards because sema::Analysis borrows AST
/// pointers the passes may replace.
void optimize(ast::Program& program, const Options& opts,
              Stats* stats = nullptr);

/// Mixes the optimization configuration into a program hash. Replay
/// traces and cache keys derived from source text must also distinguish
/// the optimized shape that actually ran.
[[nodiscard]] std::uint64_t mix_hash(std::uint64_t h, int opt_level,
                                     int unroll_max_trip);

}  // namespace lol::opt
