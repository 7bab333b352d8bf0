// Unit tests for the optimizing middle-end (src/opt): golden
// before/after AST dumps per pass, level gating, and the cache-key hash
// mixing. Each case parses + analyzes a small program, runs the
// pipeline, and asserts on the structural dump — the same s-expression
// shape the parser golden tests use — plus the Stats counters, so a
// pass silently not firing fails loudly rather than vacuously passing.
#include <gtest/gtest.h>

#include <string>
#include <string_view>

#include "ast/printer.hpp"
#include "opt/opt.hpp"
#include "parse/parser.hpp"
#include "sema/analyzer.hpp"

namespace {

using lol::opt::Options;
using lol::opt::Stats;

/// Wraps `body` in HAI/KTHXBYE, analyzes, optimizes at `level`, and
/// returns the structural dump of the whole program. Stats land in
/// *stats when given.
std::string opt_dump(std::string_view body, int level = 2,
                     Stats* stats = nullptr) {
  std::string src = "HAI 1.2\n" + std::string(body) + "\nKTHXBYE\n";
  lol::ast::Program p = lol::parse::parse_program(src);
  (void)lol::sema::analyze(p);
  Options opts;
  opts.level = level;
  lol::opt::optimize(p, opts, stats);
  return lol::ast::dump(p);
}

bool contains(const std::string& hay, std::string_view needle) {
  return hay.find(needle) != std::string::npos;
}

// -- fold ---------------------------------------------------------------------

TEST(OptFold, FoldsNestedConstantArithmetic) {
  Stats st;
  std::string d = opt_dump("VISIBLE SUM OF 3 AN SUM OF 2 AN 2", 2, &st);
  EXPECT_EQ(d, "(program\n  (visible (numbr 7)))");
  EXPECT_GT(st.folded, 0u);
}

TEST(OptFold, FoldsCastChains) {
  // MAEK over a literal folds through the runtime's own cast ops, so
  // the folded YARN is bit-identical to what run time would print.
  std::string d = opt_dump("VISIBLE MAEK 2 A YARN");
  EXPECT_EQ(d, "(program\n  (visible (yarn \"2\")))");
}

TEST(OptFold, NeverFoldsThrowingExpressions) {
  // Division by zero throws at run time; folding it would turn a
  // runtime error into a compile-time one (or worse, a wrong value).
  std::string d = opt_dump("VISIBLE QUOSHUNT OF 1 AN 0");
  EXPECT_TRUE(contains(d, "(quoshunt (numbr 1) (numbr 0))")) << d;
}

// -- prop + dce ---------------------------------------------------------------

TEST(OptProp, PropagatesAndRemovesDeadScalar) {
  Stats st;
  std::string d = opt_dump("I HAS A x ITZ 5\nVISIBLE SUM OF x AN 1", 2, &st);
  EXPECT_EQ(d, "(program\n  (visible (numbr 6)))");
  EXPECT_GT(st.propagated, 0u);
  EXPECT_GT(st.dead, 0u);
}

TEST(OptProp, InterpolationKeepsDeclarationAlive) {
  // `:{x}` reads the environment by name at print time, so the
  // declaration must survive even though every expression read of x
  // was propagated away.
  std::string d = opt_dump("I HAS A x ITZ 5\nVISIBLE \":{x}\"");
  EXPECT_TRUE(contains(d, "(decl i x")) << d;
}

// -- unroll -------------------------------------------------------------------

TEST(OptUnroll, UnrollsSmallCountingLoop) {
  Stats st;
  std::string d = opt_dump(
      "IM IN YR lp UPPIN YR i TIL BOTH SAEM i AN 3\n"
      "  VISIBLE i\n"
      "IM OUTTA YR lp",
      2, &st);
  EXPECT_EQ(d,
            "(program\n"
            "  (visible (numbr 0))\n"
            "  (visible (numbr 1))\n"
            "  (visible (numbr 2)))");
  EXPECT_EQ(st.unrolled, 1u);
}

TEST(OptUnroll, LeavesLargeTripCountAlone) {
  // Trip count above unroll_max_trip (default 16) stays a loop.
  Stats st;
  std::string d = opt_dump(
      "IM IN YR lp UPPIN YR i TIL BOTH SAEM i AN 100\n"
      "  VISIBLE i\n"
      "IM OUTTA YR lp",
      2, &st);
  EXPECT_TRUE(contains(d, "(loop lp uppin:i")) << d;
  EXPECT_EQ(st.unrolled, 0u);
}

TEST(OptUnroll, RenamesBodyDeclarationsPerCopy) {
  // Sibling unrolled copies share one VM scope, so a declaration in the
  // body must get a fresh name per copy. WHATEVR keeps prop from
  // erasing the declarations (rng is never propagated).
  std::string d = opt_dump(
      "IM IN YR lp UPPIN YR i TIL BOTH SAEM i AN 2\n"
      "  I HAS A t ITZ WHATEVR\n"
      "  VISIBLE t\n"
      "IM OUTTA YR lp");
  EXPECT_FALSE(contains(d, "(loop")) << d;
  EXPECT_TRUE(contains(d, "t_u0")) << d;
  EXPECT_TRUE(contains(d, "t_u1")) << d;
}

// -- select -------------------------------------------------------------------

TEST(OptSelect, SelectsTakenBranchOfLiteralORly) {
  Stats st;
  std::string d = opt_dump(
      "WIN\n"
      "O RLY?\n"
      "  YA RLY\n"
      "    VISIBLE \"yes\"\n"
      "  NO WAI\n"
      "    VISIBLE \"no\"\n"
      "OIC",
      2, &st);
  // The condition expression statement survives (it sets IT); only the
  // dead branch is dropped.
  EXPECT_EQ(d,
            "(program\n"
            "  (expr (troof WIN))\n"
            "  (visible (yarn \"yes\")))");
  EXPECT_EQ(st.selected, 1u);
  EXPECT_FALSE(contains(d, "no")) << d;
}

TEST(OptSelect, NonLiteralConditionKeepsBranch) {
  std::string d = opt_dump(
      "I HAS A x ITZ WHATEVR\n"
      "BOTH SAEM x AN 1\n"
      "O RLY?\n"
      "  YA RLY\n"
      "    VISIBLE \"yes\"\n"
      "OIC");
  EXPECT_TRUE(contains(d, "(orly")) << d;
}

// -- SRS gating ---------------------------------------------------------------

TEST(OptSrs, DynamicNamesDisableNameSensitivePasses) {
  // SRS can read or write any variable by computed name, so prop and
  // dce must stand down; only the never-mutated literal fold of pure
  // arithmetic could still fire, and x's declaration must stay.
  Stats st;
  std::string d = opt_dump(
      "I HAS A x ITZ 5\n"
      "I HAS A n ITZ \"x\"\n"
      "SRS n R 9\n"
      "VISIBLE x",
      2, &st);
  EXPECT_TRUE(contains(d, "(decl i x")) << d;
  EXPECT_EQ(st.propagated, 0u);
  EXPECT_EQ(st.dead, 0u);
}

// -- squaring rewrite ---------------------------------------------------------

TEST(OptFold, RewritesSelfProductOfTypedScalarToSquar) {
  // PRODUKT OF x AN x reads x twice; SQUAR OF x squares through the same
  // rt::to_num coercion, so on a provably numeric scalar the value is
  // bit-identical and one of the two name lookups disappears.
  Stats st;
  std::string d = opt_dump(
      "I HAS A x ITZ SRSLY A NUMBAR AN ITZ 1.5\n"
      "x R WHATEVAR\n"
      "VISIBLE PRODUKT OF x AN x",
      2, &st);
  EXPECT_TRUE(contains(d, "(visible (squar (var x)))")) << d;
}

TEST(OptFold, KeepsSelfProductOfUntypedScalar) {
  // An untyped x could hold a YARN at run time, and the PRODUKT and
  // SQUAR type errors carry different messages — no rewrite.
  std::string d = opt_dump(
      "I HAS A y\n"
      "y R WHATEVR\n"
      "VISIBLE PRODUKT OF y AN y");
  EXPECT_TRUE(contains(d, "(produkt (var y) (var y))")) << d;
}

// -- dead IT writes -----------------------------------------------------------

TEST(OptDce, RemovesLiteralItWriteOverwrittenBeforeRead) {
  // Branch selection leaves the literal condition as an ExprStmt so IT
  // still holds its value; when a later selection residue overwrites IT
  // before anything reads it, the earlier write is dead.
  Stats st;
  std::string d = opt_dump(
      "WIN, O RLY?\n  YA RLY, VISIBLE \"a\"\nOIC\n"
      "FAIL, O RLY?\n  YA RLY, VISIBLE \"b\"\n  NO WAI, VISIBLE \"c\"\nOIC\n"
      "VISIBLE IT",
      2, &st);
  EXPECT_FALSE(contains(d, "(expr (troof WIN))")) << d;
  EXPECT_TRUE(contains(d, "(expr (troof FAIL))")) << d;  // read by VISIBLE IT
  EXPECT_EQ(st.dead, 1u);
}

// -- level gating -------------------------------------------------------------

TEST(OptLevels, LevelZeroIsANoOp) {
  Stats st;
  std::string d = opt_dump("VISIBLE SUM OF 3 AN 4", 0, &st);
  EXPECT_TRUE(contains(d, "(sum (numbr 3) (numbr 4))")) << d;
  EXPECT_EQ(st.total(), 0u);
}

TEST(OptLevels, LevelOneFoldsButDoesNotUnroll) {
  Stats st;
  std::string d = opt_dump(
      "VISIBLE SUM OF 3 AN 4\n"
      "IM IN YR lp UPPIN YR i TIL BOTH SAEM i AN 3\n"
      "  VISIBLE i\n"
      "IM OUTTA YR lp",
      1, &st);
  EXPECT_TRUE(contains(d, "(visible (numbr 7))")) << d;
  EXPECT_TRUE(contains(d, "(loop lp uppin:i")) << d;
  EXPECT_GT(st.folded, 0u);
  EXPECT_EQ(st.unrolled, 0u);
}

// -- hash mixing --------------------------------------------------------------

TEST(OptHash, LevelZeroLeavesHashUntouched) {
  EXPECT_EQ(lol::opt::mix_hash(0x1234u, 0, 16), 0x1234u);
}

TEST(OptHash, DistinguishesLevelsAndTripLimits) {
  std::uint64_t h = 0xdeadbeefu;
  std::uint64_t h1 = lol::opt::mix_hash(h, 1, 16);
  std::uint64_t h2 = lol::opt::mix_hash(h, 2, 16);
  std::uint64_t h2b = lol::opt::mix_hash(h, 2, 8);
  EXPECT_NE(h1, h);
  EXPECT_NE(h1, h2);
  EXPECT_NE(h2, h2b);
  // Deterministic: same inputs, same key.
  EXPECT_EQ(h2, lol::opt::mix_hash(h, 2, 16));
}

}  // namespace
