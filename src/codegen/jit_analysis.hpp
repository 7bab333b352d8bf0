// Abstract interpretation over VM bytecode for the JIT's specialized
// regions.
//
// The VM pays dispatch plus boxed rt::Value stack traffic on every op.
// This pass finds *regions* — maximal contiguous pc ranges whose ops it
// can prove operate on NUMBR/NUMBAR/TROOF payloads — and plans
// machine-register homes for the virtual value stack and the hot scalar
// locals, so the emitter (jit_emitter.hpp) can lower those ops to raw
// x86-64 with no Value boxing and, for arithmetic, no helper call.
//
// The lattice tracks, per program point inside a candidate region:
//   - the virtual stack: relative depth and a SpecType per entry,
//   - each touched frame local (and IT): payload type, bound-state, and
//     whether the region owns a dirtied copy,
// seeded at region entry by *guards*: runtime checks on the real cells
// (right shape, right payload type, still unbound for in-region declares)
// whose failure deopts — the VM runs the same pcs instead. DeclMeta::hint
// — populated by the bytecode compiler from declaration sites, and
// sharpened by the opt pipeline's fold/prop turning computed initializers
// into literals — tells the pass what to guard for locals that are read
// before any in-region write; a SRSLY declaration's static type does the
// same for locals written first (the VM's stype cast keeps that type in
// the cell), so loop-carried SRSLY locals join at loop heads.
//
// What specializes: numeric/TROOF constants, scalar loads, stores and
// declares (a NUMBR into a SRSLY NUMBAR converts, as Value::cast_to
// does), IT, arithmetic and compares (NUMBR/NUMBAR mixes promote),
// NOT, SQUAR OF, UNSQUAR OF and FLIP OF (inline domain check; the error
// is rt::op_unary's), NUMBR->NUMBAR casts, ME, MAH FRENZ, jumps and
// branches, indexed loads/stores of SRSLY private and symmetric arrays,
// UR indexed loads of symmetric arrays, and TXT MAH BFF push/pop (which
// edit the VM's predication stack in place).
//
// What still ends a region: YARN/NOOB values, QUOSHUNT OF and MOD OF
// (they throw on zero), variadic ops, casts other than the identity
// and NUMBR->NUMBAR, dynamic (SRS) and global-frame access, scalar UR
// access, UR stores and copies, calls and returns, VISIBLE, GIMMEH,
// HUGZ, locks, WHATEVR/WHATEVAR, and array declarations. describe_plan
// names the refusal for each region.
//
// Ops the lattice cannot prove end the region; every region exit carries a
// materialization plan (push still-live virtual stack entries back onto
// the real VM stack, write dirty locals back to their cells) so the VM
// resumes on exactly the state it would have had. An edge whose state
// only knows *more* than its target's (a payload the target treats as
// shape-only, e.g. IT at a loop head) stays internal: it writes the
// differing slots back and jumps. Step accounting is planned as
// per-basic-block batches whose exactness contract lives in
// jit_emitter.cpp.
//
// Pure analysis, no code emission: tests pin guard placement, region
// extents and spill plans against this API directly.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "vm/chunk.hpp"

namespace lol::codegen {

/// Payload type of one proven value (the lattice's non-bottom elements;
/// "unknown" is represented by an op simply not being specializable).
enum class SpecType : std::uint8_t { kInt, kDbl, kBool };

/// What a region-entry guard proves about one frame slot. Mirrored by
/// jit_spec_guard() in jit_runtime.cpp; any failure deopts.
enum class SpecGuardKind : std::int32_t {
  kScalarInt = 0,   // bound scalar cell holding a NUMBR; loads the payload
  kScalarDbl = 1,   // bound scalar cell holding a NUMBAR; loads the payload
  kScalarBool = 2,  // bound scalar cell holding a TROOF; loads the payload
  kScalarShape = 3, // bound scalar cell (written before read: shape only)
  kUnbound = 4,     // cell not bound (the region declares it)
  kArrInt = 5,      // bound private SRSLY NUMBR array
  kArrDbl = 6,      // bound private SRSLY NUMBAR array
  kSymArrInt = 7,   // bound symmetric NUMBR array (local indexed access)
  kSymArrDbl = 8,   // bound symmetric NUMBAR array
};

struct SpecGuard {
  std::int32_t slot = -1;
  SpecGuardKind kind = SpecGuardKind::kScalarShape;
  std::int32_t bank = -1;  // bank slot the guard writes the payload into
                           // (kScalar{Int,Dbl,Bool} only; -1 otherwise)
};

/// One tracked local (frame slot, or IT when slot == kItSlot). Every
/// tracked local owns one bank slot; the hottest always-integer locals
/// additionally get a callee-saved GPR home so they survive in-region
/// helper calls (array accesses, step-batch refills) without spills.
struct SpecLocal {
  static constexpr std::int32_t kItSlot = -1;
  std::int32_t slot = kItSlot;
  std::int32_t bank = -1;   // index into the region bank (value backing)
  std::int32_t reg = -1;    // x86 GPR number (r15/rbp) or -1 = bank-homed
  bool int_only = true;     // never holds a NUMBAR inside the region
  std::uint32_t uses = 0;   // static use count (linear-scan priority)
};

/// How one specializable op lowers. One SpecAct per pc in [lo, hi).
struct SpecAct {
  enum class Kind : std::uint8_t {
    kConst,        // push immediate `imm` of type `out`
    kLoadLocal,    // push locals[local] (type `out`)
    kStoreLocal,   // pop into locals[local] (type `in`)
    kDeclare,      // pop init into locals[local]; decl index in `aux`
    kDeclareZero,  // declare locals[local] = zero of `out`; decl in `aux`
    kUnbind,       // mark locals[local] unbound (no code)
    kBin,          // binary `aux` (ast::BinOp) on two `in`; pushes `out`
    kNot,          // pop `in` (int/bool); push bool
    kSquar,        // pop `in` (int/dbl); push in*in
    kCastIntToDbl, // pop int; push dbl (cvtsi2sd)
    kCastNop,      // identity cast: no code
    kPop,          // drop top (no code)
    kMe,           // push PE id (int, from the env)
    kMahFrenz,     // push PE count (int, from the env)
    kArrLoad,      // pop int index; helper-load slot `aux`; push `out`
    kArrStore,     // pop value (`in`), pop int index; helper-store `aux`
                   // (lanes of type `out`: an int into NUMBAR converts)
    kJmp,          // unconditional jump (internal or exit edge)
    kBranch,       // kJumpIfFalse: pop `in` (int/bool); taken edge in
                   // target / exit list
    kUnsquar,      // pop `in` (int/dbl); push sqrt (throws below zero)
    kFlip,         // pop `in` (int/dbl); push 1/x (throws on zero)
    kArrLoadRemote,// UR arr'Z i: kArrLoad on the TXT MAH BFF target PE
    kBffPush,      // pop int target PE; push onto the predication stack
    kBffPop,       // leave `aux` predication levels
  };
  Kind kind{};
  SpecType in = SpecType::kInt;   // operand type, where relevant
  SpecType out = SpecType::kInt;  // result type, where relevant (for
                                  // stores/declares the stored type: a
                                  // kInt `in` with a kDbl `out` converts)
  std::int32_t local = -1;        // index into RegionPlan::locals
  std::int32_t aux = 0;           // op-specific: BinOp, decl idx, arr slot
  std::int64_t imm = 0;           // kConst payload bits
};

/// kBin aux layout: the ast::BinOp in the low byte, plus promotion flags
/// for NUMBR-op-NUMBAR mixes. rt::arith computes in double whenever
/// either operand is a float (and Value::saem compares numerically), so
/// the flagged int operand converts in place before the double op runs —
/// `in` is then the post-promotion operand type, kDbl.
inline constexpr std::int32_t kSpecBinOpMask = 0xFF;
inline constexpr std::int32_t kSpecBinPromoteLhs = 0x100;
inline constexpr std::int32_t kSpecBinPromoteRhs = 0x200;

/// Exit-edge plan: how to hand a live region state back to the VM.
/// `vstack` lists the virtual entries to materialize onto the real VM
/// stack (bottom first: spill at the materialization point);
/// `writebacks` restore every dirtied local/IT/bound-state.
struct SpecWriteback {
  enum class Kind : std::uint8_t { kStore, kDeclare, kUnbind, kIt };
  Kind kind{};
  std::int32_t local = -1;  // kStore/kDeclare/kIt: index into locals
  std::int32_t slot = -1;   // kUnbind: frame slot
  std::int32_t decl = -1;   // kDeclare: chunk decl index
  SpecType type = SpecType::kInt;
};

/// An internal exit (`internal`) is an in-region edge whose state knows
/// more than its target's: it runs the writebacks, keeps `vstack` live
/// in place, and continues at `target` inside the region.
struct SpecExit {
  std::size_t at_pc = 0;   // op owning the edge; == hi for the fallthrough
  std::size_t target = 0;  // pc the VM resumes at
  std::vector<SpecType> vstack;
  std::vector<SpecWriteback> writebacks;
  bool internal = false;
};

/// One step-accounting batch: a basic block of `steps` specialized ops
/// charged with a single budget check at `first_pc` (see jit_emitter.cpp
/// for the exactness argument).
struct SpecSegment {
  std::size_t first_pc = 0;
  std::int32_t steps = 0;
};

struct RegionPlan {
  std::size_t lo = 0, hi = 0;  // [lo, hi) bytecode pcs
  std::vector<SpecGuard> guards;
  std::vector<SpecLocal> locals;
  std::vector<SpecAct> acts;        // acts[pc - lo]
  /// Virtual stack types *before* each act. The emitter cannot replay
  /// them from the acts alone: at a pc reached only by a forward edge
  /// (linear predecessor was an unconditional jump) the state is the
  /// edge's, not the dead straight line's.
  std::vector<std::vector<SpecType>> vstack_at;  // vstack_at[pc - lo]
  std::vector<SpecExit> exits;      // ascending at_pc; ties in plan order
  std::vector<SpecSegment> segments;
  std::int32_t bank_slots = 0;      // bank quads this region needs
  std::uint32_t max_depth = 0;      // deepest virtual stack point
  /// Why the region ends at `hi`: the refused op and the lattice's
  /// reason, the op budget, or the end of the frame.
  std::string end_reason;

  [[nodiscard]] const SpecExit* exit_at(std::size_t pc) const {
    for (const SpecExit& e : exits) {
      if (e.at_pc == pc) return &e;
    }
    return nullptr;
  }
};

struct SpecPlan {
  std::vector<RegionPlan> regions;  // ascending lo, non-overlapping
  std::int32_t bank_slots = 0;      // max region requirement (incl. the
                                    // shared vstack spill area)

  [[nodiscard]] const RegionPlan* region_starting_at(std::size_t pc) const {
    for (const RegionPlan& r : regions) {
      if (r.lo == pc) return &r;
    }
    return nullptr;
  }
};

/// Virtual-stack register plan shared between analysis and emitter:
/// entries at relative depth 0..3 live in {r8,r9,r10,r11} (ints/bools)
/// or {xmm0..xmm3} (doubles); deeper entries live in the bank's vstack
/// area, bank slot == depth. Depth is capped at kMaxVstack.
inline constexpr std::uint32_t kVstackRegDepth = 4;
inline constexpr std::uint32_t kMaxVstack = 8;

/// Plans specialized regions for `chunk`. Pure; never fails — a chunk
/// with nothing provable just yields zero regions.
SpecPlan analyze_chunk(const vm::Chunk& chunk);

/// Human-readable plan summary (lolrun --jit-dump, tests).
std::string describe_plan(const vm::Chunk& chunk, const SpecPlan& plan);

}  // namespace lol::codegen
