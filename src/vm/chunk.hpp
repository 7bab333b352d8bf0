// Bytecode definitions for the PARALLOL VM.
//
// The VM exists because the paper argues (§II) that "using a compiler for
// LOLCODE is more flexible and efficient than an interpreter". The chunk
// compiler resolves variable names to frame slots at compile time and
// flattens control flow to jumps, removing the per-node dispatch and
// per-access hash lookups the tree-walker pays for. bench_backends
// quantifies the difference.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "ast/types.hpp"
#include "rt/value.hpp"

namespace lol::vm {

/// Opcodes. Operands a, b, c live in the fixed-width instruction.
enum class Op : std::uint8_t {
  kConst,       // push consts[a]
  kPop,         // drop top
  kLoadIt,      // push IT
  kStoreIt,     // IT = pop
  kDeclare,     // declare decls[a]; pops init/size per its flags
  kLoadVar,     // a = slot|name-const, b = access flags; may pop an index
  kStoreVar,    // pops value (and index when indexed)
  kCopyArray,   // a = dst slot|name, b = src slot|name, c = copy flags
  kLock,        // a = slot|name, b = access flags, c = LockOp
  kBinary,      // a = ast::BinOp; pops rhs, lhs; pushes result
  kUnary,       // a = ast::UnOp
  kNary,        // a = ast::NaryOp, b = operand count
  kCast,        // a = ast::TypeKind, b = explicit flag
  kJump,        // pc = a
  kJumpIfFalse, // pops; pc = a when FAIL
  kCall,        // a = function index, b = argc (args on stack)
  kReturn,      // pops return value, pops frame
  kMe,          // push PE id
  kMahFrenz,    // push PE count
  kWhatevr,     // push random NUMBR
  kWhatevar,    // push random NUMBAR
  kHugz,        // barrier
  kBffPush,     // pops target PE; enter predication
  kBffPop,      // a = number of predication levels to leave
  kVisible,     // a = argc, b = bit0 newline, bit1 stderr
  kGimmeh,      // push one input line as YARN
  kUnbind,      // a = slot; mark unbound (loop-scope reset between iters)
  kHalt,        // end of main
  kRegion,      // a = JIT region index; only in a JIT's patched copy of
                // a chunk (vm.hpp RegionHost), never emitted by the compiler
};

/// Access-mode flags for kLoadVar/kStoreVar/kLock/kCopyArray operands.
enum AccessFlags : std::uint32_t {
  kAccRemote = 1u << 0,   // UR — target the predicated PE
  kAccDynamic = 1u << 1,  // SRS — operand is a name-constant index
  kAccIndexed = 1u << 2,  // an index was pushed on the stack
  kAccGlobal = 1u << 3,   // resolve in the global frame (from a function)
};

/// kCopyArray flag layout: low nibble = dst access, high nibble = src.
inline std::uint32_t copy_flags(std::uint32_t dst, std::uint32_t src) {
  return (dst & 0xF) | ((src & 0xF) << 4);
}

/// One fixed-width instruction.
struct Instr {
  Op op{};
  std::int32_t a = 0;
  std::int32_t b = 0;
  std::int32_t c = 0;
};

/// Static description of one declaration site.
struct DeclMeta {
  std::string name;
  std::int32_t slot = -1;
  std::optional<ast::TypeKind> static_type;
  bool srsly = false;
  bool is_array = false;
  bool has_init = false;
  bool has_size = false;
  // Symmetric (WE HAS A) info:
  bool symmetric = false;
  int sym_slot = -1;
  int lock_id = -1;
  ast::TypeKind elem = ast::TypeKind::kNumbr;
  /// Payload type this scalar provably holds right after declaration
  /// (initializer literal type, or NUMBR for loop counters). The JIT's
  /// specialized tier seeds its region-entry type guards from this; the
  /// opt pipeline sharpens it by constant-folding initializers down to
  /// literals before the chunk compiler runs. Advisory only — a wrong
  /// hint costs a deopt, never correctness.
  std::optional<ast::TypeKind> hint;
};

/// Compiled user function.
struct FuncMeta {
  std::string name;
  std::uint32_t entry = 0;   // pc of the first instruction
  std::int32_t n_slots = 0;  // frame size (params first)
  std::int32_t argc = 0;
};

/// A compiled program: code for main followed by every function.
struct Chunk {
  std::vector<Instr> code;
  std::vector<rt::Value> consts;
  std::vector<DeclMeta> decls;
  std::vector<FuncMeta> funcs;
  std::int32_t main_slots = 0;
  /// Dynamic-name maps for SRS: name_maps[0] is main/global, [i+1] is
  /// function i. Later declarations of the same name shadow earlier ones.
  std::vector<std::vector<std::pair<std::string, std::int32_t>>> name_maps;
  int lock_count = 0;
};

/// Opcode mnemonic ("CONST", "LOAD_VAR", ...).
const char* op_name(Op op);

/// Human-readable disassembly (tests and `lolrun --dump-bytecode`).
std::string disassemble(const Chunk& chunk);

}  // namespace lol::vm
