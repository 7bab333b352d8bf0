// The bytecode VM executor. One Vm instance runs one PE of the SPMD
// launch, sharing the chunk (read-only) with every other PE.
//
// The dispatch loop is also the JIT's host (codegen/jit_backend.hpp): a
// JIT program hands the Vm a copy of the chunk in which the first
// instruction of every type-specialized region is Op::kRegion, plus a
// RegionHost that runs the region's machine code. Region exits and
// deopts hand control back to this loop at an ordinary bytecode pc, so
// everything outside the regions — calls, I/O, barriers, error paths —
// is the VM's own code on both backends.
#pragma once

#include "rt/exec_context.hpp"
#include "rt/objects.hpp"
#include "vm/chunk.hpp"
#include "vm/compiler.hpp"

namespace lol::vm {

class Vm;

/// Runs the machine-code regions a JIT installed over a chunk.
class RegionHost {
 public:
  /// enter() result: an entry guard failed and the region ran nothing.
  static constexpr std::int64_t kDeopt = -1;

  /// Runs region `index` from its first pc, whose step the dispatch loop
  /// has already charged. Returns the pc to resume at, or kDeopt. Throws
  /// exactly what the VM would have thrown at the same step.
  virtual std::int64_t enter(Vm& vm, std::int32_t index) = 0;

  /// The instruction Op::kRegion `index` displaced; the VM runs it after
  /// a deopt, without charging its step again.
  [[nodiscard]] virtual const Instr& displaced(std::int32_t index) const = 0;

 protected:
  ~RegionHost() = default;
};

class Vm {
 public:
  /// `regions` runs the Op::kRegion instructions of a JIT-patched chunk;
  /// a plain chunk has none and needs no host.
  Vm(const Chunk& chunk, rt::ExecContext& ctx, RegionHost* regions = nullptr)
      : chunk_(chunk), ctx_(ctx), regions_(regions) {}

  /// Executes the chunk from the top of main. Throws support::RuntimeError
  /// on semantic errors.
  void run();

 private:
  /// The JIT's region runtime (codegen/jit_runtime.cpp) reads and writes
  /// frame cells and the value stack directly on region entry and exit:
  /// it re-creates exactly the state the bytecode ops would have produced
  /// (same Cell fields, same stack order), so this loop resumes at the
  /// exit pc. Keeping the accessor a friend (instead of widening the
  /// public surface) documents that contract.
  friend struct JitSpecAccess;

  // One method per opcode. Operand names mirror Instr::{a,b,c}. Control
  // flow returns its result instead of mutating a pc the caller owns:
  // op_jump_if_false reports whether the branch is taken, op_call returns
  // the callee entry pc, op_return the saved return pc.
  void op_const(std::int32_t a);
  void op_pop();
  void op_load_it();
  void op_store_it();
  void op_declare(std::int32_t a);
  void op_unbind(std::int32_t a);
  void op_load_var(std::int32_t a, std::int32_t b);
  void op_store_var(std::int32_t a, std::int32_t b);
  void op_copy_array(std::int32_t a, std::int32_t b, std::int32_t c);
  void op_lock(std::int32_t a, std::int32_t b, std::int32_t c);
  void op_binary(std::int32_t a);
  void op_unary(std::int32_t a);
  void op_nary(std::int32_t a, std::int32_t b);
  void op_cast(std::int32_t a, std::int32_t b);
  [[nodiscard]] bool op_jump_if_false();
  [[nodiscard]] std::size_t op_call(std::int32_t a, std::int32_t b,
                                    std::size_t ret_pc);
  [[nodiscard]] std::size_t op_return();
  void op_me();
  void op_mah_frenz();
  void op_whatevr();
  void op_whatevar();
  void op_hugz();
  void op_bff_push();
  void op_bff_pop(std::int32_t a);
  void op_visible(std::int32_t a, std::int32_t b);
  void op_gimmeh();

  /// One variable slot: scalar value, private array, or symmetric handle.
  struct Cell {
    rt::Value v;
    std::shared_ptr<rt::PrivateArray> arr;
    std::optional<rt::SymHandle> sym;
    std::optional<ast::TypeKind> stype;
    bool bound = false;

    [[nodiscard]] bool is_array() const {
      return arr != nullptr || (sym && sym->is_array);
    }
  };

  struct Frame {
    std::vector<Cell> slots;
    rt::Value it;
    std::size_t ret_pc = 0;
    std::size_t bff_depth = 0;
    std::size_t name_map = 0;
  };

  rt::Value pop();
  void push(rt::Value v);

  Cell& static_cell(std::int32_t slot, std::uint32_t flags);
  Cell& dynamic_cell(const std::string& name);
  [[nodiscard]] std::string slot_name(const Frame& f,
                                      std::int32_t slot) const;

  /// Lazily renders a variable name for error messages only — computing
  /// it eagerly on every access would dominate the dispatch loop.
  struct NameRef {
    const Vm* vm = nullptr;
    const Frame* frame = nullptr;
    std::int32_t slot = -1;
    const std::string* dyn = nullptr;

    [[nodiscard]] std::string str() const {
      if (dyn != nullptr) return *dyn;
      return vm->slot_name(*frame, slot);
    }
  };

  rt::Value load_cell(Cell& c, bool indexed, bool remote,
                      const rt::Value* index, const NameRef& name);
  void store_cell(Cell& c, bool indexed, bool remote, const rt::Value* index,
                  rt::Value v, const NameRef& name);

  int current_bff() const;
  /// TXT MAH BFF `target`: range-checks and enters predication.
  void push_bff(std::int64_t target);

  const Chunk& chunk_;
  rt::ExecContext& ctx_;
  RegionHost* regions_;
  std::vector<rt::Value> stack_;
  std::vector<Frame> frames_;
  std::vector<int> bff_;

  static constexpr std::size_t kMaxFrames = 2000;
};

/// Convenience used by the SPMD launcher.
void run_pe(const Chunk& chunk, rt::ExecContext& ctx);

}  // namespace lol::vm
