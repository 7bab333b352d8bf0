// The runtime surface of the JIT's specialized regions (JitSpecAccess):
// region-entry type guards, batched step accounting, SRSLY- and
// symmetric-array element access (UR loads included), TXT MAH BFF
// predication, the UNSQUAR/FLIP domain errors, and the exit-path
// materialization that rebuilds VM state from register/bank values.
// Every error these raise uses the exact strings the Vm methods use, so a
// program that dies inside a region dies with a byte-identical message.
// Emitted code has no unwind tables, so the extern wrappers convert any
// C++ exception into a negative status with the exception parked in a
// thread-local; jit_backend.cpp rethrows it.
#include <algorithm>

#include "codegen/jit_analysis.hpp"
#include "codegen/jit_emitter.hpp"
#include "rt/ops.hpp"
#include "vm/vm.hpp"

namespace lol::vm {

/// Friend-of-Vm accessor for the specialized tier (declared in vm.hpp).
/// Bodies may throw exactly where the equivalent Vm op would; the
/// extern wrappers below park and report status like every JIT helper.
struct JitSpecAccess {
  using GK = codegen::SpecGuardKind;
  using ST = codegen::SpecType;

  static rt::Value value_of(std::int64_t bits, ST type) {
    switch (type) {
      case ST::kInt: return rt::Value::numbr(bits);
      case ST::kDbl: {
        double d;
        __builtin_memcpy(&d, &bits, sizeof d);
        return rt::Value::numbar(d);
      }
      case ST::kBool: return rt::Value::troof(bits != 0);
    }
    return rt::Value::noob();
  }

  /// Region-entry guard: proves the cell has the shape/payload the
  /// analysis assumed, loading scalar payloads into the bank. Read-only —
  /// a failed guard leaves the VM untouched for the generic path.
  static std::int32_t guard(Vm& vm, std::int32_t slot, std::int32_t kind,
                            std::int64_t* bank_out) {
    Vm::Cell& c =
        vm.frames_.back().slots[static_cast<std::size_t>(slot)];
    switch (static_cast<GK>(kind)) {
      case GK::kScalarInt:
        if (!c.bound || c.arr != nullptr || c.sym || !c.v.is_numbr()) {
          return 0;
        }
        *bank_out = c.v.numbr_raw();
        return 1;
      case GK::kScalarDbl: {
        if (!c.bound || c.arr != nullptr || c.sym || !c.v.is_numbar()) {
          return 0;
        }
        double d = c.v.numbar_raw();
        __builtin_memcpy(bank_out, &d, sizeof d);
        return 1;
      }
      case GK::kScalarBool:
        if (!c.bound || c.arr != nullptr || c.sym || !c.v.is_troof()) {
          return 0;
        }
        *bank_out = c.v.troof_raw() ? 1 : 0;
        return 1;
      case GK::kScalarShape:
        return c.bound && c.arr == nullptr && !c.sym ? 1 : 0;
      case GK::kUnbound:
        return c.bound ? 0 : 1;
      case GK::kArrInt:
        return c.bound && c.arr != nullptr && !c.sym && c.arr->srsly &&
                       c.arr->elem == ast::TypeKind::kNumbr
                   ? 1
                   : 0;
      case GK::kArrDbl:
        return c.bound && c.arr != nullptr && !c.sym && c.arr->srsly &&
                       c.arr->elem == ast::TypeKind::kNumbar
                   ? 1
                   : 0;
      case GK::kSymArrInt:
        return c.bound && c.sym && c.sym->is_array &&
                       c.sym->elem == ast::TypeKind::kNumbr
                   ? 1
                   : 0;
      case GK::kSymArrDbl:
        return c.bound && c.sym && c.sym->is_array &&
                       c.sym->elem == ast::TypeKind::kNumbar
                   ? 1
                   : 0;
    }
    return 0;
  }

  /// Bounds-checked array element read. The guard proved shape and
  /// element type; only the index (or, for UR, a missing TXT MAH BFF)
  /// can fail, with the Vm's exact message and in Vm::load_cell's order.
  /// The symmetric branch goes through rt::sym_read like Vm::load_cell,
  /// so its schedule_yield choice point and sim-time charge survive.
  static rt::Value arr_load(Vm& vm, std::int32_t slot, std::int64_t idx,
                            bool remote) {
    Vm::Cell& c = vm.frames_.back().slots[static_cast<std::size_t>(slot)];
    if (c.sym) {
      if (idx < 0 || static_cast<std::size_t>(idx) >= c.sym->count) {
        throw support::RuntimeError("array index " + std::to_string(idx) +
                                    " out of bounds [0, " +
                                    std::to_string(c.sym->count) + ")");
      }
      return rt::sym_read(*vm.ctx_.pe, *c.sym,
                          static_cast<std::size_t>(idx),
                          remote ? vm.current_bff() : -1);
    }
    rt::PrivateArray& arr = *c.arr;
    if (idx < 0 || static_cast<std::size_t>(idx) >= arr.elems.size()) {
      throw support::RuntimeError("array index " + std::to_string(idx) +
                                  " out of bounds [0, " +
                                  std::to_string(arr.elems.size()) + ")");
    }
    return arr.elems[static_cast<std::size_t>(idx)];
  }

  static void arr_store(Vm& vm, std::int32_t slot, std::int64_t idx,
                        rt::Value v) {
    Vm::Cell& c = vm.frames_.back().slots[static_cast<std::size_t>(slot)];
    if (c.sym) {
      if (idx < 0 || static_cast<std::size_t>(idx) >= c.sym->count) {
        throw support::RuntimeError("array index " + std::to_string(idx) +
                                    " out of bounds [0, " +
                                    std::to_string(c.sym->count) + ")");
      }
      // sym_write's to_numbr/to_numbar cast is the identity: the guard
      // proved the lane type matches the value the region computed.
      rt::sym_write(*vm.ctx_.pe, *c.sym, static_cast<std::size_t>(idx), -1,
                    v);
      return;
    }
    rt::PrivateArray& arr = *c.arr;
    if (idx < 0 || static_cast<std::size_t>(idx) >= arr.elems.size()) {
      throw support::RuntimeError("array index " + std::to_string(idx) +
                                  " out of bounds [0, " +
                                  std::to_string(arr.elems.size()) + ")");
    }
    // The guard proved srsly + matching element type: the cast the Vm
    // would apply is the identity.
    arr.elems[static_cast<std::size_t>(idx)] = std::move(v);
  }

  static void push(Vm& vm, std::int64_t bits, ST type) {
    vm.push(value_of(bits, type));
  }

  /// Exit writeback of a scalar store. Replicates Vm::store_cell's bound
  /// scalar tail; the stype cast is the identity (the analysis only
  /// specializes stores whose type matches any SRSLY declared type, and
  /// a region converts a NUMBR bound for a SRSLY NUMBAR before storing).
  static void wb_store(Vm& vm, std::int32_t slot, std::int64_t bits,
                       ST type) {
    Vm::Cell& c =
        vm.frames_.back().slots[static_cast<std::size_t>(slot)];
    rt::Value v = value_of(bits, type);
    if (c.stype) v = v.cast_to(*c.stype, false);
    c.v = std::move(v);
  }

  /// Exit writeback of an in-region declaration. The cell was proven
  /// unbound at region entry, so starting from a default Cell is exactly
  /// the state op_declare would have seen.
  static void wb_decl(Vm& vm, std::int32_t decl, std::int64_t bits,
                      ST type) {
    const DeclMeta& m =
        JitSpecAccess::chunk(vm).decls[static_cast<std::size_t>(decl)];
    Vm::Cell& c =
        vm.frames_.back().slots[static_cast<std::size_t>(m.slot)];
    c = Vm::Cell{};
    if (m.srsly && m.static_type) c.stype = *m.static_type;
    rt::Value v = value_of(bits, type);
    if (c.stype) v = v.cast_to(*c.stype, false);
    c.v = std::move(v);
    c.bound = true;
  }

  static void wb_unbind(Vm& vm, std::int32_t slot) {
    vm.frames_.back().slots[static_cast<std::size_t>(slot)] = Vm::Cell{};
  }

  static void wb_it(Vm& vm, std::int64_t bits, ST type) {
    vm.frames_.back().it = value_of(bits, type);
  }

  static void bff_push(Vm& vm, std::int64_t target) {
    vm.push_bff(target);
  }

  static void bff_pop(Vm& vm, std::int32_t levels) { vm.op_bff_pop(levels); }

  static const Chunk& chunk(const Vm& vm) { return vm.chunk_; }
};

}  // namespace lol::vm

namespace lol::codegen {

namespace detail {

std::exception_ptr& jit_pending() {
  thread_local std::exception_ptr pending;
  return pending;
}

}  // namespace detail

namespace {

using vm::JitSpecAccess;
using vm::Vm;

/// Batched step accounting. A specialized basic block of k ops charges
/// them inline (fuel permitting); when fuel runs out, this charges the
/// k steps through ctx.count_step() one by one — so a step-limit throw,
/// PE kill or abort fires at the exact step index the VM would have used,
/// with the abort poll / fiber preempt at its exact period — then returns
/// fresh fuel: the number of steps that can safely be charged inline
/// before any of those events could fire.
std::int64_t js_slow(Vm* vm, JitSpecEnv* env, std::int64_t k) {
  (void)vm;
  rt::ExecContext& ctx = *env->ctx;
  try {
    for (std::int64_t i = 0; i < k; ++i) ctx.count_step();
  } catch (...) {
    detail::jit_pending() = std::current_exception();
    return -1;
  }
  env->spec_ops += static_cast<std::uint64_t>(k);
  std::uint64_t fuel = rt::ExecContext::kAbortPollPeriod;
  fuel = std::min(fuel, ctx.abort_countdown - 1);  // countdown >= 1 here
  if (ctx.max_steps != 0) fuel = std::min(fuel, ctx.steps_left);
  if (ctx.kill_at_step != 0) {
    fuel = std::min(fuel, ctx.kill_at_step - 1 - ctx.steps_done);
  }
  return static_cast<std::int64_t>(fuel);
}

std::int32_t js_guard(Vm* vm, std::int32_t slot, std::int32_t kind,
                      std::int64_t* bank_out) {
  return JitSpecAccess::guard(*vm, slot, kind, bank_out);
}

struct SpecRetI {
  std::int64_t status;  // rax
  std::int64_t value;   // rdx
};
struct SpecRetD {
  std::int64_t status;  // rax
  double value;         // xmm0
};

SpecRetI js_arr_load_i(Vm* vm, std::int32_t slot, std::int64_t idx,
                       std::int32_t remote) {
  try {
    return {0,
            JitSpecAccess::arr_load(*vm, slot, idx, remote != 0).numbr_raw()};
  } catch (...) {
    detail::jit_pending() = std::current_exception();
    return {-1, 0};
  }
}

SpecRetD js_arr_load_d(Vm* vm, std::int32_t slot, std::int64_t idx,
                       std::int32_t remote) {
  try {
    return {0,
            JitSpecAccess::arr_load(*vm, slot, idx, remote != 0).numbar_raw()};
  } catch (...) {
    detail::jit_pending() = std::current_exception();
    return {-1, 0.0};
  }
}

std::int32_t js_arr_store_i(Vm* vm, std::int32_t slot, std::int64_t idx,
                            std::int64_t v) {
  try {
    JitSpecAccess::arr_store(*vm, slot, idx, rt::Value::numbr(v));
    return 0;
  } catch (...) {
    detail::jit_pending() = std::current_exception();
    return -1;
  }
}

std::int32_t js_arr_store_d(Vm* vm, std::int32_t slot, std::int64_t idx,
                            double v) {
  try {
    JitSpecAccess::arr_store(*vm, slot, idx, rt::Value::numbar(v));
    return 0;
  } catch (...) {
    detail::jit_pending() = std::current_exception();
    return -1;
  }
}

std::int32_t js_push(Vm* vm, std::int64_t bits, std::int32_t type) {
  try {
    JitSpecAccess::push(*vm, bits, static_cast<SpecType>(type));
    return 0;
  } catch (...) {
    detail::jit_pending() = std::current_exception();
    return -1;
  }
}

std::int32_t js_wb_store(Vm* vm, std::int32_t slot, std::int64_t bits,
                         std::int32_t type) {
  try {
    JitSpecAccess::wb_store(*vm, slot, bits, static_cast<SpecType>(type));
    return 0;
  } catch (...) {
    detail::jit_pending() = std::current_exception();
    return -1;
  }
}

std::int32_t js_wb_decl(Vm* vm, std::int32_t decl, std::int64_t bits,
                        std::int32_t type) {
  try {
    JitSpecAccess::wb_decl(*vm, decl, bits, static_cast<SpecType>(type));
    return 0;
  } catch (...) {
    detail::jit_pending() = std::current_exception();
    return -1;
  }
}

std::int32_t js_wb_unbind(Vm* vm, std::int32_t slot) {
  JitSpecAccess::wb_unbind(*vm, slot);
  return 0;
}

std::int32_t js_wb_it(Vm* vm, std::int64_t bits, std::int32_t type) {
  JitSpecAccess::wb_it(*vm, bits, static_cast<SpecType>(type));
  return 0;
}

std::int32_t js_bff_push(Vm* vm, std::int64_t target) {
  try {
    JitSpecAccess::bff_push(*vm, target);
    return 0;
  } catch (...) {
    detail::jit_pending() = std::current_exception();
    return -1;
  }
}

void js_bff_pop(Vm* vm, std::int32_t levels) {
  JitSpecAccess::bff_pop(*vm, levels);  // shrinks bff_: cannot throw
}

/// Reached only when the inline domain check failed, so rt::op_unary
/// throws its own message for the same operand.
std::int32_t js_unary_throw(std::int32_t op, double x) {
  try {
    (void)rt::op_unary(static_cast<ast::UnOp>(op), rt::Value::numbar(x));
    throw support::RuntimeError("internal: unary domain check disagrees");
  } catch (...) {
    detail::jit_pending() = std::current_exception();
    return -1;
  }
}

}  // namespace

const JitSpecHelpers& jit_spec_helpers() {
  static const JitSpecHelpers h = [] {
    JitSpecHelpers t;
    t.slow = reinterpret_cast<std::uint64_t>(&js_slow);
    t.guard = reinterpret_cast<std::uint64_t>(&js_guard);
    t.arr_load_i = reinterpret_cast<std::uint64_t>(&js_arr_load_i);
    t.arr_load_d = reinterpret_cast<std::uint64_t>(&js_arr_load_d);
    t.arr_store_i = reinterpret_cast<std::uint64_t>(&js_arr_store_i);
    t.arr_store_d = reinterpret_cast<std::uint64_t>(&js_arr_store_d);
    t.push = reinterpret_cast<std::uint64_t>(&js_push);
    t.wb_store = reinterpret_cast<std::uint64_t>(&js_wb_store);
    t.wb_decl = reinterpret_cast<std::uint64_t>(&js_wb_decl);
    t.wb_unbind = reinterpret_cast<std::uint64_t>(&js_wb_unbind);
    t.wb_it = reinterpret_cast<std::uint64_t>(&js_wb_it);
    t.bff_push = reinterpret_cast<std::uint64_t>(&js_bff_push);
    t.bff_pop = reinterpret_cast<std::uint64_t>(&js_bff_pop);
    t.unary_throw = reinterpret_cast<std::uint64_t>(&js_unary_throw);
    return t;
  }();
  return h;
}

}  // namespace lol::codegen
