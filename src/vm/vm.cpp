#include "vm/vm.hpp"

#include <algorithm>

#include "rt/ops.hpp"

namespace lol::vm {

using rt::Value;
using support::RuntimeError;

Value Vm::pop() {
  Value v = std::move(stack_.back());
  stack_.pop_back();
  return v;
}

void Vm::push(Value v) { stack_.push_back(std::move(v)); }

std::string Vm::slot_name(const Frame& f, std::int32_t slot) const {
  const auto& map = chunk_.name_maps[f.name_map];
  for (auto it = map.rbegin(); it != map.rend(); ++it) {
    if (it->second == slot) return it->first;
  }
  return "<slot " + std::to_string(slot) + ">";
}

Vm::Cell& Vm::static_cell(std::int32_t slot, std::uint32_t flags) {
  Frame& f = (flags & kAccGlobal) ? frames_.front() : frames_.back();
  return f.slots[static_cast<std::size_t>(slot)];
}

Vm::Cell& Vm::dynamic_cell(const std::string& name) {
  // Innermost-visible bound declaration wins: search the current frame's
  // name map from the most recent declaration backwards, then globals.
  auto search = [&](Frame& f) -> Cell* {
    const auto& map = chunk_.name_maps[f.name_map];
    Cell* fallback = nullptr;
    for (auto it = map.rbegin(); it != map.rend(); ++it) {
      if (it->first != name) continue;
      Cell& c = f.slots[static_cast<std::size_t>(it->second)];
      if (c.bound) return &c;
      if (fallback == nullptr) fallback = &c;
    }
    return fallback != nullptr && fallback->bound ? fallback : nullptr;
  };
  if (Cell* c = search(frames_.back())) return *c;
  if (frames_.size() > 1) {
    if (Cell* c = search(frames_.front())) return *c;
  }
  throw RuntimeError("SRS: variable '" + name + "' has not been declared");
}

int Vm::current_bff() const {
  if (bff_.empty()) {
    throw RuntimeError(
        "UR reference outside TXT MAH BFF predication: no remote PE is "
        "selected");
  }
  return bff_.back();
}

Value Vm::load_cell(Cell& c, bool indexed, bool remote, const Value* index,
                    const NameRef& name) {
  if (!c.bound) {
    throw RuntimeError("variable '" + name.str() + "' has not been declared");
  }
  if (!indexed) {
    if (c.is_array()) {
      throw RuntimeError("cannot read an array as a value; index it with 'Z");
    }
    if (c.sym) {
      return rt::sym_read(*ctx_.pe, *c.sym, 0, remote ? current_bff() : -1);
    }
    if (remote) {
      throw RuntimeError(
          "UR requires a symmetric variable (declare it with WE HAS A)");
    }
    return c.v;
  }
  std::int64_t i = index->to_numbr();
  if (c.sym && c.sym->is_array) {
    if (i < 0 || static_cast<std::size_t>(i) >= c.sym->count) {
      throw RuntimeError("array index " + std::to_string(i) +
                         " out of bounds [0, " + std::to_string(c.sym->count) +
                         ")");
    }
    return rt::sym_read(*ctx_.pe, *c.sym, static_cast<std::size_t>(i),
                        remote ? current_bff() : -1);
  }
  if (c.arr != nullptr) {
    if (remote) {
      throw RuntimeError(
          "UR requires a symmetric array (declare it with WE HAS A)");
    }
    if (i < 0 || static_cast<std::size_t>(i) >= c.arr->elems.size()) {
      throw RuntimeError("array index " + std::to_string(i) +
                         " out of bounds [0, " +
                         std::to_string(c.arr->elems.size()) + ")");
    }
    return c.arr->elems[static_cast<std::size_t>(i)];
  }
  throw RuntimeError("'Z index applied to a non-array variable");
}

void Vm::store_cell(Cell& c, bool indexed, bool remote, const Value* index,
                    Value v, const NameRef& name) {
  if (!c.bound) {
    throw RuntimeError("variable '" + name.str() + "' has not been declared");
  }
  if (!indexed) {
    if (c.is_array()) {
      throw RuntimeError("cannot assign a scalar to an array; index it with "
                         "'Z");
    }
    if (c.sym) {
      rt::sym_write(*ctx_.pe, *c.sym, 0, remote ? current_bff() : -1, v);
      return;
    }
    if (remote) {
      throw RuntimeError(
          "UR requires a symmetric variable (declare it with WE HAS A)");
    }
    if (c.stype) v = v.cast_to(*c.stype, false);
    c.v = std::move(v);
    return;
  }
  std::int64_t i = index->to_numbr();
  if (c.sym && c.sym->is_array) {
    if (i < 0 || static_cast<std::size_t>(i) >= c.sym->count) {
      throw RuntimeError("array index " + std::to_string(i) +
                         " out of bounds [0, " + std::to_string(c.sym->count) +
                         ")");
    }
    rt::sym_write(*ctx_.pe, *c.sym, static_cast<std::size_t>(i),
                  remote ? current_bff() : -1, v);
    return;
  }
  if (c.arr != nullptr) {
    if (remote) {
      throw RuntimeError(
          "UR requires a symmetric array (declare it with WE HAS A)");
    }
    if (i < 0 || static_cast<std::size_t>(i) >= c.arr->elems.size()) {
      throw RuntimeError("array index " + std::to_string(i) +
                         " out of bounds [0, " +
                         std::to_string(c.arr->elems.size()) + ")");
    }
    if (c.arr->srsly) v = v.cast_to(c.arr->elem, false);
    c.arr->elems[static_cast<std::size_t>(i)] = std::move(v);
    return;
  }
  throw RuntimeError("'Z index applied to a non-array variable");
}

void Vm::op_const(std::int32_t a) {
  push(chunk_.consts[static_cast<std::size_t>(a)]);
}

void Vm::op_pop() { (void)pop(); }

void Vm::op_load_it() { push(frames_.back().it); }

void Vm::op_store_it() { frames_.back().it = pop(); }

void Vm::op_declare(std::int32_t a) {
  const DeclMeta& m = chunk_.decls[static_cast<std::size_t>(a)];
  Cell& c = frames_.back().slots[static_cast<std::size_t>(m.slot)];
  if (c.bound) {
    throw RuntimeError("variable '" + m.name +
                       "' is already declared in this scope");
  }
  std::optional<Value> init;
  if (m.has_init) init = pop();
  std::optional<Value> size;
  if (m.has_size) size = pop();

  if (m.symmetric) {
    rt::SymHandle h;
    h.slot = m.sym_slot;
    h.elem = m.elem;
    h.is_array = m.is_array;
    h.lock_id = m.lock_id;
    h.count = 1;
    if (m.is_array) {
      std::int64_t n = size->to_numbr();
      if (n <= 0) {
        throw RuntimeError("array size must be positive, got " +
                           std::to_string(n));
      }
      h.count = static_cast<std::size_t>(n);
    }
    h.offset = ctx_.pe->shmalloc(h.count * 8);
    c.sym = h;
    c.stype = m.elem;
    if (init) rt::sym_write(*ctx_.pe, h, 0, -1, *init);
  } else if (m.is_array) {
    std::int64_t n = size->to_numbr();
    if (n <= 0) {
      throw RuntimeError("array size must be positive, got " +
                         std::to_string(n));
    }
    auto arr = std::make_shared<rt::PrivateArray>();
    arr->elem = m.elem;
    arr->srsly = m.srsly;
    arr->elems.assign(static_cast<std::size_t>(n), Value::zero_of(m.elem));
    c.arr = std::move(arr);
  } else {
    if (m.srsly && m.static_type) c.stype = *m.static_type;
    if (init) {
      Value v = std::move(*init);
      if (c.stype) v = v.cast_to(*c.stype, false);
      c.v = std::move(v);
    } else if (m.static_type) {
      c.v = Value::zero_of(*m.static_type);
    } else {
      c.v = Value::noob();
    }
  }
  c.bound = true;
}

void Vm::op_unbind(std::int32_t a) {
  frames_.back().slots[static_cast<std::size_t>(a)] = Cell{};
}

void Vm::op_load_var(std::int32_t a, std::int32_t b) {
  auto flags = static_cast<std::uint32_t>(b);
  std::string dyn_name;
  Cell* c;
  if (flags & kAccDynamic) {
    dyn_name = pop().to_yarn();
    c = &dynamic_cell(dyn_name);
  } else {
    c = &static_cell(a, flags);
  }
  std::optional<Value> index;
  if (flags & kAccIndexed) index = pop();
  NameRef name{this,
               (flags & kAccGlobal) ? &frames_.front() : &frames_.back(),
               a, (flags & kAccDynamic) ? &dyn_name : nullptr};
  push(load_cell(*c, (flags & kAccIndexed) != 0, (flags & kAccRemote) != 0,
                 index ? &*index : nullptr, name));
}

void Vm::op_store_var(std::int32_t a, std::int32_t b) {
  auto flags = static_cast<std::uint32_t>(b);
  std::string dyn_name;
  Cell* c;
  if (flags & kAccDynamic) {
    dyn_name = pop().to_yarn();
    c = &dynamic_cell(dyn_name);
  } else {
    c = &static_cell(a, flags);
  }
  Value v = pop();
  std::optional<Value> index;
  if (flags & kAccIndexed) index = pop();
  NameRef name{this,
               (flags & kAccGlobal) ? &frames_.front() : &frames_.back(),
               a, (flags & kAccDynamic) ? &dyn_name : nullptr};
  store_cell(*c, (flags & kAccIndexed) != 0, (flags & kAccRemote) != 0,
             index ? &*index : nullptr, std::move(v), name);
}

void Vm::op_copy_array(std::int32_t a, std::int32_t b, std::int32_t cc) {
  auto flags = static_cast<std::uint32_t>(cc);
  std::uint32_t dst_flags = flags & 0xF;
  std::uint32_t src_flags = (flags >> 4) & 0xF;
  // Dynamic names were pushed src-first, dst-last.
  std::string dst_dyn, src_dyn;
  Cell* dst;
  Cell* src;
  if (dst_flags & kAccDynamic) {
    dst_dyn = pop().to_yarn();
    dst = &dynamic_cell(dst_dyn);
  } else {
    dst = &static_cell(a, dst_flags);
  }
  if (src_flags & kAccDynamic) {
    src_dyn = pop().to_yarn();
    src = &dynamic_cell(src_dyn);
  } else {
    src = &static_cell(b, src_flags);
  }
  NameRef dst_name{this,
                   (dst_flags & kAccGlobal) ? &frames_.front()
                                            : &frames_.back(),
                   a, (dst_flags & kAccDynamic) ? &dst_dyn : nullptr};
  NameRef src_name{this,
                   (src_flags & kAccGlobal) ? &frames_.front()
                                            : &frames_.back(),
                   b, (src_flags & kAccDynamic) ? &src_dyn : nullptr};
  if (!dst->bound) {
    throw RuntimeError("variable '" + dst_name.str() +
                       "' has not been declared");
  }
  if (!src->bound) {
    throw RuntimeError("variable '" + src_name.str() +
                       "' has not been declared");
  }
  bool dst_remote = (dst_flags & kAccRemote) != 0;
  bool src_remote = (src_flags & kAccRemote) != 0;
  if (dst->is_array() && src->is_array()) {
    if (dst_remote && !dst->sym) {
      throw RuntimeError("UR requires a symmetric array");
    }
    if (src_remote && !src->sym) {
      throw RuntimeError("UR requires a symmetric array");
    }
    rt::ArrayLike d{dst->arr.get(), dst->sym ? &*dst->sym : nullptr};
    rt::ArrayLike s{src->arr.get(), src->sym ? &*src->sym : nullptr};
    rt::copy_arrays(*ctx_.pe, d, dst_remote ? current_bff() : -1, s,
                    src_remote ? current_bff() : -1);
  } else {
    // Scalar-to-scalar move through the normal load/store path.
    Value v = load_cell(*src, false, src_remote, nullptr, src_name);
    store_cell(*dst, false, dst_remote, nullptr, std::move(v), dst_name);
  }
}

void Vm::op_lock(std::int32_t a, std::int32_t b, std::int32_t cc) {
  auto flags = static_cast<std::uint32_t>(b);
  Cell* c;
  if (flags & kAccDynamic) {
    std::string name = pop().to_yarn();
    c = &dynamic_cell(name);
  } else {
    c = &static_cell(a, flags);
  }
  if (!c->bound || !c->sym || c->sym->lock_id < 0) {
    throw RuntimeError(
        "variable has no lock: declare it WE HAS A ... AN IM SHARIN IT");
  }
  int id = c->sym->lock_id;
  switch (static_cast<ast::LockOp>(cc)) {
    case ast::LockOp::kAcquire:
      ctx_.pe->set_lock(id);
      frames_.back().it = Value::troof(true);
      break;
    case ast::LockOp::kTry:
      frames_.back().it = Value::troof(ctx_.pe->test_lock(id));
      break;
    case ast::LockOp::kRelease:
      ctx_.pe->clear_lock(id);
      break;
  }
}

void Vm::op_binary(std::int32_t a) {
  Value rhs = pop();
  Value lhs = pop();
  push(rt::op_binary(static_cast<ast::BinOp>(a), lhs, rhs));
}

void Vm::op_unary(std::int32_t a) {
  Value v = pop();
  push(rt::op_unary(static_cast<ast::UnOp>(a), v));
}

void Vm::op_nary(std::int32_t a, std::int32_t b) {
  std::size_t n = static_cast<std::size_t>(b);
  std::vector<Value> ops(n);
  for (std::size_t i = n; i-- > 0;) ops[i] = pop();
  push(rt::op_nary(static_cast<ast::NaryOp>(a), ops));
}

void Vm::op_cast(std::int32_t a, std::int32_t b) {
  Value v = pop();
  push(v.cast_to(static_cast<ast::TypeKind>(a), b != 0));
}

bool Vm::op_jump_if_false() { return !pop().to_troof(); }

std::size_t Vm::op_call(std::int32_t a, std::int32_t b, std::size_t ret_pc) {
  const FuncMeta& f = chunk_.funcs[static_cast<std::size_t>(a)];
  if (frames_.size() >= kMaxFrames) {
    throw RuntimeError("call depth exceeded (" + std::to_string(kMaxFrames) +
                       "): runaway recursion?");
  }
  Frame frame;
  frame.slots.resize(static_cast<std::size_t>(f.n_slots));
  frame.ret_pc = ret_pc;
  frame.bff_depth = bff_.size();
  frame.name_map = static_cast<std::size_t>(a) + 1;
  for (std::int32_t i = b; i-- > 0;) {
    Cell& c = frame.slots[static_cast<std::size_t>(i)];
    c.v = pop();
    c.bound = true;
  }
  frames_.push_back(std::move(frame));
  return f.entry;
}

std::size_t Vm::op_return() {
  Value rv = pop();
  Frame& f = frames_.back();
  bff_.resize(f.bff_depth);
  std::size_t ret_pc = f.ret_pc;
  frames_.pop_back();
  push(std::move(rv));
  return ret_pc;
}

void Vm::op_me() { push(Value::numbr(ctx_.pe->id())); }

void Vm::op_mah_frenz() { push(Value::numbr(ctx_.pe->n_pes())); }

void Vm::op_whatevr() { push(Value::numbr(ctx_.rng_numbr())); }

void Vm::op_whatevar() { push(Value::numbar(ctx_.rng_numbar())); }

void Vm::op_hugz() { ctx_.pe->barrier_all(); }

void Vm::op_bff_push() { push_bff(pop().to_numbr()); }

void Vm::push_bff(std::int64_t target) {
  if (target < 0 || target >= ctx_.pe->n_pes()) {
    throw RuntimeError("TXT MAH BFF " + std::to_string(target) +
                       ": no such PE (MAH FRENZ = " +
                       std::to_string(ctx_.pe->n_pes()) + ")");
  }
  bff_.push_back(static_cast<int>(target));
}

void Vm::op_bff_pop(std::int32_t a) {
  bff_.resize(bff_.size() - static_cast<std::size_t>(a));
}

void Vm::op_visible(std::int32_t a, std::int32_t b) {
  std::size_t n = static_cast<std::size_t>(a);
  std::vector<Value> args(n);
  for (std::size_t i = n; i-- > 0;) args[i] = pop();
  std::string text;
  for (const Value& v : args) text += v.to_yarn();
  if (b & 1) text += '\n';
  if (b & 2) {
    ctx_.out->write_err(ctx_.pe->id(), text);
  } else {
    ctx_.out->write(ctx_.pe->id(), text);
  }
}

void Vm::op_gimmeh() {
  auto line = ctx_.read_line();
  push(Value::yarn(line.value_or("")));
}

void Vm::run() {
  frames_.emplace_back().slots.resize(
      static_cast<std::size_t>(chunk_.main_slots));

  std::size_t pc = 0;
  for (;;) {
    ctx_.count_step();
    const Instr* in = &chunk_.code[pc++];
  dispatch:
    switch (in->op) {
      case Op::kConst:
        op_const(in->a);
        break;
      case Op::kPop:
        op_pop();
        break;
      case Op::kLoadIt:
        op_load_it();
        break;
      case Op::kStoreIt:
        op_store_it();
        break;
      case Op::kDeclare:
        op_declare(in->a);
        break;
      case Op::kUnbind:
        op_unbind(in->a);
        break;
      case Op::kLoadVar:
        op_load_var(in->a, in->b);
        break;
      case Op::kStoreVar:
        op_store_var(in->a, in->b);
        break;
      case Op::kCopyArray:
        op_copy_array(in->a, in->b, in->c);
        break;
      case Op::kLock:
        op_lock(in->a, in->b, in->c);
        break;
      case Op::kBinary:
        op_binary(in->a);
        break;
      case Op::kUnary:
        op_unary(in->a);
        break;
      case Op::kNary:
        op_nary(in->a, in->b);
        break;
      case Op::kCast:
        op_cast(in->a, in->b);
        break;
      case Op::kJump:
        pc = static_cast<std::size_t>(in->a);
        break;
      case Op::kJumpIfFalse:
        if (op_jump_if_false()) pc = static_cast<std::size_t>(in->a);
        break;
      case Op::kCall:
        pc = op_call(in->a, in->b, pc);
        break;
      case Op::kReturn:
        pc = op_return();
        break;
      case Op::kMe:
        op_me();
        break;
      case Op::kMahFrenz:
        op_mah_frenz();
        break;
      case Op::kWhatevr:
        op_whatevr();
        break;
      case Op::kWhatevar:
        op_whatevar();
        break;
      case Op::kHugz:
        op_hugz();
        break;
      case Op::kBffPush:
        op_bff_push();
        break;
      case Op::kBffPop:
        op_bff_pop(in->a);
        break;
      case Op::kVisible:
        op_visible(in->a, in->b);
        break;
      case Op::kGimmeh:
        op_gimmeh();
        break;
      case Op::kRegion: {
        // The charge above was the displaced instruction's step; the
        // region charges the rest of what it runs.
        const std::int64_t next = regions_->enter(*this, in->a);
        if (next != RegionHost::kDeopt) {
          pc = static_cast<std::size_t>(next);
          break;
        }
        in = &regions_->displaced(in->a);
        goto dispatch;
      }
      case Op::kHalt:
        return;
    }
  }
}

void run_pe(const Chunk& chunk, rt::ExecContext& ctx) {
  Vm(chunk, ctx).run();
}

}  // namespace lol::vm
