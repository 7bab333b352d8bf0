#include "interp/interpreter.hpp"

#include <cstring>

#include "rt/ops.hpp"

namespace lol::interp {

using rt::Value;
using support::RuntimeError;

Interpreter::Interpreter(const ast::Program& program,
                         const sema::Analysis& analysis,
                         rt::ExecContext& ctx)
    : prog_(program), analysis_(analysis), ctx_(ctx) {}

void Interpreter::run() {
  Flow f = exec_block(prog_.body, globals_);
  (void)f;  // sema guarantees no stray GTFO/FOUND YR at the top level
}

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

Interpreter::Flow Interpreter::exec_block(const ast::StmtList& body,
                                          Env& env) {
  for (const auto& s : body) {
    Flow f = exec_stmt(*s, env);
    if (f != Flow::kNormal) return f;
  }
  return Flow::kNormal;
}

Interpreter::Flow Interpreter::exec_stmt(const ast::Stmt& s, Env& env) {
  ctx_.count_step();
  switch (s.kind) {
    case ast::StmtKind::kVarDecl:
      exec_decl(static_cast<const ast::VarDeclStmt&>(s), env);
      return Flow::kNormal;
    case ast::StmtKind::kAssign: {
      const auto& a = static_cast<const ast::AssignStmt&>(s);
      // Whole-array copy (`MAH array R UR array`, paper §VI.A) when both
      // sides are unindexed array references.
      if ((a.target->kind == ast::ExprKind::kVarRef ||
           a.target->kind == ast::ExprKind::kSrsRef) &&
          (a.value->kind == ast::ExprKind::kVarRef ||
           a.value->kind == ast::ExprKind::kSrsRef)) {
        auto [dst_var, dst_loc] = resolve_base(*a.target, env);
        auto [src_var, src_loc] = resolve_base(*a.value, env);
        if (dst_var->is_array() && src_var->is_array()) {
          copy_array(a, *dst_var, dst_loc, *src_var, src_loc, env);
          return Flow::kNormal;
        }
      }
      assign_place(*a.target, eval(*a.value, env), env);
      return Flow::kNormal;
    }
    case ast::StmtKind::kExpr:
      env.it() = eval(*static_cast<const ast::ExprStmt&>(s).expr, env);
      return Flow::kNormal;
    case ast::StmtKind::kVisible: {
      const auto& v = static_cast<const ast::VisibleStmt&>(s);
      std::string text;
      for (const auto& a : v.args) text += eval(*a, env).to_yarn();
      if (v.newline) text += '\n';
      if (v.to_stderr) {
        ctx_.out->write_err(ctx_.pe->id(), text);
      } else {
        ctx_.out->write(ctx_.pe->id(), text);
      }
      return Flow::kNormal;
    }
    case ast::StmtKind::kGimmeh: {
      const auto& g = static_cast<const ast::GimmehStmt&>(s);
      auto line = ctx_.read_line();
      assign_place(*g.target, Value::yarn(line.value_or("")), env);
      return Flow::kNormal;
    }
    case ast::StmtKind::kCastTo: {
      const auto& c = static_cast<const ast::CastToStmt&>(s);
      Value cur = read_place(*c.target, env);
      assign_place(*c.target, cur.cast_to(c.type, /*explicit_cast=*/true),
                   env);
      return Flow::kNormal;
    }
    case ast::StmtKind::kORly:
      return exec_orly(static_cast<const ast::ORlyStmt&>(s), env);
    case ast::StmtKind::kWtf:
      return exec_wtf(static_cast<const ast::WtfStmt&>(s), env);
    case ast::StmtKind::kLoop:
      return exec_loop(static_cast<const ast::LoopStmt&>(s), env);
    case ast::StmtKind::kGtfo:
      return Flow::kBreak;
    case ast::StmtKind::kFoundYr: {
      const auto& f = static_cast<const ast::FoundYrStmt&>(s);
      return_value_ = eval(*f.value, env);
      return Flow::kReturn;
    }
    case ast::StmtKind::kFuncDef:
      return Flow::kNormal;  // registered by sema; nothing to execute
    case ast::StmtKind::kCanHas:
      return Flow::kNormal;  // all libraries are built in
    case ast::StmtKind::kHugz:
      ctx_.pe->barrier_all();
      return Flow::kNormal;
    case ast::StmtKind::kLock:
      exec_lock(static_cast<const ast::LockStmt&>(s), env);
      return Flow::kNormal;
    case ast::StmtKind::kTxt:
      return exec_txt(static_cast<const ast::TxtStmt&>(s), env);
  }
  throw RuntimeError("internal: unhandled statement kind", s.loc);
}

void Interpreter::exec_decl(const ast::VarDeclStmt& d, Env& env) {
  Variable& var = env.declare(d.name, d.loc);

  if (d.scope == ast::DeclScope::kSymmetric) {
    const sema::SymInfo* info = analysis_.sym_for_decl(&d);
    if (info == nullptr) {
      throw RuntimeError("internal: symmetric declaration missing from sema",
                         d.loc);
    }
    SymHandle h;
    h.slot = info->slot;
    h.elem = d.declared_type.value_or(ast::TypeKind::kNumbr);
    h.is_array = d.is_array;
    h.count = 1;
    if (d.is_array) {
      Value n = eval(*d.array_size, env);
      std::int64_t count = n.to_numbr();
      if (count <= 0) {
        throw RuntimeError("array size must be positive, got " +
                               std::to_string(count),
                           d.loc);
      }
      h.count = static_cast<std::size_t>(count);
    }
    h.lock_id = info->lock_id;
    h.offset = ctx_.pe->shmalloc(h.count * 8);
    var.sym = h;
    var.static_type = h.elem;
    if (d.init) {
      Value v = eval(*d.init, env);
      sym_write(h, 0, /*target_pe=*/-1, v, d.loc);
    }
    return;
  }

  if (d.is_array) {
    Value n = eval(*d.array_size, env);
    std::int64_t count = n.to_numbr();
    if (count <= 0) {
      throw RuntimeError(
          "array size must be positive, got " + std::to_string(count), d.loc);
    }
    auto arr = std::make_shared<PrivateArray>();
    arr->elem = d.declared_type.value_or(ast::TypeKind::kNumbr);
    arr->srsly = d.srsly;
    arr->elems.assign(static_cast<std::size_t>(count),
                      Value::zero_of(arr->elem));
    var.array = std::move(arr);
    return;
  }

  if (d.srsly && d.declared_type) var.static_type = *d.declared_type;
  if (d.init) {
    Value v = eval(*d.init, env);
    if (var.static_type) v = v.cast_to(*var.static_type, false);
    var.value = std::move(v);
  } else if (d.declared_type) {
    var.value = Value::zero_of(*d.declared_type);
  } else {
    var.value = Value::noob();
  }
}

Interpreter::Flow Interpreter::exec_orly(const ast::ORlyStmt& s, Env& env) {
  if (env.it().to_troof()) {
    Env scope = Env::make_child(env);
    return exec_block(s.ya_rly, scope);
  }
  for (const auto& [cond, body] : s.mebbe) {
    Value c = eval(*cond, env);
    env.it() = c;
    if (c.to_troof()) {
      Env scope = Env::make_child(env);
      return exec_block(body, scope);
    }
  }
  Env scope = Env::make_child(env);
  return exec_block(s.no_wai, scope);
}

Interpreter::Flow Interpreter::exec_wtf(const ast::WtfStmt& s, Env& env) {
  Value subject = env.it();
  std::size_t start = s.cases.size();
  for (std::size_t i = 0; i < s.cases.size(); ++i) {
    if (Value::saem(subject, eval(*s.cases[i].literal, env))) {
      start = i;
      break;
    }
  }
  bool run_default = s.has_default;
  // C-style fallthrough from the matching case; GTFO breaks out.
  for (std::size_t i = start; i < s.cases.size(); ++i) {
    Env scope = Env::make_child(env);
    Flow f = exec_block(s.cases[i].body, scope);
    if (f == Flow::kBreak) return Flow::kNormal;
    if (f == Flow::kReturn) return f;
  }
  if (start == s.cases.size() && !run_default) return Flow::kNormal;
  if (run_default) {
    Env scope = Env::make_child(env);
    Flow f = exec_block(s.default_body, scope);
    if (f == Flow::kBreak) return Flow::kNormal;
    if (f == Flow::kReturn) return f;
  }
  return Flow::kNormal;
}

Interpreter::Flow Interpreter::exec_loop(const ast::LoopStmt& s, Env& env) {
  Env loop_scope = Env::make_child(env);
  Variable* counter = nullptr;
  if (s.update != ast::LoopUpdate::kNone) {
    counter = &loop_scope.declare(s.var, s.loc);
    counter->value = Value::numbr(0);
  }
  while (true) {
    // Charge every iteration so a condition-only (or empty-body) spin
    // still consumes budget.
    ctx_.count_step();
    if (s.cond_kind == ast::LoopCond::kTil) {
      if (eval(*s.cond, loop_scope).to_troof()) break;
    } else if (s.cond_kind == ast::LoopCond::kWile) {
      if (!eval(*s.cond, loop_scope).to_troof()) break;
    }
    Env iter_scope = Env::make_child(loop_scope);
    Flow f = exec_block(s.body, iter_scope);
    if (f == Flow::kBreak) return Flow::kNormal;
    if (f == Flow::kReturn) return f;
    if (counter != nullptr) {
      switch (s.update) {
        case ast::LoopUpdate::kUppin:
          counter->value =
              rt::op_binary(ast::BinOp::kSum, counter->value, Value::numbr(1));
          break;
        case ast::LoopUpdate::kNerfin:
          counter->value = rt::op_binary(ast::BinOp::kDiff, counter->value,
                                         Value::numbr(1));
          break;
        case ast::LoopUpdate::kFunc:
          counter->value = call_function(s.func, {counter->value}, s.loc);
          break;
        case ast::LoopUpdate::kNone:
          break;
      }
    }
  }
  return Flow::kNormal;
}

void Interpreter::exec_lock(const ast::LockStmt& s, Env& env) {
  auto [var, locality] = resolve_base(*s.target, env);
  (void)locality;  // the lock is global: UR x and MAH x name the same lock
  if (!var->sym || var->sym->lock_id < 0) {
    throw RuntimeError(
        "variable has no lock: declare it WE HAS A ... AN IM SHARIN IT",
        s.loc);
  }
  int id = var->sym->lock_id;
  switch (s.op) {
    case ast::LockOp::kAcquire:
      ctx_.pe->set_lock(id);
      env.it() = Value::troof(true);
      return;
    case ast::LockOp::kTry:
      env.it() = Value::troof(ctx_.pe->test_lock(id));
      return;
    case ast::LockOp::kRelease:
      ctx_.pe->clear_lock(id);
      return;
  }
}

Interpreter::Flow Interpreter::exec_txt(const ast::TxtStmt& s, Env& env) {
  Value target = eval(*s.target_pe, env);
  std::int64_t pe = target.to_numbr();
  if (pe < 0 || pe >= ctx_.pe->n_pes()) {
    throw RuntimeError("TXT MAH BFF " + std::to_string(pe) +
                           ": no such PE (MAH FRENZ = " +
                           std::to_string(ctx_.pe->n_pes()) + ")",
                       s.loc);
  }
  bff_stack_.push_back(static_cast<int>(pe));
  struct Pop {
    std::vector<int>* v;
    ~Pop() { v->pop_back(); }
  } pop{&bff_stack_};
  Env scope = Env::make_child(env);
  return exec_block(s.body, scope);
}

int Interpreter::current_bff(support::SourceLoc loc) const {
  if (bff_stack_.empty()) {
    throw RuntimeError(
        "UR reference outside TXT MAH BFF predication: no remote PE is "
        "selected",
        loc);
  }
  return bff_stack_.back();
}

// ---------------------------------------------------------------------------
// Places (variables, array elements, symmetric objects)
// ---------------------------------------------------------------------------

std::pair<Variable*, ast::Locality> Interpreter::resolve_base(
    const ast::Expr& e, Env& env) {
  if (e.kind == ast::ExprKind::kVarRef) {
    const auto& v = static_cast<const ast::VarRef&>(e);
    Variable* var = env.find(v.name);
    if (var == nullptr) {
      throw RuntimeError("variable '" + v.name + "' has not been declared",
                         v.loc);
    }
    return {var, v.locality};
  }
  if (e.kind == ast::ExprKind::kSrsRef) {
    const auto& v = static_cast<const ast::SrsRef&>(e);
    std::string name = eval(*v.name_expr, env).to_yarn();
    Variable* var = env.find(name);
    if (var == nullptr) {
      throw RuntimeError("SRS: variable '" + name + "' has not been declared",
                         v.loc);
    }
    return {var, v.locality};
  }
  throw RuntimeError("expected a variable reference", e.loc);
}

std::size_t Interpreter::check_index(const Value& idx, std::size_t count,
                                     support::SourceLoc loc) {
  std::int64_t i = idx.to_numbr();
  if (i < 0 || static_cast<std::size_t>(i) >= count) {
    throw RuntimeError("array index " + std::to_string(i) +
                           " out of bounds [0, " + std::to_string(count) +
                           ")",
                       loc);
  }
  return static_cast<std::size_t>(i);
}

Value Interpreter::sym_read(const SymHandle& h, std::size_t idx,
                            int target_pe) {
  return rt::sym_read(*ctx_.pe, h, idx, target_pe);
}

void Interpreter::sym_write(const SymHandle& h, std::size_t idx,
                            int target_pe, const Value& v,
                            support::SourceLoc loc) {
  try {
    rt::sym_write(*ctx_.pe, h, idx, target_pe, v);
  } catch (const RuntimeError& e) {
    throw RuntimeError(e.raw_message(), loc);
  }
}

Value Interpreter::read_place(const ast::Expr& e, Env& env) {
  switch (e.kind) {
    case ast::ExprKind::kItRef:
      return env.it();
    case ast::ExprKind::kVarRef:
    case ast::ExprKind::kSrsRef: {
      auto [var, locality] = resolve_base(e, env);
      if (var->is_array()) {
        throw RuntimeError(
            "cannot read an array as a value; index it with 'Z", e.loc);
      }
      if (var->sym) {
        int target = locality == ast::Locality::kRemote
                         ? current_bff(e.loc)
                         : -1;
        return sym_read(*var->sym, 0, target);
      }
      if (locality == ast::Locality::kRemote) {
        throw RuntimeError(
            "UR requires a symmetric variable (declare it with WE HAS A)",
            e.loc);
      }
      return var->value;
    }
    case ast::ExprKind::kIndex: {
      const auto& ix = static_cast<const ast::IndexExpr&>(e);
      auto [var, locality] = resolve_base(*ix.base, env);
      Value idx = eval(*ix.index, env);
      if (var->sym && var->sym->is_array) {
        std::size_t i = check_index(idx, var->sym->count, e.loc);
        int target = locality == ast::Locality::kRemote
                         ? current_bff(e.loc)
                         : -1;
        return sym_read(*var->sym, i, target);
      }
      if (var->array) {
        if (locality == ast::Locality::kRemote) {
          throw RuntimeError(
              "UR requires a symmetric array (declare it with WE HAS A)",
              e.loc);
        }
        std::size_t i = check_index(idx, var->array->elems.size(), e.loc);
        return var->array->elems[i];
      }
      throw RuntimeError("'Z index applied to a non-array variable", e.loc);
    }
    default:
      throw RuntimeError("expected a variable reference", e.loc);
  }
}

void Interpreter::assign_place(const ast::Expr& target, Value v, Env& env) {
  switch (target.kind) {
    case ast::ExprKind::kItRef:
      env.it() = std::move(v);
      return;
    case ast::ExprKind::kVarRef:
    case ast::ExprKind::kSrsRef: {
      auto [var, locality] = resolve_base(target, env);
      if (var->is_array()) {
        throw RuntimeError(
            "cannot assign a scalar to an array; index it with 'Z",
            target.loc);
      }
      if (var->sym) {
        int target_pe = locality == ast::Locality::kRemote
                            ? current_bff(target.loc)
                            : -1;
        sym_write(*var->sym, 0, target_pe, v, target.loc);
        return;
      }
      if (locality == ast::Locality::kRemote) {
        throw RuntimeError(
            "UR requires a symmetric variable (declare it with WE HAS A)",
            target.loc);
      }
      if (var->static_type) v = v.cast_to(*var->static_type, false);
      var->value = std::move(v);
      return;
    }
    case ast::ExprKind::kIndex: {
      const auto& ix = static_cast<const ast::IndexExpr&>(target);
      auto [var, locality] = resolve_base(*ix.base, env);
      Value idx = eval(*ix.index, env);
      if (var->sym && var->sym->is_array) {
        std::size_t i = check_index(idx, var->sym->count, target.loc);
        int target_pe = locality == ast::Locality::kRemote
                            ? current_bff(target.loc)
                            : -1;
        sym_write(*var->sym, i, target_pe, v, target.loc);
        return;
      }
      if (var->array) {
        if (locality == ast::Locality::kRemote) {
          throw RuntimeError(
              "UR requires a symmetric array (declare it with WE HAS A)",
              target.loc);
        }
        std::size_t i = check_index(idx, var->array->elems.size(),
                                    target.loc);
        if (var->array->srsly) v = v.cast_to(var->array->elem, false);
        var->array->elems[i] = std::move(v);
        return;
      }
      throw RuntimeError("'Z index applied to a non-array variable",
                         target.loc);
    }
    default:
      throw RuntimeError("invalid assignment target", target.loc);
  }
}

void Interpreter::copy_array(const ast::AssignStmt& a, Variable& dst,
                             ast::Locality dst_loc, Variable& src,
                             ast::Locality src_loc, Env& env) {
  (void)env;
  if (dst_loc == ast::Locality::kRemote && !dst.sym) {
    throw RuntimeError("UR requires a symmetric array", a.loc);
  }
  if (src_loc == ast::Locality::kRemote && !src.sym) {
    throw RuntimeError("UR requires a symmetric array", a.loc);
  }
  rt::ArrayLike d{dst.array.get(), dst.sym ? &*dst.sym : nullptr};
  rt::ArrayLike s{src.array.get(), src.sym ? &*src.sym : nullptr};
  int dst_pe = dst_loc == ast::Locality::kRemote ? current_bff(a.loc) : -1;
  int src_pe = src_loc == ast::Locality::kRemote ? current_bff(a.loc) : -1;
  rt::copy_arrays(*ctx_.pe, d, dst_pe, s, src_pe, a.loc);
}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

Value Interpreter::eval_yarn(const ast::YarnLit& y, Env& env) {
  std::string out;
  for (const auto& seg : y.segments) {
    if (!seg.is_var) {
      out += seg.text;
      continue;
    }
    Variable* var = env.find(seg.text);
    if (var == nullptr) {
      throw RuntimeError(
          ":{" + seg.text + "}: variable has not been declared", y.loc);
    }
    if (var->is_array()) {
      throw RuntimeError(":{" + seg.text + "}: cannot interpolate an array",
                         y.loc);
    }
    out += var->sym ? sym_read(*var->sym, 0, -1).to_yarn()
                    : var->value.to_yarn();
  }
  return Value::yarn(std::move(out));
}

Value Interpreter::call_function(const std::string& name,
                                 std::vector<Value> args,
                                 support::SourceLoc loc) {
  auto it = analysis_.functions.find(name);
  if (it == analysis_.functions.end()) {
    throw RuntimeError("call to unknown function '" + name + "'", loc);
  }
  const ast::FuncDefStmt& def = *it->second.def;
  if (def.params.size() != args.size()) {
    throw RuntimeError("function '" + name + "' takes " +
                           std::to_string(def.params.size()) +
                           " argument(s), got " + std::to_string(args.size()),
                       loc);
  }
  // Main's frame counts toward the limit, as in the VM and generated C.
  if (++call_depth_ >= kMaxCallDepth) {
    --call_depth_;
    throw RuntimeError("call depth exceeded (" +
                           std::to_string(kMaxCallDepth) +
                           "): runaway recursion?",
                       loc);
  }
  Env frame = Env::make_function(globals_);
  for (std::size_t i = 0; i < args.size(); ++i) {
    frame.declare(def.params[i], loc).value = std::move(args[i]);
  }
  Flow f = exec_block(def.body, frame);
  --call_depth_;
  if (f == Flow::kReturn) return std::move(return_value_);
  if (f == Flow::kBreak) return Value::noob();  // GTFO returns NOOB
  return frame.it();  // falling off the end returns the function's IT
}

Value Interpreter::eval(const ast::Expr& e, Env& env) {
  switch (e.kind) {
    case ast::ExprKind::kNumbrLit:
      return Value::numbr(static_cast<const ast::NumbrLit&>(e).value);
    case ast::ExprKind::kNumbarLit:
      return Value::numbar(static_cast<const ast::NumbarLit&>(e).value);
    case ast::ExprKind::kTroofLit:
      return Value::troof(static_cast<const ast::TroofLit&>(e).value);
    case ast::ExprKind::kNoobLit:
      return Value::noob();
    case ast::ExprKind::kYarnLit:
      return eval_yarn(static_cast<const ast::YarnLit&>(e), env);
    case ast::ExprKind::kVarRef:
    case ast::ExprKind::kSrsRef:
    case ast::ExprKind::kIndex:
    case ast::ExprKind::kItRef:
      return read_place(e, env);
    case ast::ExprKind::kMe:
      return Value::numbr(ctx_.pe->id());
    case ast::ExprKind::kMahFrenz:
      return Value::numbr(ctx_.pe->n_pes());
    case ast::ExprKind::kWhatevr:
      return Value::numbr(ctx_.rng_numbr());
    case ast::ExprKind::kWhatevar:
      return Value::numbar(ctx_.rng_numbar());
    case ast::ExprKind::kBinary: {
      const auto& b = static_cast<const ast::BinaryExpr&>(e);
      Value lhs = eval(*b.lhs, env);
      Value rhs = eval(*b.rhs, env);
      try {
        return rt::op_binary(b.op, lhs, rhs);
      } catch (const RuntimeError& err) {
        throw RuntimeError(err.raw_message(), e.loc);
      }
    }
    case ast::ExprKind::kNary: {
      const auto& n = static_cast<const ast::NaryExpr&>(e);
      std::vector<Value> ops;
      ops.reserve(n.operands.size());
      for (const auto& o : n.operands) ops.push_back(eval(*o, env));
      try {
        return rt::op_nary(n.op, ops);
      } catch (const RuntimeError& err) {
        throw RuntimeError(err.raw_message(), e.loc);
      }
    }
    case ast::ExprKind::kUnary: {
      const auto& u = static_cast<const ast::UnaryExpr&>(e);
      Value v = eval(*u.operand, env);
      try {
        return rt::op_unary(u.op, v);
      } catch (const RuntimeError& err) {
        throw RuntimeError(err.raw_message(), e.loc);
      }
    }
    case ast::ExprKind::kCast: {
      const auto& c = static_cast<const ast::CastExpr&>(e);
      Value v = eval(*c.value, env);
      try {
        return v.cast_to(c.type, /*explicit_cast=*/true);
      } catch (const RuntimeError& err) {
        throw RuntimeError(err.raw_message(), e.loc);
      }
    }
    case ast::ExprKind::kCall: {
      const auto& c = static_cast<const ast::CallExpr&>(e);
      std::vector<Value> args;
      args.reserve(c.args.size());
      for (const auto& a : c.args) args.push_back(eval(*a, env));
      return call_function(c.callee, std::move(args), c.loc);
    }
  }
  throw RuntimeError("internal: unhandled expression kind", e.loc);
}

void run_pe(const ast::Program& program, const sema::Analysis& analysis,
            rt::ExecContext& ctx) {
  Interpreter(program, analysis, ctx).run();
}

}  // namespace lol::interp
