#include "opt/opt.hpp"

#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "opt/clone.hpp"
#include "rt/ops.hpp"
#include "rt/value.hpp"
#include "support/error.hpp"

namespace lol::opt {

using namespace ast;

namespace {

// ---------------------------------------------------------------------------
// Literals <-> runtime values
// ---------------------------------------------------------------------------

std::optional<rt::Value> literal_of(const Expr& e) {
  switch (e.kind) {
    case ExprKind::kNumbrLit:
      return rt::Value::numbr(static_cast<const NumbrLit&>(e).value);
    case ExprKind::kNumbarLit:
      return rt::Value::numbar(static_cast<const NumbarLit&>(e).value);
    case ExprKind::kTroofLit:
      return rt::Value::troof(static_cast<const TroofLit&>(e).value);
    case ExprKind::kNoobLit:
      return rt::Value::noob();
    case ExprKind::kYarnLit: {
      const auto& y = static_cast<const YarnLit&>(e);
      if (!y.is_plain()) return std::nullopt;
      return rt::Value::yarn(y.plain_text());
    }
    default:
      return std::nullopt;
  }
}

ExprPtr make_literal(const rt::Value& v, support::SourceLoc loc) {
  switch (v.type()) {
    case TypeKind::kNoob:
      return std::make_unique<NoobLit>(loc);
    case TypeKind::kTroof:
      return std::make_unique<TroofLit>(v.troof_raw(), loc);
    case TypeKind::kNumbr:
      return std::make_unique<NumbrLit>(v.numbr_raw(), loc);
    case TypeKind::kNumbar:
      return std::make_unique<NumbarLit>(v.numbar_raw(), loc);
    case TypeKind::kYarn: {
      std::vector<lex::YarnSegment> segs;
      if (!v.yarn_raw().empty()) {
        segs.push_back(lex::YarnSegment{false, v.yarn_raw()});
      }
      return std::make_unique<YarnLit>(std::move(segs), loc);
    }
  }
  return std::make_unique<NoobLit>(loc);  // unreachable
}

std::size_t count_stmts(const StmtList& body);

std::size_t count_stmts(const Stmt& s) {
  std::size_t n = 1;
  switch (s.kind) {
    case StmtKind::kORly: {
      const auto& o = static_cast<const ORlyStmt&>(s);
      n += count_stmts(o.ya_rly) + count_stmts(o.no_wai);
      for (const auto& [cond, body] : o.mebbe) n += count_stmts(body);
      break;
    }
    case StmtKind::kWtf: {
      const auto& w = static_cast<const WtfStmt&>(s);
      for (const auto& c : w.cases) n += count_stmts(c.body);
      n += count_stmts(w.default_body);
      break;
    }
    case StmtKind::kLoop:
      n += count_stmts(static_cast<const LoopStmt&>(s).body);
      break;
    case StmtKind::kFuncDef:
      n += count_stmts(static_cast<const FuncDefStmt&>(s).body);
      break;
    case StmtKind::kTxt:
      n += count_stmts(static_cast<const TxtStmt&>(s).body);
      break;
    default:
      break;
  }
  return n;
}

std::size_t count_stmts(const StmtList& body) {
  std::size_t n = 0;
  for (const auto& s : body) n += count_stmts(*s);
  return n;
}

// ---------------------------------------------------------------------------
// Census: one structural walk collecting the name facts every pass needs
// ---------------------------------------------------------------------------

struct Census {
  std::unordered_map<std::string, int> decl_count;  // decls + loop vars + params
  std::unordered_map<std::string, int> ref_count;   // reads + targets + :{x}
  std::unordered_set<std::string> assigned;  // R / GIMMEH / IS NOW A targets
  std::unordered_set<std::string> mutated;   // assigned + loop vars + params
  std::unordered_set<std::string> identifiers;  // every name in the program
  // Unique declarations by name (only names with decl_count == 1).
  std::unordered_map<std::string, const VarDeclStmt*> unique_decl;
  std::unordered_map<std::string, const LoopStmt*> unique_loop;
  bool has_srs = false;

  void note_decl(const std::string& name) {
    ++decl_count[name];
    identifiers.insert(name);
  }
  void note_ref(const std::string& name) {
    ++ref_count[name];
    identifiers.insert(name);
  }
};

/// The base variable name an lvalue place writes through, or "" when the
/// place is dynamic (SRS).
const std::string* place_base_name(const Expr& place) {
  const Expr* e = &place;
  if (e->kind == ExprKind::kIndex) {
    e = static_cast<const IndexExpr&>(*e).base.get();
  }
  if (e->kind == ExprKind::kVarRef) {
    return &static_cast<const VarRef&>(*e).name;
  }
  return nullptr;
}

void census_expr(const Expr& e, Census& c) {
  switch (e.kind) {
    case ExprKind::kYarnLit:
      for (const auto& seg : static_cast<const YarnLit&>(e).segments) {
        if (seg.is_var) c.note_ref(seg.text);
      }
      break;
    case ExprKind::kVarRef:
      c.note_ref(static_cast<const VarRef&>(e).name);
      break;
    case ExprKind::kSrsRef:
      c.has_srs = true;
      census_expr(*static_cast<const SrsRef&>(e).name_expr, c);
      break;
    case ExprKind::kIndex: {
      const auto& i = static_cast<const IndexExpr&>(e);
      census_expr(*i.base, c);
      census_expr(*i.index, c);
      break;
    }
    case ExprKind::kBinary: {
      const auto& b = static_cast<const BinaryExpr&>(e);
      census_expr(*b.lhs, c);
      census_expr(*b.rhs, c);
      break;
    }
    case ExprKind::kNary:
      for (const auto& o : static_cast<const NaryExpr&>(e).operands) {
        census_expr(*o, c);
      }
      break;
    case ExprKind::kUnary:
      census_expr(*static_cast<const UnaryExpr&>(e).operand, c);
      break;
    case ExprKind::kCast:
      census_expr(*static_cast<const CastExpr&>(e).value, c);
      break;
    case ExprKind::kCall: {
      const auto& call = static_cast<const CallExpr&>(e);
      c.identifiers.insert(call.callee);
      for (const auto& a : call.args) census_expr(*a, c);
      break;
    }
    default:
      break;
  }
}

void census_body(const StmtList& body, Census& c);

void census_place(const Expr& place, Census& c) {
  census_expr(place, c);  // target names count as references
  if (const std::string* base = place_base_name(place)) {
    c.assigned.insert(*base);
    c.mutated.insert(*base);
  }
}

void census_stmt(const Stmt& s, Census& c) {
  switch (s.kind) {
    case StmtKind::kVarDecl: {
      const auto& d = static_cast<const VarDeclStmt&>(s);
      c.note_decl(d.name);
      if (d.init) census_expr(*d.init, c);
      if (d.array_size) census_expr(*d.array_size, c);
      break;
    }
    case StmtKind::kAssign: {
      const auto& a = static_cast<const AssignStmt&>(s);
      census_place(*a.target, c);
      census_expr(*a.value, c);
      break;
    }
    case StmtKind::kExpr:
      census_expr(*static_cast<const ExprStmt&>(s).expr, c);
      break;
    case StmtKind::kVisible:
      for (const auto& a : static_cast<const VisibleStmt&>(s).args) {
        census_expr(*a, c);
      }
      break;
    case StmtKind::kGimmeh:
      census_place(*static_cast<const GimmehStmt&>(s).target, c);
      break;
    case StmtKind::kCastTo:
      census_place(*static_cast<const CastToStmt&>(s).target, c);
      break;
    case StmtKind::kORly: {
      const auto& o = static_cast<const ORlyStmt&>(s);
      census_body(o.ya_rly, c);
      for (const auto& [cond, body] : o.mebbe) {
        census_expr(*cond, c);
        census_body(body, c);
      }
      census_body(o.no_wai, c);
      break;
    }
    case StmtKind::kWtf: {
      const auto& w = static_cast<const WtfStmt&>(s);
      for (const auto& cs : w.cases) {
        census_expr(*cs.literal, c);
        census_body(cs.body, c);
      }
      census_body(w.default_body, c);
      break;
    }
    case StmtKind::kLoop: {
      const auto& l = static_cast<const LoopStmt&>(s);
      c.identifiers.insert(l.label);
      if (!l.func.empty()) c.identifiers.insert(l.func);
      if (!l.var.empty()) {
        c.note_decl(l.var);
        c.mutated.insert(l.var);
        if (c.decl_count[l.var] == 1) c.unique_loop[l.var] = &l;
      }
      if (l.cond) census_expr(*l.cond, c);
      census_body(l.body, c);
      break;
    }
    case StmtKind::kFoundYr:
      census_expr(*static_cast<const FoundYrStmt&>(s).value, c);
      break;
    case StmtKind::kFuncDef: {
      const auto& f = static_cast<const FuncDefStmt&>(s);
      c.identifiers.insert(f.name);
      for (const auto& p : f.params) {
        c.note_decl(p);
        c.mutated.insert(p);
      }
      census_body(f.body, c);
      break;
    }
    case StmtKind::kLock:
      census_place(*static_cast<const LockStmt&>(s).target, c);
      break;
    case StmtKind::kTxt: {
      const auto& t = static_cast<const TxtStmt&>(s);
      census_expr(*t.target_pe, c);
      census_body(t.body, c);
      break;
    }
    case StmtKind::kGtfo:
    case StmtKind::kCanHas:
    case StmtKind::kHugz:
      break;
  }
}

void census_body(const StmtList& body, Census& c) {
  for (const auto& s : body) census_stmt(*s, c);
}

Census take_census(const Program& p) {
  Census c;
  census_body(p.body, c);
  for (const auto& [name, count] : c.decl_count) {
    if (count != 1) {
      c.unique_loop.erase(name);
    }
  }
  // Map unique VarDeclStmt nodes (loop vars and params have no decl node).
  struct DeclFinder {
    Census* c;
    void body(const StmtList& b) {
      for (const auto& s : b) stmt(*s);
    }
    void stmt(const Stmt& s) {
      switch (s.kind) {
        case StmtKind::kVarDecl: {
          const auto& d = static_cast<const VarDeclStmt&>(s);
          if (c->decl_count[d.name] == 1) c->unique_decl[d.name] = &d;
          break;
        }
        case StmtKind::kORly: {
          const auto& o = static_cast<const ORlyStmt&>(s);
          body(o.ya_rly);
          for (const auto& [cond, mb] : o.mebbe) body(mb);
          body(o.no_wai);
          break;
        }
        case StmtKind::kWtf: {
          const auto& w = static_cast<const WtfStmt&>(s);
          for (const auto& cs : w.cases) body(cs.body);
          body(w.default_body);
          break;
        }
        case StmtKind::kLoop:
          body(static_cast<const LoopStmt&>(s).body);
          break;
        case StmtKind::kFuncDef:
          body(static_cast<const FuncDefStmt&>(s).body);
          break;
        case StmtKind::kTxt:
          body(static_cast<const TxtStmt&>(s).body);
          break;
        default:
          break;
      }
    }
  };
  DeclFinder{&c}.body(p.body);
  return c;
}

// ---------------------------------------------------------------------------
// Static type inference
//
// A variable's runtime type is statically known when every value it can
// ever hold has one type: SRSLY declarations (stores cast), symmetric
// objects (the fixed-width heap casts), and never-mutated private
// scalars whose initializer type is itself inferable. Soundness, not
// completeness: nullopt just makes a pass skip an opportunity.
// ---------------------------------------------------------------------------

struct Types {
  std::unordered_map<std::string, TypeKind> vars;       // scalar reads
  std::unordered_map<std::string, TypeKind> array_elem; // base'Z i reads

  std::optional<TypeKind> of(const Expr& e) const {
    switch (e.kind) {
      case ExprKind::kNumbrLit:
        return TypeKind::kNumbr;
      case ExprKind::kNumbarLit:
        return TypeKind::kNumbar;
      case ExprKind::kTroofLit:
        return TypeKind::kTroof;
      case ExprKind::kNoobLit:
        return TypeKind::kNoob;
      case ExprKind::kYarnLit:
        return TypeKind::kYarn;
      case ExprKind::kVarRef: {
        auto it = vars.find(static_cast<const VarRef&>(e).name);
        if (it == vars.end()) return std::nullopt;
        return it->second;
      }
      case ExprKind::kIndex: {
        const auto& i = static_cast<const IndexExpr&>(e);
        if (i.base->kind != ExprKind::kVarRef) return std::nullopt;
        auto it =
            array_elem.find(static_cast<const VarRef&>(*i.base).name);
        if (it == array_elem.end()) return std::nullopt;
        return it->second;
      }
      case ExprKind::kMe:
      case ExprKind::kMahFrenz:
      case ExprKind::kWhatevr:
        return TypeKind::kNumbr;
      case ExprKind::kWhatevar:
        return TypeKind::kNumbar;
      case ExprKind::kBinary: {
        const auto& b = static_cast<const BinaryExpr&>(e);
        switch (b.op) {
          case BinOp::kSum:
          case BinOp::kDiff:
          case BinOp::kProdukt:
          case BinOp::kQuoshunt:
          case BinOp::kMod:
          case BinOp::kBiggr:
          case BinOp::kSmallr: {
            auto l = of(*b.lhs);
            auto r = of(*b.rhs);
            if (!l || !r) return std::nullopt;
            bool ln = *l == TypeKind::kNumbr || *l == TypeKind::kNumbar;
            bool rn = *r == TypeKind::kNumbr || *r == TypeKind::kNumbar;
            if (!ln || !rn) return std::nullopt;
            if (*l == TypeKind::kNumbar || *r == TypeKind::kNumbar) {
              return TypeKind::kNumbar;
            }
            return TypeKind::kNumbr;
          }
          case BinOp::kBigger:
          case BinOp::kSmallrCmp:
          case BinOp::kBothSaem:
          case BinOp::kDiffrint:
          case BinOp::kBothOf:
          case BinOp::kEitherOf:
          case BinOp::kWonOf:
            return TypeKind::kTroof;
        }
        return std::nullopt;
      }
      case ExprKind::kNary:
        return static_cast<const NaryExpr&>(e).op == NaryOp::kSmoosh
                   ? TypeKind::kYarn
                   : TypeKind::kTroof;
      case ExprKind::kUnary: {
        const auto& u = static_cast<const UnaryExpr&>(e);
        switch (u.op) {
          case UnOp::kNot:
            return TypeKind::kTroof;
          case UnOp::kSquar: {
            auto t = of(*u.operand);
            if (t == TypeKind::kNumbr || t == TypeKind::kNumbar) return t;
            return std::nullopt;
          }
          case UnOp::kUnsquar:
          case UnOp::kFlip:
            return TypeKind::kNumbar;
        }
        return std::nullopt;
      }
      case ExprKind::kCast:
        return static_cast<const CastExpr&>(e).type;
      default:
        return std::nullopt;  // IT, SRS, calls
    }
  }
};

Types infer_types(const Census& c) {
  Types t;
  for (const auto& [name, d] : c.unique_decl) {
    if (d->is_array) {
      // Element stores cast for SRSLY arrays and for the fixed-width
      // symmetric heap; plain private arrays hold anything.
      if (d->declared_type &&
          (d->srsly || d->scope == DeclScope::kSymmetric)) {
        t.array_elem[name] = *d->declared_type;
      }
      continue;
    }
    if (d->declared_type &&
        (d->srsly || d->scope == DeclScope::kSymmetric)) {
      t.vars[name] = *d->declared_type;
    }
  }
  // UPPIN/NERFIN counters start at NUMBR 0 and stay NUMBR unless the
  // body writes them (SRS could write anything, so require its absence).
  if (!c.has_srs) {
    for (const auto& [name, loop] : c.unique_loop) {
      if (loop->update == LoopUpdate::kFunc) continue;
      if (c.assigned.count(name) != 0) continue;
      t.vars.emplace(name, TypeKind::kNumbr);
    }
    // Never-mutated plain scalars: the declaration's value is the only
    // value. Iterate to let initializer chains resolve.
    for (int round = 0; round < 3; ++round) {
      bool grew = false;
      for (const auto& [name, d] : c.unique_decl) {
        if (t.vars.count(name) != 0 || d->is_array) continue;
        if (d->scope != DeclScope::kPrivate || d->srsly) continue;
        if (c.mutated.count(name) != 0) continue;
        std::optional<TypeKind> ty;
        if (d->init) {
          ty = t.of(*d->init);
        } else if (d->declared_type) {
          ty = d->declared_type;  // zero_of(declared_type)
        }
        if (ty) {
          t.vars[name] = *ty;
          grew = true;
        }
      }
      if (!grew) break;
    }
  }
  return t;
}

// ---------------------------------------------------------------------------
// Statement-structure helpers shared by the passes
// ---------------------------------------------------------------------------

/// Applies `fn` to every rvalue expression slot of one statement (not
/// recursing into child statement lists). Lvalue places only expose
/// their index subexpressions; the base of a place is never rewritten.
template <typename Fn>
void for_each_rvalue(Stmt& s, Fn&& fn) {
  auto place = [&](ExprPtr& target) {
    if (target->kind == ExprKind::kIndex) {
      fn(static_cast<IndexExpr&>(*target).index);
    }
  };
  switch (s.kind) {
    case StmtKind::kVarDecl: {
      auto& d = static_cast<VarDeclStmt&>(s);
      if (d.init) fn(d.init);
      if (d.array_size) fn(d.array_size);
      break;
    }
    case StmtKind::kAssign: {
      auto& a = static_cast<AssignStmt&>(s);
      fn(a.value);
      place(a.target);
      break;
    }
    case StmtKind::kExpr:
      fn(static_cast<ExprStmt&>(s).expr);
      break;
    case StmtKind::kVisible:
      for (auto& a : static_cast<VisibleStmt&>(s).args) fn(a);
      break;
    case StmtKind::kGimmeh:
      place(static_cast<GimmehStmt&>(s).target);
      break;
    case StmtKind::kCastTo:
      place(static_cast<CastToStmt&>(s).target);
      break;
    case StmtKind::kORly:
      for (auto& [cond, body] : static_cast<ORlyStmt&>(s).mebbe) fn(cond);
      break;
    case StmtKind::kWtf:
      for (auto& cs : static_cast<WtfStmt&>(s).cases) fn(cs.literal);
      break;
    case StmtKind::kLoop: {
      auto& l = static_cast<LoopStmt&>(s);
      if (l.cond) fn(l.cond);
      break;
    }
    case StmtKind::kFoundYr:
      fn(static_cast<FoundYrStmt&>(s).value);
      break;
    case StmtKind::kLock:
      place(static_cast<LockStmt&>(s).target);
      break;
    case StmtKind::kTxt:
      fn(static_cast<TxtStmt&>(s).target_pe);
      break;
    default:
      break;
  }
}

/// Applies `fn` to every child statement list of one statement.
template <typename Fn>
void for_each_child_list(Stmt& s, Fn&& fn) {
  switch (s.kind) {
    case StmtKind::kORly: {
      auto& o = static_cast<ORlyStmt&>(s);
      fn(o.ya_rly);
      for (auto& [cond, body] : o.mebbe) fn(body);
      fn(o.no_wai);
      break;
    }
    case StmtKind::kWtf: {
      auto& w = static_cast<WtfStmt&>(s);
      for (auto& cs : w.cases) fn(cs.body);
      fn(w.default_body);
      break;
    }
    case StmtKind::kLoop:
      fn(static_cast<LoopStmt&>(s).body);
      break;
    case StmtKind::kFuncDef:
      fn(static_cast<FuncDefStmt&>(s).body);
      break;
    case StmtKind::kTxt:
      fn(static_cast<TxtStmt&>(s).body);
      break;
    default:
      break;
  }
}

// ---------------------------------------------------------------------------
// Pass: constant folding + algebraic simplification
// ---------------------------------------------------------------------------

struct Fold {
  const Types& types;
  Stats& st;
  std::uint64_t changed = 0;

  void run(StmtList& body) {
    for (auto& s : body) {
      for_each_rvalue(*s, [&](ExprPtr& e) { fold(e); });
      for_each_child_list(*s, [&](StmtList& b) { run(b); });
    }
  }

  void fold(ExprPtr& slot) {
    // Children first so cast chains and nested arithmetic collapse
    // bottom-up in one sweep.
    switch (slot->kind) {
      case ExprKind::kSrsRef:
        fold(static_cast<SrsRef&>(*slot).name_expr);
        return;  // dynamic name: nothing else to do
      case ExprKind::kIndex: {
        auto& i = static_cast<IndexExpr&>(*slot);
        fold(i.index);
        return;
      }
      case ExprKind::kBinary: {
        auto& b = static_cast<BinaryExpr&>(*slot);
        fold(b.lhs);
        fold(b.rhs);
        fold_binary(slot);
        return;
      }
      case ExprKind::kNary: {
        auto& n = static_cast<NaryExpr&>(*slot);
        for (auto& o : n.operands) fold(o);
        fold_nary(slot);
        return;
      }
      case ExprKind::kUnary: {
        auto& u = static_cast<UnaryExpr&>(*slot);
        fold(u.operand);
        if (auto v = literal_of(*u.operand)) {
          try {
            replace(slot, rt::op_unary(u.op, *v));
          } catch (const support::LolError&) {
            // Would throw at run time; keep the error there.
          }
        }
        return;
      }
      case ExprKind::kCast: {
        auto& c = static_cast<CastExpr&>(*slot);
        fold(c.value);
        if (auto v = literal_of(*c.value)) {
          try {
            replace(slot, v->cast_to(c.type, /*explicit_cast=*/true));
          } catch (const support::LolError&) {
          }
        }
        return;
      }
      case ExprKind::kCall:
        for (auto& a : static_cast<CallExpr&>(*slot).args) fold(a);
        return;
      default:
        return;
    }
  }

  void replace(ExprPtr& slot, const rt::Value& v) {
    slot = make_literal(v, slot->loc);
    ++st.folded;
    ++changed;
  }

  /// Keeps `keep` and drops the rest of the node.
  void keep_operand(ExprPtr& slot, ExprPtr& keep) {
    ExprPtr kept = std::move(keep);
    slot = std::move(kept);
    ++st.folded;
    ++changed;
  }

  void fold_binary(ExprPtr& slot) {
    auto& b = static_cast<BinaryExpr&>(*slot);
    auto lv = literal_of(*b.lhs);
    auto rv = literal_of(*b.rhs);
    if (lv && rv) {
      try {
        replace(slot, rt::op_binary(b.op, *lv, *rv));
      } catch (const support::LolError&) {
      }
      return;
    }
    // Algebraic identities. Type-gated: `SUM OF e AN 0` is only `e` when
    // e is statically NUMBR (a YARN "3" would still numify), and NUMBAR
    // identities avoid +0.0 (which flips the sign of -0.0 and changes
    // printed output). Float identities are bitwise-exact: x*1.0, x-0.0
    // and x/1.0 return x for every double including -0.0 and NaN.
    auto is_int = [](const std::optional<rt::Value>& v, std::int64_t k) {
      return v && v->is_numbr() && v->numbr_raw() == k;
    };
    auto is_one = [&](const std::optional<rt::Value>& v) {
      return is_int(v, 1) || (v && v->is_numbar() && v->numbar_raw() == 1.0);
    };
    auto is_pos_zero = [&](const std::optional<rt::Value>& v) {
      return is_int(v, 0) ||
             (v && v->is_numbar() && v->numbar_raw() == 0.0 &&
              !std::signbit(v->numbar_raw()));
    };
    auto type_of = [&](const Expr& e) { return types.of(e); };
    switch (b.op) {
      case BinOp::kSum:
        if (is_int(rv, 0) && type_of(*b.lhs) == TypeKind::kNumbr) {
          keep_operand(slot, b.lhs);
        } else if (is_int(lv, 0) && type_of(*b.rhs) == TypeKind::kNumbr) {
          keep_operand(slot, b.rhs);
        }
        return;
      case BinOp::kDiff:
        if (is_int(rv, 0) && type_of(*b.lhs) == TypeKind::kNumbr) {
          keep_operand(slot, b.lhs);
        } else if (is_pos_zero(rv) &&
                   type_of(*b.lhs) == TypeKind::kNumbar) {
          keep_operand(slot, b.lhs);
        }
        return;
      case BinOp::kProdukt: {
        auto lt = type_of(*b.lhs);
        auto rt_ = type_of(*b.rhs);
        if (is_int(rv, 1) && lt == TypeKind::kNumbr) {
          keep_operand(slot, b.lhs);
        } else if (is_int(lv, 1) && rt_ == TypeKind::kNumbr) {
          keep_operand(slot, b.rhs);
        } else if (is_one(rv) && lt == TypeKind::kNumbar) {
          keep_operand(slot, b.lhs);
        } else if (is_one(lv) && rt_ == TypeKind::kNumbar) {
          keep_operand(slot, b.rhs);
        } else if (b.lhs->kind == ExprKind::kVarRef &&
                   b.rhs->kind == ExprKind::kVarRef &&
                   (lt == TypeKind::kNumbr || lt == TypeKind::kNumbar)) {
          // PRODUKT OF x AN x on a provably numeric local scalar reads
          // x once: rt::op_unary's SQUAR squares through the same
          // to_num coercion, so the value is bit-identical and the
          // (cannot-throw) type-error message difference never
          // materializes. Local-only: two remote reads collapse to one
          // only under the race-free barrier discipline, which folding
          // must not assume.
          const auto& l = static_cast<const VarRef&>(*b.lhs);
          const auto& r = static_cast<const VarRef&>(*b.rhs);
          if (l.name == r.name && l.locality != Locality::kRemote &&
              r.locality != Locality::kRemote) {
            ExprPtr operand = std::move(b.lhs);
            slot = std::make_unique<UnaryExpr>(UnOp::kSquar,
                                               std::move(operand), slot->loc);
            ++st.folded;
            ++changed;
          }
        }
        return;
      }
      case BinOp::kQuoshunt:
        if (is_int(rv, 1) && type_of(*b.lhs) == TypeKind::kNumbr) {
          keep_operand(slot, b.lhs);
        } else if (is_one(rv) && type_of(*b.lhs) == TypeKind::kNumbar) {
          keep_operand(slot, b.lhs);
        }
        return;
      case BinOp::kBothOf:
        if (rv && rv->is_troof() && rv->troof_raw() &&
            type_of(*b.lhs) == TypeKind::kTroof) {
          keep_operand(slot, b.lhs);
        } else if (lv && lv->is_troof() && lv->troof_raw() &&
                   type_of(*b.rhs) == TypeKind::kTroof) {
          keep_operand(slot, b.rhs);
        }
        return;
      case BinOp::kEitherOf:
        if (rv && rv->is_troof() && !rv->troof_raw() &&
            type_of(*b.lhs) == TypeKind::kTroof) {
          keep_operand(slot, b.lhs);
        } else if (lv && lv->is_troof() && !lv->troof_raw() &&
                   type_of(*b.rhs) == TypeKind::kTroof) {
          keep_operand(slot, b.rhs);
        }
        return;
      default:
        return;
    }
  }

  void fold_nary(ExprPtr& slot) {
    auto& n = static_cast<NaryExpr&>(*slot);
    bool all_lit = true;
    std::vector<rt::Value> vals;
    vals.reserve(n.operands.size());
    for (const auto& o : n.operands) {
      auto v = literal_of(*o);
      if (!v) {
        all_lit = false;
        break;
      }
      vals.push_back(std::move(*v));
    }
    if (all_lit) {
      try {
        replace(slot, rt::op_nary(n.op, vals));
      } catch (const support::LolError&) {
      }
      return;
    }
    if (n.op == NaryOp::kSmoosh) {
      // Merge adjacent plain literals through the runtime's own YARN
      // cast so formatting (NUMBAR truncation etc.) stays identical.
      for (std::size_t i = 0; i + 1 < n.operands.size();) {
        auto a = literal_of(*n.operands[i]);
        auto b = literal_of(*n.operands[i + 1]);
        std::optional<std::string> merged;
        if (a && b) {
          try {
            merged = a->to_yarn() + b->to_yarn();
          } catch (const support::LolError&) {
            // NOOB operand: SMOOSH would throw at run time; keep it.
          }
        }
        if (merged) {
          n.operands[i] =
              make_literal(rt::Value::yarn(std::move(*merged)),
                           n.operands[i]->loc);
          n.operands.erase(n.operands.begin() +
                           static_cast<std::ptrdiff_t>(i) + 1);
          ++st.folded;
          ++changed;
        } else {
          ++i;
        }
      }
      return;
    }
    // ALL OF / ANY OF evaluate every operand (no short-circuit), so
    // non-literal operands must stay; literal operands that cannot
    // decide the result can go. Keep at least one operand.
    bool all_of = n.op == NaryOp::kAllOf;
    auto droppable = [&](const Expr& e) {
      auto v = literal_of(e);
      return v && v->to_troof() == all_of;
    };
    for (std::size_t i = 0;
         n.operands.size() > 1 && i < n.operands.size();) {
      if (droppable(*n.operands[i])) {
        n.operands.erase(n.operands.begin() +
                         static_cast<std::ptrdiff_t>(i));
        ++st.folded;
        ++changed;
      } else {
        ++i;
      }
    }
  }
};

// ---------------------------------------------------------------------------
// Pass: literal propagation
// ---------------------------------------------------------------------------

struct Prop {
  const Census& census;
  Stats& st;
  std::uint64_t changed = 0;
  std::vector<std::unordered_map<std::string, rt::Value>> scopes;

  void run(StmtList& body) {
    if (census.has_srs) return;  // SRS may alias any name dynamically
    scopes.emplace_back();
    walk(body);
    scopes.pop_back();
  }

  void walk(StmtList& body) {
    for (auto& s : body) {
      // Rewrite this statement's expressions against the current scope
      // chain, then (for declarations) extend it.
      for_each_rvalue(*s, [&](ExprPtr& e) { subst(e); });
      switch (s->kind) {
        case StmtKind::kVarDecl:
          note_decl(static_cast<const VarDeclStmt&>(*s));
          break;
        case StmtKind::kFuncDef: {
          // Functions may run before any given global declaration has
          // executed, so outer mappings do not apply inside.
          auto saved = std::move(scopes);
          scopes.clear();
          scopes.emplace_back();
          walk(static_cast<FuncDefStmt&>(*s).body);
          scopes = std::move(saved);
          break;
        }
        default:
          for_each_child_list(*s, [&](StmtList& b) {
            scopes.emplace_back();
            walk(b);
            scopes.pop_back();
          });
          break;
      }
    }
  }

  void note_decl(const VarDeclStmt& d) {
    if (d.scope != DeclScope::kPrivate || d.is_array) return;
    auto it = census.decl_count.find(d.name);
    if (it == census.decl_count.end() || it->second != 1) return;
    if (census.mutated.count(d.name) != 0) return;
    std::optional<rt::Value> v;
    if (d.init) {
      v = literal_of(*d.init);
      if (v && d.srsly && d.declared_type) {
        try {
          v = v->cast_to(*d.declared_type, /*explicit_cast=*/false);
        } catch (const support::LolError&) {
          return;  // the declaration itself errors at run time
        }
      }
    } else if (d.declared_type) {
      v = rt::Value::zero_of(*d.declared_type);
    }
    if (v) scopes.back().emplace(d.name, std::move(*v));
  }

  void subst(ExprPtr& slot) {
    switch (slot->kind) {
      case ExprKind::kVarRef: {
        auto& r = static_cast<const VarRef&>(*slot);
        // UR reads resolve on another PE whose declaration may not have
        // executed yet; leave them so unbound errors stay put.
        if (r.locality == Locality::kRemote) return;
        for (auto it = scopes.rbegin(); it != scopes.rend(); ++it) {
          auto hit = it->find(r.name);
          if (hit != it->end()) {
            slot = make_literal(hit->second, slot->loc);
            ++st.propagated;
            ++changed;
            return;
          }
        }
        return;
      }
      case ExprKind::kIndex:
        subst(static_cast<IndexExpr&>(*slot).index);
        return;
      case ExprKind::kBinary: {
        auto& b = static_cast<BinaryExpr&>(*slot);
        subst(b.lhs);
        subst(b.rhs);
        return;
      }
      case ExprKind::kNary:
        for (auto& o : static_cast<NaryExpr&>(*slot).operands) subst(o);
        return;
      case ExprKind::kUnary:
        subst(static_cast<UnaryExpr&>(*slot).operand);
        return;
      case ExprKind::kCast:
        subst(static_cast<CastExpr&>(*slot).value);
        return;
      case ExprKind::kCall:
        for (auto& a : static_cast<CallExpr&>(*slot).args) subst(a);
        return;
      default:
        return;
    }
  }
};

// ---------------------------------------------------------------------------
// Pass: bounded loop unrolling
// ---------------------------------------------------------------------------

struct Unroll {
  Census& census;  // identifiers grows as fresh names are taken
  const Options& opts;
  Stats& st;
  std::uint64_t changed = 0;
  int fresh_n = 0;

  std::string fresh(const std::string& base) {
    for (;;) {
      std::string name = base + "_u" + std::to_string(fresh_n++);
      if (census.identifiers.insert(name).second) return name;
    }
  }

  void run(StmtList& body) {
    if (census.has_srs || opts.unroll_max_trip <= 0) return;
    walk(body);
  }

  void walk(StmtList& body) {
    for (std::size_t i = 0; i < body.size(); ++i) {
      // Innermost-first: a fully unrolled inner loop makes the outer
      // body straight-line and often still under budget.
      for_each_child_list(*body[i], [&](StmtList& b) { walk(b); });
      if (body[i]->kind != StmtKind::kLoop) continue;
      auto& loop = static_cast<LoopStmt&>(*body[i]);
      std::optional<StmtList> copies = try_unroll(loop);
      if (!copies) continue;
      std::size_t n = copies->size();
      body.erase(body.begin() + static_cast<std::ptrdiff_t>(i));
      body.insert(body.begin() + static_cast<std::ptrdiff_t>(i),
                  std::make_move_iterator(copies->begin()),
                  std::make_move_iterator(copies->end()));
      ++st.unrolled;
      ++changed;
      i += n == 0 ? 0 : n - 1;
    }
  }

  /// `IM IN YR l UPPIN YR v TIL BOTH SAEM v AN <k>` runs the body for
  /// v = 0..k-1; the WILE DIFFRINT form is equivalent.
  std::optional<std::int64_t> trip_count(const LoopStmt& l) const {
    if (l.update != LoopUpdate::kUppin || l.var.empty() || !l.cond) {
      return std::nullopt;
    }
    if (l.cond->kind != ExprKind::kBinary) return std::nullopt;
    const auto& c = static_cast<const BinaryExpr&>(*l.cond);
    BinOp want = l.cond_kind == LoopCond::kTil    ? BinOp::kBothSaem
                 : l.cond_kind == LoopCond::kWile ? BinOp::kDiffrint
                                                  : BinOp::kBothOf;
    if (c.op != want) return std::nullopt;
    auto counter_and_lit =
        [&](const Expr& a, const Expr& b) -> std::optional<std::int64_t> {
      if (a.kind != ExprKind::kVarRef || b.kind != ExprKind::kNumbrLit) {
        return std::nullopt;
      }
      const auto& r = static_cast<const VarRef&>(a);
      if (r.name != l.var || r.locality == Locality::kRemote) {
        return std::nullopt;
      }
      return static_cast<const NumbrLit&>(b).value;
    };
    auto n = counter_and_lit(*c.lhs, *c.rhs);
    if (!n) n = counter_and_lit(*c.rhs, *c.lhs);
    return n;
  }

  std::optional<StmtList> try_unroll(LoopStmt& loop) {
    auto trip = trip_count(loop);
    if (!trip || *trip < 0 || *trip > opts.unroll_max_trip) {
      return std::nullopt;
    }
    if (*trip == 0) return StmtList{};  // condition true before iteration 0
    if (!body_safe(loop.body, loop.var, /*gtfo_would_bind=*/true)) {
      return std::nullopt;
    }
    std::size_t body_n = count_stmts(loop.body);
    if (body_n * static_cast<std::size_t>(*trip) >
        static_cast<std::size_t>(opts.unroll_body_budget)) {
      return std::nullopt;
    }
    StmtList out;
    for (std::int64_t k = 0; k < *trip; ++k) {
      Rename rc{this, loop.var, k};
      rc.scopes.emplace_back();
      for (const auto& s : loop.body) out.push_back(rc.stmt(*s));
    }
    return out;
  }

  /// Rejects bodies the unroller cannot reproduce exactly: a GTFO that
  /// would bind this loop (the copies have no loop to break), any write
  /// to or shadowing of the counter, the counter as an interpolation
  /// segment or an index base, and remote reads of the counter.
  bool body_safe(const StmtList& body, const std::string& var,
                 bool gtfo_would_bind) const {
    for (const auto& sp : body) {
      const Stmt& s = *sp;
      bool ok = true;
      switch (s.kind) {
        case StmtKind::kGtfo:
          if (gtfo_would_bind) return false;
          break;
        case StmtKind::kVarDecl: {
          const auto& d = static_cast<const VarDeclStmt&>(s);
          if (d.name == var) return false;
          if (d.init && !expr_safe(*d.init, var)) return false;
          if (d.array_size && !expr_safe(*d.array_size, var)) return false;
          break;
        }
        case StmtKind::kAssign: {
          const auto& a = static_cast<const AssignStmt&>(s);
          const std::string* base = place_base_name(*a.target);
          if (base != nullptr && *base == var) return false;
          ok = expr_safe(*a.target, var) && expr_safe(*a.value, var);
          break;
        }
        case StmtKind::kGimmeh: {
          const auto& g = static_cast<const GimmehStmt&>(s);
          const std::string* base = place_base_name(*g.target);
          if (base != nullptr && *base == var) return false;
          ok = expr_safe(*g.target, var);
          break;
        }
        case StmtKind::kCastTo: {
          const auto& ct = static_cast<const CastToStmt&>(s);
          const std::string* base = place_base_name(*ct.target);
          if (base != nullptr && *base == var) return false;
          ok = expr_safe(*ct.target, var);
          break;
        }
        case StmtKind::kLock: {
          const auto& l = static_cast<const LockStmt&>(s);
          const std::string* base = place_base_name(*l.target);
          if (base != nullptr && *base == var) return false;
          ok = expr_safe(*l.target, var);
          break;
        }
        case StmtKind::kExpr:
          ok = expr_safe(*static_cast<const ExprStmt&>(s).expr, var);
          break;
        case StmtKind::kVisible:
          for (const auto& a : static_cast<const VisibleStmt&>(s).args) {
            if (!expr_safe(*a, var)) return false;
          }
          break;
        case StmtKind::kORly: {
          const auto& o = static_cast<const ORlyStmt&>(s);
          // O RLY? is not breakable: GTFO in a branch binds the loop.
          if (!body_safe(o.ya_rly, var, gtfo_would_bind)) return false;
          for (const auto& [cond, b] : o.mebbe) {
            if (!expr_safe(*cond, var)) return false;
            if (!body_safe(b, var, gtfo_would_bind)) return false;
          }
          if (!body_safe(o.no_wai, var, gtfo_would_bind)) return false;
          break;
        }
        case StmtKind::kWtf: {
          const auto& w = static_cast<const WtfStmt&>(s);
          for (const auto& cs : w.cases) {
            if (!expr_safe(*cs.literal, var)) return false;
            if (!body_safe(cs.body, var, /*gtfo_would_bind=*/false)) {
              return false;
            }
          }
          if (!body_safe(w.default_body, var, false)) return false;
          break;
        }
        case StmtKind::kLoop: {
          const auto& l = static_cast<const LoopStmt&>(s);
          if (l.var == var) return false;  // shadows the counter
          if (l.cond && !expr_safe(*l.cond, var)) return false;
          if (!body_safe(l.body, var, /*gtfo_would_bind=*/false)) {
            return false;
          }
          break;
        }
        case StmtKind::kFoundYr:
          // Returning from the enclosing function mid-copy is the same
          // as returning mid-iteration.
          ok = expr_safe(*static_cast<const FoundYrStmt&>(s).value, var);
          break;
        case StmtKind::kTxt: {
          const auto& t = static_cast<const TxtStmt&>(s);
          ok = expr_safe(*t.target_pe, var) &&
               body_safe(t.body, var, gtfo_would_bind);
          break;
        }
        case StmtKind::kFuncDef:
          return false;  // sema forbids these here; stay conservative
        case StmtKind::kCanHas:
        case StmtKind::kHugz:
          break;
      }
      if (!ok) return false;
    }
    return true;
  }

  bool expr_safe(const Expr& e, const std::string& var) const {
    switch (e.kind) {
      case ExprKind::kYarnLit:
        for (const auto& seg :
             static_cast<const YarnLit&>(e).segments) {
          if (seg.is_var && seg.text == var) return false;
        }
        return true;
      case ExprKind::kVarRef:
        return static_cast<const VarRef&>(e).name != var ||
               static_cast<const VarRef&>(e).locality != Locality::kRemote;
      case ExprKind::kIndex: {
        const auto& i = static_cast<const IndexExpr&>(e);
        const std::string* base = place_base_name(e);
        if (base != nullptr && *base == var) return false;
        return expr_safe(*i.base, var) && expr_safe(*i.index, var);
      }
      case ExprKind::kSrsRef:
        return false;  // unreachable: has_srs disables the pass
      case ExprKind::kBinary: {
        const auto& b = static_cast<const BinaryExpr&>(e);
        return expr_safe(*b.lhs, var) && expr_safe(*b.rhs, var);
      }
      case ExprKind::kNary:
        for (const auto& o : static_cast<const NaryExpr&>(e).operands) {
          if (!expr_safe(*o, var)) return false;
        }
        return true;
      case ExprKind::kUnary:
        return expr_safe(*static_cast<const UnaryExpr&>(e).operand, var);
      case ExprKind::kCast:
        return expr_safe(*static_cast<const CastExpr&>(e).value, var);
      case ExprKind::kCall:
        for (const auto& a : static_cast<const CallExpr&>(e).args) {
          if (!expr_safe(*a, var)) return false;
        }
        return true;
      default:
        return true;
    }
  }

  /// Scope-aware cloning of one iteration: the counter becomes its
  /// literal value, and every declaration the body makes gets a fresh
  /// name (N spliced copies share one scope, so per-iteration locals
  /// would otherwise redeclare).
  struct Rename {
    Unroll* u;
    const std::string& counter;
    std::int64_t value;
    // name -> replacement; a name mapped to itself is shadowed by a
    // nested loop variable and must not be renamed inside it.
    std::vector<std::unordered_map<std::string, std::string>> scopes;

    const std::string* lookup(const std::string& name) const {
      for (auto it = scopes.rbegin(); it != scopes.rend(); ++it) {
        auto hit = it->find(name);
        if (hit != it->end()) return &hit->second;
      }
      return nullptr;
    }

    bool counter_visible(const std::string& name) const {
      return name == counter && lookup(name) == nullptr;
    }

    ExprPtr expr(const Expr& e) {
      switch (e.kind) {
        case ExprKind::kVarRef: {
          const auto& r = static_cast<const VarRef&>(e);
          if (counter_visible(r.name)) {
            return std::make_unique<NumbrLit>(value, r.loc);
          }
          if (const std::string* n = lookup(r.name)) {
            return std::make_unique<VarRef>(*n, r.locality, r.loc);
          }
          return std::make_unique<VarRef>(r.name, r.locality, r.loc);
        }
        case ExprKind::kYarnLit: {
          const auto& y = static_cast<const YarnLit&>(e);
          std::vector<lex::YarnSegment> segs = y.segments;
          for (auto& seg : segs) {
            if (!seg.is_var) continue;
            if (const std::string* n = lookup(seg.text)) seg.text = *n;
          }
          return std::make_unique<YarnLit>(std::move(segs), y.loc);
        }
        case ExprKind::kIndex: {
          const auto& i = static_cast<const IndexExpr&>(e);
          return std::make_unique<IndexExpr>(expr(*i.base),
                                             expr(*i.index), i.loc);
        }
        case ExprKind::kBinary: {
          const auto& b = static_cast<const BinaryExpr&>(e);
          return std::make_unique<BinaryExpr>(b.op, expr(*b.lhs),
                                              expr(*b.rhs), b.loc);
        }
        case ExprKind::kNary: {
          const auto& n = static_cast<const NaryExpr&>(e);
          std::vector<ExprPtr> ops;
          ops.reserve(n.operands.size());
          for (const auto& o : n.operands) ops.push_back(expr(*o));
          return std::make_unique<NaryExpr>(n.op, std::move(ops), n.loc);
        }
        case ExprKind::kUnary: {
          const auto& un = static_cast<const UnaryExpr&>(e);
          return std::make_unique<UnaryExpr>(un.op, expr(*un.operand),
                                             un.loc);
        }
        case ExprKind::kCast: {
          const auto& c = static_cast<const CastExpr&>(e);
          return std::make_unique<CastExpr>(expr(*c.value), c.type, c.loc);
        }
        case ExprKind::kCall: {
          const auto& c = static_cast<const CallExpr&>(e);
          std::vector<ExprPtr> args;
          args.reserve(c.args.size());
          for (const auto& a : c.args) args.push_back(expr(*a));
          return std::make_unique<CallExpr>(c.callee, std::move(args),
                                            c.loc);
        }
        default:
          return clone_expr(e);  // literals, ME, IT, WHATEVR, ...
      }
    }

    StmtList body(const StmtList& b) {
      scopes.emplace_back();
      StmtList out;
      out.reserve(b.size());
      for (const auto& s : b) out.push_back(stmt(*s));
      scopes.pop_back();
      return out;
    }

    StmtPtr stmt(const Stmt& s) {
      switch (s.kind) {
        case StmtKind::kVarDecl: {
          const auto& d = static_cast<const VarDeclStmt&>(s);
          auto out = std::make_unique<VarDeclStmt>(d.loc);
          out->scope = d.scope;
          out->declared_type = d.declared_type;
          out->srsly = d.srsly;
          out->is_array = d.is_array;
          out->sharin = d.sharin;
          if (d.init) out->init = expr(*d.init);
          if (d.array_size) out->array_size = expr(*d.array_size);
          std::string renamed = u->fresh(d.name);
          scopes.back()[d.name] = renamed;
          out->name = std::move(renamed);
          return out;
        }
        case StmtKind::kAssign: {
          const auto& a = static_cast<const AssignStmt&>(s);
          return std::make_unique<AssignStmt>(expr(*a.target),
                                              expr(*a.value), a.loc);
        }
        case StmtKind::kExpr: {
          const auto& x = static_cast<const ExprStmt&>(s);
          return std::make_unique<ExprStmt>(expr(*x.expr), x.loc);
        }
        case StmtKind::kVisible: {
          const auto& v = static_cast<const VisibleStmt&>(s);
          auto out = std::make_unique<VisibleStmt>(v.loc);
          for (const auto& a : v.args) out->args.push_back(expr(*a));
          out->newline = v.newline;
          out->to_stderr = v.to_stderr;
          return out;
        }
        case StmtKind::kGimmeh: {
          const auto& g = static_cast<const GimmehStmt&>(s);
          return std::make_unique<GimmehStmt>(expr(*g.target), g.loc);
        }
        case StmtKind::kCastTo: {
          const auto& c = static_cast<const CastToStmt&>(s);
          return std::make_unique<CastToStmt>(expr(*c.target), c.type,
                                              c.loc);
        }
        case StmtKind::kORly: {
          const auto& o = static_cast<const ORlyStmt&>(s);
          auto out = std::make_unique<ORlyStmt>(o.loc);
          out->ya_rly = body(o.ya_rly);
          for (const auto& [cond, b] : o.mebbe) {
            auto cc = expr(*cond);
            out->mebbe.emplace_back(std::move(cc), body(b));
          }
          out->no_wai = body(o.no_wai);
          return out;
        }
        case StmtKind::kWtf: {
          const auto& w = static_cast<const WtfStmt&>(s);
          auto out = std::make_unique<WtfStmt>(w.loc);
          for (const auto& cs : w.cases) {
            WtfStmt::Case cc;
            cc.literal = expr(*cs.literal);
            cc.body = body(cs.body);
            out->cases.push_back(std::move(cc));
          }
          out->default_body = body(w.default_body);
          out->has_default = w.has_default;
          return out;
        }
        case StmtKind::kLoop: {
          const auto& l = static_cast<const LoopStmt&>(s);
          auto out = std::make_unique<LoopStmt>(l.loc);
          out->label = l.label;
          out->update = l.update;
          out->func = l.func;
          out->var = l.var;
          out->cond_kind = l.cond_kind;
          scopes.emplace_back();
          if (!l.var.empty()) scopes.back()[l.var] = l.var;  // shadow
          if (l.cond) out->cond = expr(*l.cond);
          out->body = body(l.body);
          scopes.pop_back();
          return out;
        }
        case StmtKind::kFoundYr: {
          const auto& f = static_cast<const FoundYrStmt&>(s);
          return std::make_unique<FoundYrStmt>(expr(*f.value), f.loc);
        }
        case StmtKind::kLock: {
          const auto& l = static_cast<const LockStmt&>(s);
          return std::make_unique<LockStmt>(l.op, expr(*l.target), l.loc);
        }
        case StmtKind::kTxt: {
          const auto& t = static_cast<const TxtStmt&>(s);
          auto out = std::make_unique<TxtStmt>(t.loc);
          out->target_pe = expr(*t.target_pe);
          out->body = body(t.body);
          out->block_form = t.block_form;
          return out;
        }
        default:
          return clone_stmt(s);  // GTFO (nested-bound), HUGZ, CAN HAS
      }
    }
  };
};

// ---------------------------------------------------------------------------
// Pass: static branch selection
// ---------------------------------------------------------------------------

struct Select {
  const Census& census;
  Stats& st;
  std::uint64_t changed = 0;

  void run(StmtList& body) {
    if (census.has_srs) return;
    walk(body);
  }

  void walk(StmtList& body) {
    for (std::size_t i = 0; i < body.size(); ++i) {
      for_each_child_list(*body[i], [&](StmtList& b) { walk(b); });
      if (i + 1 >= body.size()) continue;
      if (body[i]->kind != StmtKind::kExpr ||
          body[i + 1]->kind != StmtKind::kORly) {
        continue;
      }
      auto lit = literal_of(*static_cast<const ExprStmt&>(*body[i]).expr);
      if (!lit) continue;
      auto& orly = static_cast<ORlyStmt&>(*body[i + 1]);
      // MEBBE arms evaluate their condition into IT when YA RLY is not
      // taken; splicing would lose that. Keep those as-is.
      if (!orly.mebbe.empty()) continue;
      if (!spliceable(orly.ya_rly) || !spliceable(orly.no_wai)) continue;
      StmtList chosen =
          std::move(lit->to_troof() ? orly.ya_rly : orly.no_wai);
      // The literal ExprStmt stays: IT must still hold its value.
      body.erase(body.begin() + static_cast<std::ptrdiff_t>(i) + 1);
      body.insert(body.begin() + static_cast<std::ptrdiff_t>(i) + 1,
                  std::make_move_iterator(chosen.begin()),
                  std::make_move_iterator(chosen.end()));
      ++st.selected;
      ++changed;
      // Re-inspect from the first spliced statement (it may itself be a
      // literal ExprStmt followed by an O RLY?).
    }
  }

  /// Both the kept and the dropped branch must splice safely: no
  /// declarations (the interpreter scopes branches, the VM does not, so
  /// renamed or leaked locals would diverge), and every name the
  /// dropped code references must be declared somewhere in the program
  /// (the C emitter resolves dead code statically at -O0 too).
  bool spliceable(const StmtList& body) const {
    for (const auto& sp : body) {
      if (!spliceable_stmt(*sp)) return false;
    }
    return true;
  }

  bool spliceable_stmt(const Stmt& s) const {
    if (s.kind == StmtKind::kVarDecl || s.kind == StmtKind::kFuncDef) {
      return false;
    }
    // One-off census of this subtree: no declarations at any depth, no
    // SRS, and every referenced name declared somewhere in the program.
    Census sub;
    census_stmt(s, sub);
    if (sub.has_srs || !sub.decl_count.empty()) return false;
    for (const auto& [name, n] : sub.ref_count) {
      (void)n;
      if (census.decl_count.count(name) == 0) return false;
    }
    return true;
  }
};

// ---------------------------------------------------------------------------
// Pass: dead code elimination — unreferenced declarations and dead IT
// writes (the literal ExprStmt residue branch selection leaves behind)
// ---------------------------------------------------------------------------

/// True when `e` contains anything that blocks removing a preceding IT
/// write: an IT read, a `:{...}` interpolation (dynamic name lookup), or
/// a call (functions get their own IT, but a call is kept as a
/// conservative barrier so all backends trivially agree).
bool expr_blocks_it_elim(const Expr& e) {
  switch (e.kind) {
    case ExprKind::kItRef:
    case ExprKind::kCall:
      return true;
    case ExprKind::kYarnLit: {
      for (const auto& seg : static_cast<const YarnLit&>(e).segments) {
        if (seg.is_var) return true;
      }
      return false;
    }
    case ExprKind::kSrsRef:
      return true;  // unreachable: the pass bails on SRS programs
    case ExprKind::kIndex: {
      const auto& i = static_cast<const IndexExpr&>(e);
      return expr_blocks_it_elim(*i.base) || expr_blocks_it_elim(*i.index);
    }
    case ExprKind::kBinary: {
      const auto& b = static_cast<const BinaryExpr&>(e);
      return expr_blocks_it_elim(*b.lhs) || expr_blocks_it_elim(*b.rhs);
    }
    case ExprKind::kNary: {
      for (const auto& o : static_cast<const NaryExpr&>(e).operands) {
        if (expr_blocks_it_elim(*o)) return true;
      }
      return false;
    }
    case ExprKind::kUnary:
      return expr_blocks_it_elim(*static_cast<const UnaryExpr&>(e).operand);
    case ExprKind::kCast:
      return expr_blocks_it_elim(*static_cast<const CastExpr&>(e).value);
    default:
      return false;
  }
}

struct Dce {
  const Census& census;
  Stats& st;
  std::uint64_t changed = 0;

  void run(StmtList& body) {
    if (census.has_srs) return;
    walk(body);
  }

  void walk(StmtList& body) {
    for (std::size_t i = 0; i < body.size();) {
      for_each_child_list(*body[i], [&](StmtList& b) { walk(b); });
      if (removable(*body[i]) || dead_it_write(body, i)) {
        body.erase(body.begin() + static_cast<std::ptrdiff_t>(i));
        ++st.dead;
        ++changed;
      } else {
        ++i;
      }
    }
  }

  /// `body[i]` is a literal ExprStmt (a pure IT write) that can go when
  /// a later statement in the same list provably overwrites IT before
  /// anything reads it. The scan walks forward over IT-neutral simple
  /// statements; the first ExprStmt that does not itself read IT is the
  /// overwrite (if its expression throws mid-evaluation the program
  /// terminates and IT is never read — there is no catch construct).
  /// Any control flow, region, or other statement kind ends the scan
  /// conservatively, as does the end of the list (the enclosing
  /// context — a loop condition's next iteration, a caller — may read
  /// IT).
  [[nodiscard]] bool dead_it_write(StmtList& body, std::size_t i) const {
    Stmt& s = *body[i];
    if (s.kind != StmtKind::kExpr) return false;
    if (!literal_of(*static_cast<const ExprStmt&>(s).expr)) return false;
    for (std::size_t j = i + 1; j < body.size(); ++j) {
      Stmt& n = *body[j];
      bool blocked = false;
      for_each_rvalue(n, [&](ExprPtr& e) {
        if (expr_blocks_it_elim(*e)) blocked = true;
      });
      if (blocked) return false;
      switch (n.kind) {
        case StmtKind::kExpr:
          return true;  // overwrites IT before any read
        case StmtKind::kAssign:
        case StmtKind::kVarDecl:
        case StmtKind::kVisible:
        case StmtKind::kCastTo:
        case StmtKind::kLock:
          continue;  // IT-neutral, keep scanning
        default:
          return false;
      }
    }
    return false;
  }

  bool removable(const Stmt& s) const {
    if (s.kind != StmtKind::kVarDecl) return false;
    const auto& d = static_cast<const VarDeclStmt&>(s);
    if (d.scope != DeclScope::kPrivate) return false;
    auto dc = census.decl_count.find(d.name);
    if (dc == census.decl_count.end() || dc->second != 1) return false;
    if (census.ref_count.count(d.name) != 0) return false;
    // Initializer/size must be pure and total (a throwing initializer
    // is an observable runtime error).
    auto pure = [](const Expr& e) {
      return literal_of(e).has_value() || e.kind == ExprKind::kMe ||
             e.kind == ExprKind::kMahFrenz;
    };
    if (d.init && !pure(*d.init)) return false;
    if (d.array_size && !pure(*d.array_size)) return false;
    if (d.init && d.srsly && d.declared_type) {
      auto v = literal_of(*d.init);
      if (!v) return false;  // ME/MAH FRENZ cast is total for NUMBR only
      try {
        (void)v->cast_to(*d.declared_type, /*explicit_cast=*/false);
      } catch (const support::LolError&) {
        return false;
      }
    }
    return true;
  }
};

#if LOL_OBS_RUNTIME_METRICS
struct OptMetrics {
  obs::CounterFamily& passes;
  obs::Counter& folded;
  obs::Histogram& ms;
  OptMetrics()
      : passes(obs::Registry::global().counter_family(
            "lol_opt_passes_run_total", "Optimizer pass executions",
            "pass")),
        folded(obs::Registry::global().counter(
            "lol_opt_nodes_folded_total",
            "AST nodes replaced by the optimizer (all passes)")),
        ms(obs::Registry::global().histogram(
            "lol_opt_ms", "Wall time of one optimize() pipeline run",
            {0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0})) {}
  static OptMetrics& get() {
    static OptMetrics m;
    return m;
  }
};
#endif

}  // namespace

void optimize(Program& program, const Options& opts, Stats* stats) {
  Stats local;
  Stats& st = stats != nullptr ? *stats : local;
  if (opts.level <= 0) return;
#if LOL_OBS_RUNTIME_METRICS
  auto t0 = std::chrono::steady_clock::now();
#endif
  std::uint64_t before_total = st.total();
  // Iterate to a (bounded) fixpoint: propagation exposes folds, folds
  // expose unrollable trip counts, unrolling exposes more folds.
  for (int round = 0; round < 4; ++round) {
    std::uint64_t changed = 0;
    Census census = take_census(program);
    Types types = infer_types(census);

    Fold fold{types, st};
    fold.run(program.body);
    changed += fold.changed;

    Prop prop{census, st};
    prop.run(program.body);
    changed += prop.changed;

    // DCE runs on the census taken above — i.e. before any pass that
    // renames or deletes code this round — so its counts are exact.
    Dce dce{census, st};
    dce.run(program.body);
    changed += dce.changed;

    if (opts.level >= 2) {
      Unroll unroll{census, opts, st};
      unroll.run(program.body);
      changed += unroll.changed;

      Fold refold{types, st};
      refold.run(program.body);
      changed += refold.changed;

      Select select{census, st};
      select.run(program.body);
      changed += select.changed;
    }
    if (changed == 0) break;
  }
#if LOL_OBS_RUNTIME_METRICS
  {
    OptMetrics& m = OptMetrics::get();
    auto record = [&](const char* pass, std::uint64_t n) {
      if (n != 0) m.passes.with(pass).inc(n);
    };
    record("fold", st.folded);
    record("prop", st.propagated);
    record("unroll", st.unrolled);
    record("select", st.selected);
    record("dce", st.dead);
    m.folded.inc(st.total() - before_total);
    m.ms.observe(std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - t0)
                     .count());
  }
#endif
}

std::uint64_t mix_hash(std::uint64_t h, int opt_level,
                       int unroll_max_trip) {
  if (opt_level <= 0) return h;  // -O0 runs the raw program unchanged
  auto mix = [&h](std::uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  };
  mix(static_cast<std::uint64_t>(opt_level));
  mix(static_cast<std::uint64_t>(unroll_max_trip));
  mix(kPipelineVersion);
  return h;
}

}  // namespace lol::opt
