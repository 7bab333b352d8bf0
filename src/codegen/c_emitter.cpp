#include "codegen/c_emitter.hpp"

#include <optional>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "support/error.hpp"
#include "support/string_util.hpp"

namespace lol::codegen {

using support::SemaError;

namespace {

/// Emit-time expression type: native 64-bit int, native double, or a
/// boxed dynamic value. SRSLY-typed NUMBR/NUMBAR variables and numeric
/// literals stay native so hot loops (the paper's n-body) compile to
/// plain C arithmetic.
enum class CT { kI64, kF64, kLolv };

/// How one LOLCODE variable is represented in the generated C.
struct VarInfo {
  enum class Kind {
    kDyn,        // lolv
    kI64,        // long long
    kF64,        // double
    kDynArr,     // lolv* + count
    kI64Arr,     // long long* + count
    kF64Arr,     // double* + count
    kSym,        // symmetric: offset + count members
  };
  Kind kind = Kind::kDyn;
  bool global = false;  // lives in the G-> struct
  std::string c_name;   // mangled name (without G-> prefix)
  // Static typing (scalars/arrays).
  std::optional<ast::TypeKind> stype;
  // Symmetric info.
  ast::TypeKind elem = ast::TypeKind::kNumbr;
  bool is_array = false;
  int lock_id = -1;

  [[nodiscard]] bool array_like() const {
    return kind == Kind::kDynArr || kind == Kind::kI64Arr ||
           kind == Kind::kF64Arr || (kind == Kind::kSym && is_array);
  }
};

std::string mangle(const std::string& name) { return "v_" + name; }
std::string mangle_fn(const std::string& name) { return "f_" + name; }

int lolv_tag(ast::TypeKind t) {
  switch (t) {
    case ast::TypeKind::kNoob:
      return 0;
    case ast::TypeKind::kTroof:
      return 1;
    case ast::TypeKind::kNumbr:
      return 2;
    case ast::TypeKind::kNumbar:
      return 3;
    case ast::TypeKind::kYarn:
      return 4;
  }
  return 0;
}

std::string f64_lit(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  std::string s = os.str();
  if (s.find('.') == std::string::npos && s.find('e') == std::string::npos &&
      s.find("inf") == std::string::npos &&
      s.find("nan") == std::string::npos) {
    s += ".0";
  }
  return s;
}

class Emitter {
 public:
  Emitter(const ast::Program& prog, const sema::Analysis& analysis,
          EmitOptions opts)
      : prog_(prog), analysis_(analysis), opts_(std::move(opts)) {}

  std::string run() {
    collect_globals();
    emit_prelude();
    emit_globals_struct();
    emit_function_decls();
    emit_user_main();
    emit_functions();
    emit_c_main();
    return header_.str() + body_.str();
  }

 private:
  // -- output plumbing ---------------------------------------------------------

  std::ostringstream header_;
  std::ostringstream body_;
  std::string indent_;
  std::ostringstream* out_ = &body_;

  void line(const std::string& s) { *out_ << indent_ << s << "\n"; }
  void raw(const std::string& s) { *out_ << s; }
  void open_block(const std::string& head) {
    line(head + " {");
    indent_ += "  ";
  }
  void close_block(const std::string& tail = "}") {
    indent_.erase(indent_.size() - 2);
    line(tail);
  }

  std::string temp() { return "_t" + std::to_string(temp_counter_++); }

  // -- scopes -------------------------------------------------------------------

  struct Scope {
    Scope* parent = nullptr;
    std::unordered_map<std::string, VarInfo> vars;
  };

  VarInfo* resolve(const std::string& name) {
    for (Scope* s = scope_; s != nullptr; s = s->parent) {
      auto it = s->vars.find(name);
      if (it != s->vars.end()) return &it->second;
    }
    // Top-level declarations live in the globals struct and are visible
    // both to the rest of main and to functions.
    auto it = globals_.vars.find(name);
    if (it != globals_.vars.end()) return &it->second;
    return nullptr;
  }

  VarInfo& must_resolve(const std::string& name, support::SourceLoc loc) {
    VarInfo* v = resolve(name);
    if (v == nullptr) {
      throw SemaError("variable '" + name + "' has not been declared", loc);
    }
    return *v;
  }

  // -- global struct collection -------------------------------------------------

  void collect_globals() {
    // Only declarations directly in the program body are globals (visible
    // to functions), matching the interpreter's root scope.
    for (const auto& s : prog_.body) {
      if (s->kind != ast::StmtKind::kVarDecl) continue;
      const auto& d = static_cast<const ast::VarDeclStmt&>(*s);
      if (globals_.vars.count(d.name)) {
        throw SemaError("variable '" + d.name +
                            "' is already declared in this scope",
                        d.loc);
      }
      VarInfo info = classify(d);
      info.global = true;
      globals_.vars[d.name] = info;
      global_order_.push_back(d.name);
    }
  }

  VarInfo classify(const ast::VarDeclStmt& d) {
    VarInfo info;
    info.c_name = mangle(d.name);
    if (d.scope == ast::DeclScope::kSymmetric) {
      const sema::SymInfo* si = analysis_.sym_for_decl(&d);
      info.kind = VarInfo::Kind::kSym;
      info.elem = d.declared_type.value_or(ast::TypeKind::kNumbr);
      info.is_array = d.is_array;
      info.lock_id = si != nullptr ? si->lock_id : -1;
      info.stype = info.elem;
      return info;
    }
    ast::TypeKind t = d.declared_type.value_or(ast::TypeKind::kNumbr);
    if (d.is_array) {
      if (d.srsly && t == ast::TypeKind::kNumbar) {
        info.kind = VarInfo::Kind::kF64Arr;
      } else if (d.srsly && t == ast::TypeKind::kNumbr) {
        info.kind = VarInfo::Kind::kI64Arr;
      } else {
        info.kind = VarInfo::Kind::kDynArr;
      }
      info.elem = t;
      info.is_array = true;
      if (d.srsly) info.stype = t;
      return info;
    }
    if (d.srsly && d.declared_type == ast::TypeKind::kNumbar) {
      info.kind = VarInfo::Kind::kF64;
      info.stype = ast::TypeKind::kNumbar;
    } else if (d.srsly && d.declared_type == ast::TypeKind::kNumbr) {
      info.kind = VarInfo::Kind::kI64;
      info.stype = ast::TypeKind::kNumbr;
    } else {
      info.kind = VarInfo::Kind::kDyn;
      if (d.srsly && d.declared_type) info.stype = *d.declared_type;
    }
    return info;
  }

  // -- file sections -------------------------------------------------------------

  void emit_prelude() {
    header_ << "/* Generated by lcc (PARALLOL) from " << opts_.source_name
            << ".\n"
            << " * LOLCODE with parallel extensions (Richie & Ross 2017)\n"
            << " * translated to C99 against the lolrt runtime.\n */\n"
            << "#include <string.h>\n"
            << "#include \"lolrt_c.h\"\n\n";
  }

  void emit_globals_struct() {
    header_ << "typedef struct lol_globals {\n";
    for (const auto& name : global_order_) {
      const VarInfo& v = globals_.vars[name];
      switch (v.kind) {
        case VarInfo::Kind::kDyn:
          header_ << "  lolv " << v.c_name << ";\n";
          break;
        case VarInfo::Kind::kI64:
          header_ << "  long long " << v.c_name << ";\n";
          break;
        case VarInfo::Kind::kF64:
          header_ << "  double " << v.c_name << ";\n";
          break;
        case VarInfo::Kind::kDynArr:
          header_ << "  lolv* " << v.c_name << ";\n  long long " << v.c_name
                  << "_n;\n";
          break;
        case VarInfo::Kind::kI64Arr:
          header_ << "  long long* " << v.c_name << ";\n  long long "
                  << v.c_name << "_n;\n";
          break;
        case VarInfo::Kind::kF64Arr:
          header_ << "  double* " << v.c_name << ";\n  long long " << v.c_name
                  << "_n;\n";
          break;
        case VarInfo::Kind::kSym:
          header_ << "  size_t " << v.c_name << "_off;\n  long long "
                  << v.c_name << "_n;\n";
          break;
      }
    }
    header_ << "} lol_globals;\n\n";
  }

  void emit_function_decls() {
    for (const auto& s : prog_.body) {
      if (s->kind != ast::StmtKind::kFuncDef) continue;
      const auto& f = static_cast<const ast::FuncDefStmt&>(*s);
      header_ << "static lolv " << mangle_fn(f.name) << "(lolrt_pe* pe";
      for (const auto& p : f.params) header_ << ", lolv " << mangle(p);
      header_ << ");\n";
    }
    header_ << "\n";
  }

  /// Variable access string for a VarInfo (adds G-> for globals).
  std::string vref(const VarInfo& v) const {
    return v.global ? "G->" + v.c_name : v.c_name;
  }

  void emit_user_main() {
    open_block("void lol_user_main(lolrt_pe* pe)");
    line("lol_globals* G = (lol_globals*)lolrt_alloc(pe, sizeof(lol_globals));");
    line("lolrt_set_user(pe, G);");
    line("lolv lol_it = lolrt_noob(); (void)lol_it;");
    Scope top;
    scope_ = &top;
    in_function_ = false;
    emit_body(prog_.body, /*top_level=*/true);
    scope_ = nullptr;
    close_block();
    raw("\n");
  }

  void emit_functions() {
    for (const auto& s : prog_.body) {
      if (s->kind != ast::StmtKind::kFuncDef) continue;
      const auto& f = static_cast<const ast::FuncDefStmt&>(*s);
      std::string head = "static lolv " + mangle_fn(f.name) + "(lolrt_pe* pe";
      for (const auto& p : f.params) head += ", lolv " + mangle(p);
      head += ")";
      open_block(head);
      line("lol_globals* G = (lol_globals*)lolrt_user(pe); (void)G;");
      line("lolv lol_it = lolrt_noob(); (void)lol_it;");
      line("long long _bff0 = lolrt_bff_depth(pe); (void)_bff0;");
      line("lolrt_call_enter(pe);");
      Scope fn_scope;
      for (const auto& p : f.params) {
        VarInfo info;
        info.kind = VarInfo::Kind::kDyn;
        info.c_name = mangle(p);
        fn_scope.vars[p] = info;
      }
      scope_ = &fn_scope;
      in_function_ = true;
      int saved_txt = txt_depth_;
      txt_depth_ = 0;
      emit_body(f.body, false);
      txt_depth_ = saved_txt;
      in_function_ = false;
      scope_ = nullptr;
      line("lolrt_call_leave(pe);");
      line("return lol_it;");
      close_block();
      raw("\n");
    }
  }

  void emit_c_main() {
    raw("int main(int argc, char** argv) {\n");
    raw("  return lolrt_run_main(argc, argv, lol_user_main, " +
        std::to_string(analysis_.lock_count) + ");\n");
    raw("}\n");
  }

  // -- expression emission ---------------------------------------------------------

  /// Boxes a native atom into a lolv expression string.
  std::string box(const std::string& atom, CT ct) {
    switch (ct) {
      case CT::kI64:
        return "lolrt_numbr(" + atom + ")";
      case CT::kF64:
        return "lolrt_numbar(" + atom + ")";
      case CT::kLolv:
        return atom;
    }
    return atom;
  }

  std::string to_i64(const std::string& atom, CT ct) {
    switch (ct) {
      case CT::kI64:
        return atom;
      case CT::kF64:
        return "(long long)(" + atom + ")";
      case CT::kLolv:
        return "lolrt_to_i64(pe, " + atom + ")";
    }
    return atom;
  }

  std::string to_f64(const std::string& atom, CT ct) {
    switch (ct) {
      case CT::kI64:
        return "(double)(" + atom + ")";
      case CT::kF64:
        return atom;
      case CT::kLolv:
        return "lolrt_to_f64(pe, " + atom + ")";
    }
    return atom;
  }

  /// Emits an expression; returns an atom (temporary name or literal) and
  /// its emit-time type. All side effects land in preamble statements, so
  /// evaluation order is strictly left-to-right.
  std::string emit_expr(const ast::Expr& e, CT& ct) {
    switch (e.kind) {
      case ast::ExprKind::kNumbrLit:
        ct = CT::kI64;
        return std::to_string(static_cast<const ast::NumbrLit&>(e).value) +
               "LL";
      case ast::ExprKind::kNumbarLit:
        ct = CT::kF64;
        return f64_lit(static_cast<const ast::NumbarLit&>(e).value);
      case ast::ExprKind::kTroofLit: {
        ct = CT::kLolv;
        std::string t = temp();
        line("lolv " + t + " = lolrt_troof(" +
             (static_cast<const ast::TroofLit&>(e).value ? "1" : "0") + ");");
        return t;
      }
      case ast::ExprKind::kNoobLit: {
        ct = CT::kLolv;
        std::string t = temp();
        line("lolv " + t + " = lolrt_noob();");
        return t;
      }
      case ast::ExprKind::kYarnLit:
        return emit_yarn(static_cast<const ast::YarnLit&>(e), ct);
      case ast::ExprKind::kVarRef:
      case ast::ExprKind::kSrsRef:
      case ast::ExprKind::kIndex:
      case ast::ExprKind::kItRef:
        return emit_read_place(e, ct);
      case ast::ExprKind::kMe:
        ct = CT::kI64;
        return "lolrt_me(pe)";
      case ast::ExprKind::kMahFrenz:
        ct = CT::kI64;
        return "lolrt_n_pes(pe)";
      case ast::ExprKind::kWhatevr: {
        ct = CT::kI64;
        std::string t = temp();
        line("long long " + t + " = lolrt_whatevr(pe);");
        return t;
      }
      case ast::ExprKind::kWhatevar: {
        ct = CT::kF64;
        std::string t = temp();
        line("double " + t + " = lolrt_whatevar(pe);");
        return t;
      }
      case ast::ExprKind::kBinary:
        return emit_binary(static_cast<const ast::BinaryExpr&>(e), ct);
      case ast::ExprKind::kNary:
        return emit_nary(static_cast<const ast::NaryExpr&>(e), ct);
      case ast::ExprKind::kUnary:
        return emit_unary(static_cast<const ast::UnaryExpr&>(e), ct);
      case ast::ExprKind::kCast: {
        const auto& c = static_cast<const ast::CastExpr&>(e);
        CT vt;
        std::string v = emit_expr(*c.value, vt);
        std::string t = temp();
        line("lolv " + t + " = lolrt_cast(pe, " + box(v, vt) + ", " +
             std::to_string(lolv_tag(c.type)) + ", 1);");
        ct = CT::kLolv;
        return t;
      }
      case ast::ExprKind::kCall: {
        const auto& c = static_cast<const ast::CallExpr&>(e);
        if (!analysis_.functions.count(c.callee)) {
          throw SemaError("call to unknown function '" + c.callee + "'",
                          c.loc);
        }
        std::vector<std::string> args;
        for (const auto& a : c.args) {
          CT at;
          std::string atom = emit_expr(*a, at);
          std::string t = temp();
          line("lolv " + t + " = " + box(atom, at) + ";");
          args.push_back(t);
        }
        std::string t = temp();
        std::string call = "lolv " + t + " = " + mangle_fn(c.callee) + "(pe";
        for (const auto& a : args) call += ", " + a;
        call += ");";
        line(call);
        ct = CT::kLolv;
        return t;
      }
    }
    throw SemaError("internal: unhandled expression in C emitter", e.loc);
  }

  std::string emit_yarn(const ast::YarnLit& y, CT& ct) {
    ct = CT::kLolv;
    std::string t = temp();
    if (y.is_plain()) {
      line("lolv " + t + " = lolrt_yarn(pe, \"" +
           support::c_escape(y.plain_text()) + "\");");
      return t;
    }
    // Interpolation -> SMOOSH of segments.
    std::vector<std::string> parts;
    for (const auto& seg : y.segments) {
      if (seg.is_var) {
        VarInfo& v = must_resolve(seg.text, y.loc);
        CT st;
        std::string atom = read_scalar(v, false, y.loc, st);
        std::string pt = temp();
        line("lolv " + pt + " = " + box(atom, st) + ";");
        parts.push_back(pt);
      } else {
        std::string pt = temp();
        line("lolv " + pt + " = lolrt_yarn(pe, \"" +
             support::c_escape(seg.text) + "\");");
        parts.push_back(pt);
      }
    }
    std::string arr = temp();
    std::string init = "lolv " + arr + "[] = {";
    for (std::size_t i = 0; i < parts.size(); ++i) {
      init += (i ? ", " : "") + parts[i];
    }
    init += "};";
    line(init);
    line("lolv " + t + " = lolrt_nary(pe, 2, " +
         std::to_string(parts.size()) + ", " + arr + ");");
    return t;
  }

  std::string emit_binary(const ast::BinaryExpr& b, CT& ct) {
    CT lt, rt2;
    std::string lhs = emit_expr(*b.lhs, lt);
    std::string rhs = emit_expr(*b.rhs, rt2);
    bool native = lt != CT::kLolv && rt2 != CT::kLolv;

    auto arith_native = [&](const char* op_c) -> std::string {
      bool flt = lt == CT::kF64 || rt2 == CT::kF64;
      ct = flt ? CT::kF64 : CT::kI64;
      std::string t = temp();
      line(std::string(flt ? "double " : "long long ") + t + " = (" + lhs +
           ") " + op_c + " (" + rhs + ");");
      return t;
    };

    if (native) {
      bool flt = lt == CT::kF64 || rt2 == CT::kF64;
      switch (b.op) {
        case ast::BinOp::kSum:
          return arith_native("+");
        case ast::BinOp::kDiff:
          return arith_native("-");
        case ast::BinOp::kProdukt:
          return arith_native("*");
        case ast::BinOp::kQuoshunt: {
          ct = flt ? CT::kF64 : CT::kI64;
          std::string t = temp();
          if (flt) {
            line("double " + t + " = lolrt_fdiv(pe, " + to_f64(lhs, lt) +
                 ", " + to_f64(rhs, rt2) + ");");
          } else {
            line("long long " + t + " = lolrt_idiv(pe, " + lhs + ", " + rhs +
                 ");");
          }
          return t;
        }
        case ast::BinOp::kMod: {
          ct = flt ? CT::kF64 : CT::kI64;
          std::string t = temp();
          if (flt) {
            line("double " + t + " = lolrt_fmod2(pe, " + to_f64(lhs, lt) +
                 ", " + to_f64(rhs, rt2) + ");");
          } else {
            line("long long " + t + " = lolrt_imod(pe, " + lhs + ", " + rhs +
                 ");");
          }
          return t;
        }
        case ast::BinOp::kBiggr:
        case ast::BinOp::kSmallr: {
          ct = flt ? CT::kF64 : CT::kI64;
          const char* cmp = b.op == ast::BinOp::kBiggr ? ">" : "<";
          std::string t = temp();
          std::string a = flt ? to_f64(lhs, lt) : lhs;
          std::string c = flt ? to_f64(rhs, rt2) : rhs;
          std::string ty = flt ? "double " : "long long ";
          line(ty + t + " = (" + a + ") " + cmp + " (" + c + ") ? (" + a +
               ") : (" + c + ");");
          return t;
        }
        case ast::BinOp::kBothSaem:
        case ast::BinOp::kDiffrint:
        case ast::BinOp::kBigger:
        case ast::BinOp::kSmallrCmp: {
          ct = CT::kLolv;
          const char* cmp = b.op == ast::BinOp::kBothSaem   ? "=="
                            : b.op == ast::BinOp::kDiffrint ? "!="
                            : b.op == ast::BinOp::kBigger   ? ">"
                                                            : "<";
          std::string a = flt ? to_f64(lhs, lt) : lhs;
          std::string c = flt ? to_f64(rhs, rt2) : rhs;
          std::string t = temp();
          line("lolv " + t + " = lolrt_troof((" + a + ") " + cmp + " (" + c +
               "));");
          return t;
        }
        default:
          break;  // boolean ops fall through to the boxed path
      }
    }
    // Boxed path: exact LOLCODE semantics from the shared runtime.
    std::string t = temp();
    line("lolv " + t + " = lolrt_binary(pe, " +
         std::to_string(static_cast<int>(b.op)) + ", " + box(lhs, lt) + ", " +
         box(rhs, rt2) + ");");
    ct = CT::kLolv;
    return t;
  }

  std::string emit_unary(const ast::UnaryExpr& u, CT& ct) {
    CT vt;
    std::string v = emit_expr(*u.operand, vt);
    if (vt != CT::kLolv) {
      switch (u.op) {
        case ast::UnOp::kSquar: {
          ct = vt;
          std::string t = temp();
          line(std::string(vt == CT::kF64 ? "double " : "long long ") + t +
               " = (" + v + ") * (" + v + ");");
          return t;
        }
        case ast::UnOp::kUnsquar: {
          ct = CT::kF64;
          std::string t = temp();
          line("double " + t + " = lolrt_sqrt2(pe, " + to_f64(v, vt) + ");");
          return t;
        }
        case ast::UnOp::kFlip: {
          ct = CT::kF64;
          std::string t = temp();
          line("double " + t + " = lolrt_flip2(pe, " + to_f64(v, vt) + ");");
          return t;
        }
        case ast::UnOp::kNot:
          break;
      }
    }
    std::string t = temp();
    line("lolv " + t + " = lolrt_unary(pe, " +
         std::to_string(static_cast<int>(u.op)) + ", " + box(v, vt) + ");");
    ct = CT::kLolv;
    return t;
  }

  std::string emit_nary(const ast::NaryExpr& n, CT& ct) {
    std::vector<std::string> parts;
    for (const auto& o : n.operands) {
      CT ot;
      std::string atom = emit_expr(*o, ot);
      std::string t = temp();
      line("lolv " + t + " = " + box(atom, ot) + ";");
      parts.push_back(t);
    }
    std::string arr = temp();
    std::string init = "lolv " + arr + "[] = {";
    for (std::size_t i = 0; i < parts.size(); ++i) {
      init += (i ? ", " : "") + parts[i];
    }
    init += "};";
    line(init);
    std::string t = temp();
    line("lolv " + t + " = lolrt_nary(pe, " +
         std::to_string(static_cast<int>(n.op)) + ", " +
         std::to_string(parts.size()) + ", " + arr + ");");
    ct = CT::kLolv;
    return t;
  }

  // -- places ------------------------------------------------------------------------

  /// Reads a scalar variable (not indexed).
  std::string read_scalar(VarInfo& v, bool remote, support::SourceLoc loc,
                          CT& ct) {
    if (v.array_like()) {
      throw SemaError("cannot read an array as a value; index it with 'Z",
                      loc);
    }
    std::string r = remote ? "1" : "0";
    switch (v.kind) {
      case VarInfo::Kind::kSym: {
        std::string t = temp();
        if (v.elem == ast::TypeKind::kNumbar) {
          ct = CT::kF64;
          line("double " + t + " = lolrt_sym_load_f64(pe, " + vref(v) +
               "_off, 1, 0, " + r + ");");
        } else if (v.elem == ast::TypeKind::kNumbr) {
          ct = CT::kI64;
          line("long long " + t + " = lolrt_sym_load_i64(pe, " + vref(v) +
               "_off, 1, 0, " + r + ");");
        } else {
          ct = CT::kLolv;
          line("lolv " + t + " = lolrt_sym_load(pe, " + vref(v) +
               "_off, 1, " + std::to_string(lolv_tag(v.elem)) + ", 0, " + r +
               ");");
        }
        return t;
      }
      // Reads are materialized into temporaries so sibling operands with
      // side effects cannot reorder against them (LOLCODE evaluates
      // strictly left to right).
      case VarInfo::Kind::kI64: {
        if (remote) break;
        ct = CT::kI64;
        std::string t = temp();
        line("long long " + t + " = " + vref(v) + ";");
        return t;
      }
      case VarInfo::Kind::kF64: {
        if (remote) break;
        ct = CT::kF64;
        std::string t = temp();
        line("double " + t + " = " + vref(v) + ";");
        return t;
      }
      case VarInfo::Kind::kDyn: {
        if (remote) break;
        ct = CT::kLolv;
        std::string t = temp();
        line("lolv " + t + " = " + vref(v) + ";");
        return t;
      }
      default:
        break;
    }
    throw SemaError(
        "UR requires a symmetric variable (declare it with WE HAS A)", loc);
  }

  /// Reads an element of an array variable.
  std::string read_element(VarInfo& v, const std::string& idx_atom, CT idx_ct,
                           bool remote, support::SourceLoc loc, CT& ct) {
    std::string idx = to_i64(idx_atom, idx_ct);
    std::string r = remote ? "1" : "0";
    switch (v.kind) {
      case VarInfo::Kind::kSym: {
        if (!v.is_array) {
          throw SemaError("'Z index applied to a non-array variable", loc);
        }
        std::string t = temp();
        if (v.elem == ast::TypeKind::kNumbar) {
          ct = CT::kF64;
          line("double " + t + " = lolrt_sym_load_f64(pe, " + vref(v) +
               "_off, " + vref(v) + "_n, " + idx + ", " + r + ");");
        } else if (v.elem == ast::TypeKind::kNumbr) {
          ct = CT::kI64;
          line("long long " + t + " = lolrt_sym_load_i64(pe, " + vref(v) +
               "_off, " + vref(v) + "_n, " + idx + ", " + r + ");");
        } else {
          ct = CT::kLolv;
          line("lolv " + t + " = lolrt_sym_load(pe, " + vref(v) + "_off, " +
               vref(v) + "_n, " + std::to_string(lolv_tag(v.elem)) + ", " +
               idx + ", " + r + ");");
        }
        return t;
      }
      case VarInfo::Kind::kF64Arr:
      case VarInfo::Kind::kI64Arr:
      case VarInfo::Kind::kDynArr: {
        if (remote) {
          throw SemaError(
              "UR requires a symmetric array (declare it with WE HAS A)",
              loc);
        }
        std::string t = temp();
        std::string access = vref(v) + "[lolrt_idx(pe, " + idx + ", " +
                             vref(v) + "_n)]";
        if (v.kind == VarInfo::Kind::kF64Arr) {
          ct = CT::kF64;
          line("double " + t + " = " + access + ";");
        } else if (v.kind == VarInfo::Kind::kI64Arr) {
          ct = CT::kI64;
          line("long long " + t + " = " + access + ";");
        } else {
          ct = CT::kLolv;
          line("lolv " + t + " = " + access + ";");
        }
        return t;
      }
      default:
        throw SemaError("'Z index applied to a non-array variable", loc);
    }
  }

  std::string emit_read_place(const ast::Expr& e, CT& ct) {
    if (e.kind == ast::ExprKind::kItRef) {
      ct = CT::kLolv;
      std::string t = temp();
      line("lolv " + t + " = lol_it;");
      return t;
    }
    if (e.kind == ast::ExprKind::kVarRef) {
      const auto& v = static_cast<const ast::VarRef&>(e);
      return read_scalar(must_resolve(v.name, v.loc),
                         v.locality == ast::Locality::kRemote, v.loc, ct);
    }
    if (e.kind == ast::ExprKind::kIndex) {
      const auto& ix = static_cast<const ast::IndexExpr&>(e);
      if (ix.base->kind != ast::ExprKind::kVarRef) {
        throw SemaError("SRS is not supported by the C backend; use lolrun",
                        ix.loc);
      }
      const auto& base = static_cast<const ast::VarRef&>(*ix.base);
      CT idx_ct;
      std::string idx = emit_expr(*ix.index, idx_ct);
      return read_element(must_resolve(base.name, base.loc), idx, idx_ct,
                          base.locality == ast::Locality::kRemote, ix.loc,
                          ct);
    }
    throw SemaError("SRS is not supported by the C backend; use lolrun",
                    e.loc);
  }

  /// Stores `atom` (of type `ct`) into the place `target`.
  void emit_store_place(const ast::Expr& target, const std::string& atom,
                        CT ct) {
    if (target.kind == ast::ExprKind::kItRef) {
      line("lol_it = " + box(atom, ct) + ";");
      return;
    }
    if (target.kind == ast::ExprKind::kVarRef) {
      const auto& vr = static_cast<const ast::VarRef&>(target);
      VarInfo& v = must_resolve(vr.name, vr.loc);
      bool remote = vr.locality == ast::Locality::kRemote;
      store_scalar(v, remote, atom, ct, vr.loc);
      return;
    }
    if (target.kind == ast::ExprKind::kIndex) {
      const auto& ix = static_cast<const ast::IndexExpr&>(target);
      if (ix.base->kind != ast::ExprKind::kVarRef) {
        throw SemaError("SRS is not supported by the C backend; use lolrun",
                        ix.loc);
      }
      const auto& base = static_cast<const ast::VarRef&>(*ix.base);
      VarInfo& v = must_resolve(base.name, base.loc);
      bool remote = base.locality == ast::Locality::kRemote;
      CT idx_ct;
      std::string idx_atom = emit_expr(*ix.index, idx_ct);
      std::string idx = to_i64(idx_atom, idx_ct);
      store_element(v, remote, idx, atom, ct, ix.loc);
      return;
    }
    throw SemaError("invalid assignment target in C backend", target.loc);
  }

  void store_scalar(VarInfo& v, bool remote, const std::string& atom, CT ct,
                    support::SourceLoc loc) {
    if (v.array_like()) {
      throw SemaError("cannot assign a scalar to an array; index it with 'Z",
                      loc);
    }
    std::string r = remote ? "1" : "0";
    switch (v.kind) {
      case VarInfo::Kind::kSym:
        if (v.elem == ast::TypeKind::kNumbar) {
          line("lolrt_sym_store_f64(pe, " + vref(v) + "_off, 1, 0, " + r +
               ", " + to_f64(atom, ct) + ");");
        } else if (v.elem == ast::TypeKind::kNumbr) {
          line("lolrt_sym_store_i64(pe, " + vref(v) + "_off, 1, 0, " + r +
               ", " + to_i64(atom, ct) + ");");
        } else {
          line("lolrt_sym_store(pe, " + vref(v) + "_off, 1, " +
               std::to_string(lolv_tag(v.elem)) + ", 0, " + r + ", " +
               box(atom, ct) + ");");
        }
        return;
      case VarInfo::Kind::kI64:
        if (remote) break;
        line(vref(v) + " = " + to_i64(atom, ct) + ";");
        return;
      case VarInfo::Kind::kF64:
        if (remote) break;
        line(vref(v) + " = " + to_f64(atom, ct) + ";");
        return;
      case VarInfo::Kind::kDyn:
        if (remote) break;
        if (v.stype) {
          line(vref(v) + " = lolrt_cast(pe, " + box(atom, ct) + ", " +
               std::to_string(lolv_tag(*v.stype)) + ", 0);");
        } else {
          line(vref(v) + " = " + box(atom, ct) + ";");
        }
        return;
      default:
        break;
    }
    throw SemaError(
        "UR requires a symmetric variable (declare it with WE HAS A)", loc);
  }

  void store_element(VarInfo& v, bool remote, const std::string& idx,
                     const std::string& atom, CT ct, support::SourceLoc loc) {
    std::string r = remote ? "1" : "0";
    switch (v.kind) {
      case VarInfo::Kind::kSym:
        if (!v.is_array) {
          throw SemaError("'Z index applied to a non-array variable", loc);
        }
        if (v.elem == ast::TypeKind::kNumbar) {
          line("lolrt_sym_store_f64(pe, " + vref(v) + "_off, " + vref(v) +
               "_n, " + idx + ", " + r + ", " + to_f64(atom, ct) + ");");
        } else if (v.elem == ast::TypeKind::kNumbr) {
          line("lolrt_sym_store_i64(pe, " + vref(v) + "_off, " + vref(v) +
               "_n, " + idx + ", " + r + ", " + to_i64(atom, ct) + ");");
        } else {
          line("lolrt_sym_store(pe, " + vref(v) + "_off, " + vref(v) +
               "_n, " + std::to_string(lolv_tag(v.elem)) + ", " + idx + ", " +
               r + ", " + box(atom, ct) + ");");
        }
        return;
      case VarInfo::Kind::kF64Arr:
        if (remote) break;
        line(vref(v) + "[lolrt_idx(pe, " + idx + ", " + vref(v) + "_n)] = " +
             to_f64(atom, ct) + ";");
        return;
      case VarInfo::Kind::kI64Arr:
        if (remote) break;
        line(vref(v) + "[lolrt_idx(pe, " + idx + ", " + vref(v) + "_n)] = " +
             to_i64(atom, ct) + ";");
        return;
      case VarInfo::Kind::kDynArr: {
        if (remote) break;
        std::string rhs = box(atom, ct);
        if (v.stype) {
          rhs = "lolrt_cast(pe, " + rhs + ", " +
                std::to_string(lolv_tag(*v.stype)) + ", 0)";
        }
        line(vref(v) + "[lolrt_idx(pe, " + idx + ", " + vref(v) + "_n)] = " +
             rhs + ";");
        return;
      }
      default:
        throw SemaError("'Z index applied to a non-array variable", loc);
    }
    throw SemaError(
        "UR requires a symmetric array (declare it with WE HAS A)", loc);
  }

  // -- statements -----------------------------------------------------------------

  struct BreakCtx {
    int txt_depth = 0;
  };

  void emit_body(const ast::StmtList& body, bool top_level) {
    for (const auto& s : body) emit_stmt(*s, top_level);
  }

  void emit_stmt(const ast::Stmt& s, bool top_level) {
    // Mirror the interpreter's per-statement budget charge
    // (rt::ExecContext::count_step) so max_steps and external aborts
    // behave identically on the native path. Function definitions are
    // hoisted out of the statement stream, so nothing executes here.
    if (s.kind != ast::StmtKind::kFuncDef) line("lolrt_step(pe);");
    switch (s.kind) {
      case ast::StmtKind::kVarDecl:
        emit_decl(static_cast<const ast::VarDeclStmt&>(s), top_level);
        return;
      case ast::StmtKind::kAssign:
        emit_assign(static_cast<const ast::AssignStmt&>(s));
        return;
      case ast::StmtKind::kExpr: {
        CT ct;
        std::string atom =
            emit_expr(*static_cast<const ast::ExprStmt&>(s).expr, ct);
        line("lol_it = " + box(atom, ct) + ";");
        return;
      }
      case ast::StmtKind::kVisible: {
        const auto& v = static_cast<const ast::VisibleStmt&>(s);
        std::vector<std::string> parts;
        for (const auto& a : v.args) {
          CT ct;
          std::string atom = emit_expr(*a, ct);
          std::string t = temp();
          line("lolv " + t + " = " + box(atom, ct) + ";");
          parts.push_back(t);
        }
        std::string arr = temp();
        std::string init = "lolv " + arr + "[] = {";
        for (std::size_t i = 0; i < parts.size(); ++i) {
          init += (i ? ", " : "") + parts[i];
        }
        init += "};";
        line(init);
        line("lolrt_visible(pe, " + std::to_string(parts.size()) + ", " +
             arr + ", " + (v.newline ? "1" : "0") + ", " +
             (v.to_stderr ? "1" : "0") + ");");
        return;
      }
      case ast::StmtKind::kGimmeh: {
        const auto& g = static_cast<const ast::GimmehStmt&>(s);
        std::string t = temp();
        line("lolv " + t + " = lolrt_gimmeh(pe);");
        emit_store_place(*g.target, t, CT::kLolv);
        return;
      }
      case ast::StmtKind::kCastTo: {
        const auto& c = static_cast<const ast::CastToStmt&>(s);
        CT ct;
        std::string cur = emit_read_place(*c.target, ct);
        std::string t = temp();
        line("lolv " + t + " = lolrt_cast(pe, " + box(cur, ct) + ", " +
             std::to_string(lolv_tag(c.type)) + ", 1);");
        emit_store_place(*c.target, t, CT::kLolv);
        return;
      }
      case ast::StmtKind::kORly:
        emit_orly(static_cast<const ast::ORlyStmt&>(s));
        return;
      case ast::StmtKind::kWtf:
        emit_wtf(static_cast<const ast::WtfStmt&>(s));
        return;
      case ast::StmtKind::kLoop:
        emit_loop(static_cast<const ast::LoopStmt&>(s));
        return;
      case ast::StmtKind::kGtfo:
        emit_gtfo(s.loc);
        return;
      case ast::StmtKind::kFoundYr: {
        const auto& f = static_cast<const ast::FoundYrStmt&>(s);
        CT ct;
        std::string atom = emit_expr(*f.value, ct);
        line("lolrt_bff_reset(pe, _bff0);");
        // The value first: it may hold a recursive call, which must see
        // this frame still counted.
        line("{ lolv _ret = " + box(atom, ct) +
             "; lolrt_call_leave(pe); return _ret; }");
        return;
      }
      case ast::StmtKind::kFuncDef:
        return;  // emitted separately
      case ast::StmtKind::kCanHas:
        line("/* CAN HAS " +
             static_cast<const ast::CanHasStmt&>(s).library +
             "? — built in */");
        return;
      case ast::StmtKind::kHugz:
        line("lolrt_hugz(pe);");
        return;
      case ast::StmtKind::kLock: {
        const auto& l = static_cast<const ast::LockStmt&>(s);
        if (l.target->kind != ast::ExprKind::kVarRef) {
          throw SemaError("SRS is not supported by the C backend; use lolrun",
                          l.loc);
        }
        const auto& vr = static_cast<const ast::VarRef&>(*l.target);
        VarInfo& v = must_resolve(vr.name, vr.loc);
        if (v.kind != VarInfo::Kind::kSym || v.lock_id < 0) {
          throw SemaError(
              "variable has no lock: declare it WE HAS A ... AN IM SHARIN IT",
              l.loc);
        }
        switch (l.op) {
          case ast::LockOp::kAcquire:
            line("lolrt_lock(pe, " + std::to_string(v.lock_id) + ");");
            line("lol_it = lolrt_troof(1);");
            return;
          case ast::LockOp::kTry:
            line("lol_it = lolrt_troof(lolrt_trylock(pe, " +
                 std::to_string(v.lock_id) + "));");
            return;
          case ast::LockOp::kRelease:
            line("lolrt_unlock(pe, " + std::to_string(v.lock_id) + ");");
            return;
        }
        return;
      }
      case ast::StmtKind::kTxt: {
        const auto& t = static_cast<const ast::TxtStmt&>(s);
        CT ct;
        std::string target = emit_expr(*t.target_pe, ct);
        line("lolrt_bff_push(pe, " + to_i64(target, ct) + ");");
        open_block("");
        ++txt_depth_;
        Scope scope;
        scope.parent = scope_;
        scope_ = &scope;
        emit_body(t.body, false);
        scope_ = scope.parent;
        --txt_depth_;
        close_block();
        line("lolrt_bff_pop(pe, 1);");
        return;
      }
    }
    throw SemaError("internal: unhandled statement in C emitter", s.loc);
  }

  void emit_decl(const ast::VarDeclStmt& d, bool top_level) {
    VarInfo info;
    bool is_global = top_level && !in_function_;
    if (is_global) {
      info = globals_.vars[d.name];  // pre-collected
    } else {
      if (d.scope == ast::DeclScope::kSymmetric) {
        throw SemaError(
            "symmetric declarations (WE HAS A) must appear at the top level",
            d.loc);
      }
      info = classify(d);
      // Uniquify block locals against C shadowing pitfalls.
      info.c_name = mangle(d.name) + "_s" + std::to_string(local_counter_++);
      if (scope_->vars.count(d.name)) {
        throw SemaError("variable '" + d.name +
                            "' is already declared in this scope",
                        d.loc);
      }
      scope_->vars[d.name] = info;
    }
    VarInfo& v = is_global ? globals_.vars[d.name] : scope_->vars[d.name];

    // Size expression (arrays).
    std::string count = "1";
    if (d.is_array) {
      CT ct;
      std::string atom = emit_expr(*d.array_size, ct);
      count = to_i64(atom, ct);
    }

    switch (v.kind) {
      case VarInfo::Kind::kSym: {
        line((is_global ? "" : "size_t ") + vref(v) + "_off = lolrt_shmalloc(pe, " +
             count + ");");
        line((is_global ? "" : "long long ") + vref(v) + "_n = " + count +
             ";");
        if (d.init) {
          CT ct;
          std::string atom = emit_expr(*d.init, ct);
          store_scalar(v, false, atom, ct, d.loc);
        }
        return;
      }
      case VarInfo::Kind::kF64Arr:
      case VarInfo::Kind::kI64Arr:
      case VarInfo::Kind::kDynArr: {
        const char* ty = v.kind == VarInfo::Kind::kF64Arr   ? "double"
                         : v.kind == VarInfo::Kind::kI64Arr ? "long long"
                                                            : "lolv";
        line((is_global ? "" : std::string("long long ")) + vref(v) +
             "_n = " + count + ";");
        line((is_global ? "" : std::string(ty) + "* ") + vref(v) + " = (" +
             ty + "*)lolrt_alloc(pe, (size_t)(" + vref(v) + "_n) * sizeof(" +
             ty + "));");
        if (v.kind == VarInfo::Kind::kDynArr) {
          line("lolrt_arr_fill(pe, " + vref(v) + ", " + vref(v) + "_n, " +
               std::to_string(lolv_tag(v.elem)) + ");");
        }
        return;
      }
      case VarInfo::Kind::kI64:
      case VarInfo::Kind::kF64: {
        std::string init = v.kind == VarInfo::Kind::kF64 ? "0.0" : "0";
        if (d.init) {
          CT ct;
          std::string atom = emit_expr(*d.init, ct);
          init = v.kind == VarInfo::Kind::kF64 ? to_f64(atom, ct)
                                                     : to_i64(atom, ct);
        }
        const char* ty =
            v.kind == VarInfo::Kind::kF64 ? "double " : "long long ";
        line((is_global ? "" : std::string(ty)) + vref(v) + " = " + init +
             ";");
        return;
      }
      case VarInfo::Kind::kDyn: {
        std::string init = "lolrt_noob()";
        if (d.declared_type) {
          switch (*d.declared_type) {
            case ast::TypeKind::kTroof:
              init = "lolrt_troof(0)";
              break;
            case ast::TypeKind::kNumbr:
              init = "lolrt_numbr(0)";
              break;
            case ast::TypeKind::kNumbar:
              init = "lolrt_numbar(0.0)";
              break;
            case ast::TypeKind::kYarn:
              init = "lolrt_yarn(pe, \"\")";
              break;
            case ast::TypeKind::kNoob:
              break;
          }
        }
        if (d.init) {
          CT ct;
          std::string atom = emit_expr(*d.init, ct);
          init = box(atom, ct);
          if (v.stype) {
            init = "lolrt_cast(pe, " + init + ", " +
                   std::to_string(lolv_tag(*v.stype)) + ", 0)";
          }
        }
        line((is_global ? "" : std::string("lolv ")) + vref(v) + " = " +
             init + ";");
        return;
      }
    }
  }

  void emit_assign(const ast::AssignStmt& a) {
    // Whole-array copy when both sides are unindexed array variables.
    if (a.target->kind == ast::ExprKind::kVarRef &&
        a.value->kind == ast::ExprKind::kVarRef) {
      const auto& dst_r = static_cast<const ast::VarRef&>(*a.target);
      const auto& src_r = static_cast<const ast::VarRef&>(*a.value);
      VarInfo* dst = resolve(dst_r.name);
      VarInfo* src = resolve(src_r.name);
      if (dst != nullptr && src != nullptr && dst->array_like() &&
          src->array_like()) {
        emit_array_copy(a, *dst, dst_r.locality == ast::Locality::kRemote,
                        *src, src_r.locality == ast::Locality::kRemote);
        return;
      }
    }
    CT ct;
    std::string atom = emit_expr(*a.value, ct);
    emit_store_place(*a.target, atom, ct);
  }

  void emit_array_copy(const ast::AssignStmt& a, VarInfo& dst,
                       bool dst_remote, VarInfo& src, bool src_remote) {
    bool dst_sym = dst.kind == VarInfo::Kind::kSym;
    bool src_sym = src.kind == VarInfo::Kind::kSym;
    if ((dst_remote && !dst_sym) || (src_remote && !src_sym)) {
      throw SemaError("UR requires a symmetric array", a.loc);
    }
    line("if (" + vref(dst) + "_n != " + vref(src) + "_n) " +
         "lolrt_fail(pe, \"array copy size mismatch\");");
    if (dst_sym && src_sym && dst.elem == src.elem) {
      line("lolrt_sym_copy(pe, " + vref(dst) + "_off, " +
           (dst_remote ? "1" : "0") + ", " + vref(src) + "_off, " +
           (src_remote ? "1" : "0") + ", " + vref(dst) + "_n);");
      return;
    }
    if (dst.kind == src.kind && !dst_sym &&
        (dst.kind == VarInfo::Kind::kF64Arr ||
         dst.kind == VarInfo::Kind::kI64Arr ||
         dst.kind == VarInfo::Kind::kDynArr)) {
      const char* ty = dst.kind == VarInfo::Kind::kF64Arr   ? "double"
                       : dst.kind == VarInfo::Kind::kI64Arr ? "long long"
                                                            : "lolv";
      line("memcpy(" + vref(dst) + ", " + vref(src) + ", (size_t)(" +
           vref(dst) + "_n) * sizeof(" + ty + "));");
      return;
    }
    // Mixed element-wise copy.
    std::string i = temp();
    open_block("for (long long " + i + " = 0; " + i + " < " + vref(dst) +
               "_n; ++" + i + ")");
    CT ct;
    std::string val;
    if (src_sym) {
      std::string t = temp();
      if (src.elem == ast::TypeKind::kNumbar) {
        line("double " + t + " = lolrt_sym_load_f64(pe, " + vref(src) +
             "_off, " + vref(src) + "_n, " + i + ", " +
             (src_remote ? "1" : "0") + ");");
        ct = CT::kF64;
      } else {
        line("long long " + t + " = lolrt_sym_load_i64(pe, " + vref(src) +
             "_off, " + vref(src) + "_n, " + i + ", " +
             (src_remote ? "1" : "0") + ");");
        ct = CT::kI64;
      }
      val = t;
    } else {
      std::string t = temp();
      if (src.kind == VarInfo::Kind::kF64Arr) {
        line("double " + t + " = " + vref(src) + "[" + i + "];");
        ct = CT::kF64;
      } else if (src.kind == VarInfo::Kind::kI64Arr) {
        line("long long " + t + " = " + vref(src) + "[" + i + "];");
        ct = CT::kI64;
      } else {
        line("lolv " + t + " = " + vref(src) + "[" + i + "];");
        ct = CT::kLolv;
      }
      val = t;
    }
    store_element(dst, dst_remote, i, val, ct, a.loc);
    close_block();
  }

  void emit_orly(const ast::ORlyStmt& s) {
    open_block("if (lolrt_truthy(lol_it))");
    emit_scoped_body(s.ya_rly);
    if (s.mebbe.empty() && s.no_wai.empty()) {
      close_block();
      return;
    }
    // else branch(es).
    std::size_t open_count = 1;
    for (const auto& [cond, body] : s.mebbe) {
      close_block("} else {");
      indent_ += "  ";
      ++open_count;
      CT ct;
      std::string atom = emit_expr(*cond, ct);
      line("lol_it = " + box(atom, ct) + ";");
      open_block("if (lolrt_truthy(lol_it))");
      emit_scoped_body(body);
    }
    if (!s.no_wai.empty()) {
      // `} else {` closes the previous branch's brace and opens this one:
      // net nesting is unchanged, so open_count must NOT grow here (it
      // did once, which made every NO WAI emit one `}` too many and
      // crash the indent bookkeeping).
      close_block("} else {");
      indent_ += "  ";
      emit_scoped_body(s.no_wai);
    }
    for (std::size_t i = 0; i < open_count; ++i) close_block();
  }

  void emit_wtf(const ast::WtfStmt& s) {
    open_block("");
    std::string subj = temp();
    line("lolv " + subj + " = lol_it;");
    std::string sel = temp();
    line("int " + sel + " = " + std::to_string(s.cases.size()) + ";");
    for (std::size_t i = 0; i < s.cases.size(); ++i) {
      CT ct;
      std::string lit = emit_expr(*s.cases[i].literal, ct);
      open_block("if (" + sel + " == " + std::to_string(s.cases.size()) +
                 " && lolrt_saem(" + subj + ", " + box(lit, ct) + "))");
      line(sel + " = " + std::to_string(i) + ";");
      close_block();
    }
    break_stack_.push_back(BreakCtx{txt_depth_});
    open_block("switch (" + sel + ")");
    for (std::size_t i = 0; i < s.cases.size(); ++i) {
      line("case " + std::to_string(i) + ": {");
      indent_ += "  ";
      emit_scoped_body(s.cases[i].body);
      indent_.erase(indent_.size() - 2);
      line("} /* fallthrough */");
    }
    line("default: {");
    indent_ += "  ";
    if (s.has_default) emit_scoped_body(s.default_body);
    line("break;");
    indent_.erase(indent_.size() - 2);
    line("}");
    close_block();
    break_stack_.pop_back();
    close_block();
  }

  void emit_loop(const ast::LoopStmt& s) {
    open_block("");
    Scope loop_scope;
    loop_scope.parent = scope_;
    scope_ = &loop_scope;

    std::string var_name;
    if (s.update != ast::LoopUpdate::kNone) {
      VarInfo info;
      info.kind = VarInfo::Kind::kDyn;
      info.c_name = mangle(s.var) + "_s" + std::to_string(local_counter_++);
      loop_scope.vars[s.var] = info;
      var_name = info.c_name;
      line("lolv " + var_name + " = lolrt_numbr(0);");
    }

    break_stack_.push_back(BreakCtx{txt_depth_});
    open_block("for (;;)");
    // Charge every iteration so a condition-only (or empty-body) spin
    // still consumes budget and polls for abort — same rule as the
    // interpreter's loop head and the VM's per-instruction charge.
    line("lolrt_step(pe);");
    if (s.cond_kind == ast::LoopCond::kTil) {
      CT ct;
      std::string atom = emit_expr(*s.cond, ct);
      line("if (lolrt_truthy(" + box(atom, ct) + ")) break;");
    } else if (s.cond_kind == ast::LoopCond::kWile) {
      CT ct;
      std::string atom = emit_expr(*s.cond, ct);
      line("if (!lolrt_truthy(" + box(atom, ct) + ")) break;");
    }
    emit_scoped_body(s.body);
    // Update.
    if (s.update == ast::LoopUpdate::kUppin) {
      line(var_name + " = lolrt_binary(pe, 0, " + var_name +
           ", lolrt_numbr(1));");
    } else if (s.update == ast::LoopUpdate::kNerfin) {
      line(var_name + " = lolrt_binary(pe, 1, " + var_name +
           ", lolrt_numbr(1));");
    } else if (s.update == ast::LoopUpdate::kFunc) {
      if (!analysis_.functions.count(s.func)) {
        throw SemaError("loop update names unknown function '" + s.func + "'",
                        s.loc);
      }
      line(var_name + " = " + mangle_fn(s.func) + "(pe, " + var_name + ");");
    }
    close_block();
    break_stack_.pop_back();
    scope_ = loop_scope.parent;
    close_block();
  }

  void emit_gtfo(support::SourceLoc loc) {
    if (!break_stack_.empty()) {
      int pops = txt_depth_ - break_stack_.back().txt_depth;
      if (pops > 0) line("lolrt_bff_pop(pe, " + std::to_string(pops) + ");");
      line("break;");
      return;
    }
    if (in_function_) {
      line("lolrt_bff_reset(pe, _bff0);");
      line("lolrt_call_leave(pe);");
      line("return lolrt_noob();");
      return;
    }
    throw SemaError("GTFO outside loop/switch/function", loc);
  }

  void emit_scoped_body(const ast::StmtList& body) {
    Scope scope;
    scope.parent = scope_;
    scope_ = &scope;
    emit_body(body, false);
    scope_ = scope.parent;
  }

  const ast::Program& prog_;
  const sema::Analysis& analysis_;
  EmitOptions opts_;

  Scope globals_;
  std::vector<std::string> global_order_;
  Scope* scope_ = nullptr;
  bool in_function_ = false;
  int txt_depth_ = 0;
  int temp_counter_ = 0;
  int local_counter_ = 0;
  std::vector<BreakCtx> break_stack_;
};

}  // namespace

std::string emit_c(const ast::Program& program,
                   const sema::Analysis& analysis, const EmitOptions& opts) {
  return Emitter(program, analysis, opts).run();
}

}  // namespace lol::codegen
