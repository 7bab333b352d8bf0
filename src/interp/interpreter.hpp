// The tree-walking interpreter: the reference executor for parallel
// LOLCODE. One Interpreter instance runs one PE; the SPMD launch runs one
// instance per PE over the shared shmem runtime.
#pragma once

#include "ast/ast.hpp"
#include "interp/environment.hpp"
#include "rt/exec_context.hpp"
#include "sema/analyzer.hpp"

namespace lol::interp {

class Interpreter {
 public:
  /// `program` and `analysis` must outlive the interpreter; `ctx` is the
  /// executing PE's service bundle.
  Interpreter(const ast::Program& program, const sema::Analysis& analysis,
              rt::ExecContext& ctx);

  /// Executes the program body on this PE. Throws support::RuntimeError
  /// on semantic errors at run time.
  void run();

  /// Call frames allowed, main's included (the VM and lcc-generated C
  /// allow 2000). The tree-walking interpreter recurses on the host stack, so
  /// the guard must leave headroom below the real stack size. Sanitizer
  /// instrumentation grows frames several-fold; shrink accordingly so
  /// runaway recursion still dies with a clean diagnostic, not SIGSEGV.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  static constexpr int kMaxCallDepth = 250;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  static constexpr int kMaxCallDepth = 250;
#else
  static constexpr int kMaxCallDepth = 2000;
#endif
#else
  static constexpr int kMaxCallDepth = 2000;
#endif

 private:
  enum class Flow { kNormal, kBreak, kReturn };

  Flow exec_block(const ast::StmtList& body, Env& env);
  Flow exec_stmt(const ast::Stmt& s, Env& env);
  void exec_decl(const ast::VarDeclStmt& d, Env& env);
  Flow exec_orly(const ast::ORlyStmt& s, Env& env);
  Flow exec_wtf(const ast::WtfStmt& s, Env& env);
  Flow exec_loop(const ast::LoopStmt& s, Env& env);
  void exec_lock(const ast::LockStmt& s, Env& env);
  Flow exec_txt(const ast::TxtStmt& s, Env& env);

  rt::Value eval(const ast::Expr& e, Env& env);
  rt::Value eval_yarn(const ast::YarnLit& y, Env& env);
  rt::Value call_function(const std::string& name,
                          std::vector<rt::Value> args,
                          support::SourceLoc loc);

  /// Resolves a VarRef/SrsRef to the underlying variable + the effective
  /// locality qualifier.
  std::pair<Variable*, ast::Locality> resolve_base(const ast::Expr& e,
                                                   Env& env);

  /// Reads a variable-shaped expression (VarRef/SrsRef/IndexExpr/ItRef).
  rt::Value read_place(const ast::Expr& e, Env& env);

  /// Assigns to a variable-shaped expression.
  void assign_place(const ast::Expr& target, rt::Value v, Env& env);

  /// Whole-array copy (`MAH array R UR array`): bulk symmetric transfer
  /// when types match, element-wise with casts otherwise.
  void copy_array(const ast::AssignStmt& a, Variable& dst,
                  ast::Locality dst_loc, Variable& src,
                  ast::Locality src_loc, Env& env);

  // Symmetric-scalar/element accessors; `target_pe` < 0 means local.
  rt::Value sym_read(const SymHandle& h, std::size_t idx, int target_pe);
  void sym_write(const SymHandle& h, std::size_t idx, int target_pe,
                 const rt::Value& v, support::SourceLoc loc);

  /// Current TXT MAH BFF target; throws when no predication is active.
  int current_bff(support::SourceLoc loc) const;

  /// Bounds-checks an index against an array.
  static std::size_t check_index(const rt::Value& idx, std::size_t count,
                                 support::SourceLoc loc);

  const ast::Program& prog_;
  const sema::Analysis& analysis_;
  rt::ExecContext& ctx_;
  Env globals_ = Env::make_root();
  std::vector<int> bff_stack_;
  int call_depth_ = 0;
  rt::Value return_value_;
};

/// Convenience: run `program` for one PE (used by the SPMD launcher).
void run_pe(const ast::Program& program, const sema::Analysis& analysis,
            rt::ExecContext& ctx);

}  // namespace lol::interp
