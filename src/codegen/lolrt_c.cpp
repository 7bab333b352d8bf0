// Implementation of the C runtime API (lolrt_c.h), bridging generated C
// to the shared C++ substrate (rt::Value semantics + shmem runtime).
//
// Error discipline: C++ exceptions cannot unwind through the generated C
// frames, so every API function catches at the boundary, stores the
// message in the PE context, and longjmps back to the launcher once no
// nontrivially-destructible locals remain live.
#include "codegen/lolrt_c.h"

#include <atomic>
#include <cmath>
#include <csetjmp>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "codegen/native_backend.hpp"
#include "driver/cli.hpp"
#include "rt/exec_context.hpp"
#include "rt/io.hpp"
#include "rt/objects.hpp"
#include "rt/ops.hpp"
#include "rt/value.hpp"
#include "shmem/runtime.hpp"
#include "support/rng.hpp"

// The per-PE context behind every generated call. All execution services
// (shmem handle, RNG, IO, step budget, abort poll) come from the same
// rt::ExecContext the interpreter and VM run against — that sharing is
// what makes the three backends one semantics, budget included.
struct lolrt_pe {
  lol::rt::ExecContext* ctx = nullptr;

  std::deque<std::string> yarn_arena;          // stable c_str storage
  std::vector<std::unique_ptr<char[]>> allocs; // lolrt_alloc blocks
  std::vector<int> bff;
  void* user = nullptr;
  int call_depth = 0;  // live generated-function frames

  std::jmp_buf jb;
  char err[512] = {0};
  bool failed = false;
  bool step_limited = false;  // the failure was an exhausted step budget
  bool pe_killed = false;     // the failure was injected (PeKilledError)
  unsigned long long killed_step = 0;
};

namespace {

using lol::rt::Value;

void store_err(lolrt_pe* pe, const char* msg) {
  std::snprintf(pe->err, sizeof pe->err, "%s", msg);
  pe->failed = true;
}

[[noreturn]] void jump_out(lolrt_pe* pe) { std::longjmp(pe->jb, 1); }

/// Converts a C lolv to the shared C++ value.
Value to_value(const lolv& v) {
  switch (v.t) {
    case LOLV_TROOF:
      return Value::troof(v.i != 0);
    case LOLV_NUMBR:
      return Value::numbr(v.i);
    case LOLV_NUMBAR:
      return Value::numbar(v.f);
    case LOLV_YARN:
      return Value::yarn(v.s != nullptr ? v.s : "");
    default:
      return Value::noob();
  }
}

const char* intern(lolrt_pe* pe, std::string s) {
  pe->yarn_arena.push_back(std::move(s));
  return pe->yarn_arena.back().c_str();
}

/// Converts a C++ value to C (interning YARN payloads).
lolv from_value(lolrt_pe* pe, const Value& v) {
  lolv out{LOLV_NOOB, 0, 0.0, nullptr};
  switch (v.type()) {
    case lol::ast::TypeKind::kNoob:
      break;
    case lol::ast::TypeKind::kTroof:
      out.t = LOLV_TROOF;
      out.i = v.troof_raw() ? 1 : 0;
      break;
    case lol::ast::TypeKind::kNumbr:
      out.t = LOLV_NUMBR;
      out.i = v.numbr_raw();
      break;
    case lol::ast::TypeKind::kNumbar:
      out.t = LOLV_NUMBAR;
      out.f = v.numbar_raw();
      break;
    case lol::ast::TypeKind::kYarn:
      out.t = LOLV_YARN;
      out.s = intern(pe, v.yarn_raw());
      break;
  }
  return out;
}

lol::ast::TypeKind elem_kind(int elem) {
  switch (elem) {
    case LOLV_NUMBAR:
      return lol::ast::TypeKind::kNumbar;
    case LOLV_TROOF:
      return lol::ast::TypeKind::kTroof;
    default:
      return lol::ast::TypeKind::kNumbr;
  }
}

lol::ast::TypeKind cast_kind(int type) {
  switch (type) {
    case LOLV_NOOB:
      return lol::ast::TypeKind::kNoob;
    case LOLV_TROOF:
      return lol::ast::TypeKind::kTroof;
    case LOLV_NUMBR:
      return lol::ast::TypeKind::kNumbr;
    case LOLV_NUMBAR:
      return lol::ast::TypeKind::kNumbar;
    default:
      return lol::ast::TypeKind::kYarn;
  }
}

long long check_idx(long long idx, long long n) {
  if (idx < 0 || idx >= n) {
    throw lol::support::RuntimeError(
        "array index " + std::to_string(idx) + " out of bounds [0, " +
        std::to_string(n) + ")");
  }
  return idx;
}

int bff_target(lolrt_pe* pe, int remote) {
  if (!remote) return -1;
  if (pe->bff.empty()) {
    throw lol::support::RuntimeError(
        "UR reference outside TXT MAH BFF predication: no remote PE is "
        "selected");
  }
  return pe->bff.back();
}

lol::rt::SymHandle make_handle(size_t off, long long count, int elem) {
  lol::rt::SymHandle h;
  h.offset = off;
  h.count = static_cast<std::size_t>(count);
  h.elem = elem_kind(elem);
  h.is_array = count > 1;
  return h;
}

}  // namespace

// Every API body runs inside this bracket: exceptions are converted into
// a stored message + longjmp after the try block has fully unwound. A
// StepLimitError (thrown by ExecContext::count_step in lolrt_step) is
// flagged so the launcher can classify the failure distinctly from
// ordinary runtime errors.
#define LOLRT_TRY try {
#define LOLRT_END(pe)                                 \
  }                                                   \
  catch (const lol::support::StepLimitError& e) {     \
    (pe)->step_limited = true;                        \
    store_err((pe), e.what());                        \
  }                                                   \
  catch (const lol::support::PeKilledError& e) {      \
    (pe)->pe_killed = true;                           \
    (pe)->killed_step = e.step();                     \
    store_err((pe), e.what());                        \
  }                                                   \
  catch (const std::exception& e) {                   \
    store_err((pe), e.what());                        \
  }                                                   \
  catch (...) {                                       \
    store_err((pe), "unknown runtime error");         \
  }                                                   \
  jump_out(pe);

extern "C" {

lolv lolrt_noob(void) { return lolv{LOLV_NOOB, 0, 0.0, nullptr}; }
lolv lolrt_troof(long long b) {
  return lolv{LOLV_TROOF, b != 0 ? 1 : 0, 0.0, nullptr};
}
lolv lolrt_numbr(long long v) { return lolv{LOLV_NUMBR, v, 0.0, nullptr}; }
lolv lolrt_numbar(double v) { return lolv{LOLV_NUMBAR, 0, v, nullptr}; }

lolv lolrt_yarn(lolrt_pe* pe, const char* s) {
  return lolv{LOLV_YARN, 0, 0.0, s != nullptr ? intern(pe, s) : ""};
}

lolv lolrt_binary(lolrt_pe* pe, int op, lolv a, lolv b) {
  LOLRT_TRY
  return from_value(pe, lol::rt::op_binary(static_cast<lol::ast::BinOp>(op),
                                           to_value(a), to_value(b)));
  LOLRT_END(pe)
}

lolv lolrt_unary(lolrt_pe* pe, int op, lolv a) {
  LOLRT_TRY
  return from_value(
      pe, lol::rt::op_unary(static_cast<lol::ast::UnOp>(op), to_value(a)));
  LOLRT_END(pe)
}

lolv lolrt_nary(lolrt_pe* pe, int op, int n, const lolv* xs) {
  LOLRT_TRY
  std::vector<Value> vals;
  vals.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) vals.push_back(to_value(xs[i]));
  return from_value(
      pe, lol::rt::op_nary(static_cast<lol::ast::NaryOp>(op), vals));
  LOLRT_END(pe)
}

lolv lolrt_cast(lolrt_pe* pe, lolv v, int type, int is_explicit) {
  LOLRT_TRY
  return from_value(pe, to_value(v).cast_to(cast_kind(type),
                                            is_explicit != 0));
  LOLRT_END(pe)
}

long long lolrt_truthy(lolv v) { return to_value(v).to_troof() ? 1 : 0; }

long long lolrt_to_i64(lolrt_pe* pe, lolv v) {
  LOLRT_TRY
  return to_value(v).to_numbr();
  LOLRT_END(pe)
}

double lolrt_to_f64(lolrt_pe* pe, lolv v) {
  LOLRT_TRY
  return to_value(v).to_numbar();
  LOLRT_END(pe)
}

const char* lolrt_to_str(lolrt_pe* pe, lolv v) {
  LOLRT_TRY
  return intern(pe, to_value(v).to_yarn());
  LOLRT_END(pe)
}

long long lolrt_saem(lolv a, lolv b) {
  return Value::saem(to_value(a), to_value(b)) ? 1 : 0;
}

long long lolrt_idiv(lolrt_pe* pe, long long a, long long b) {
  if (b == 0) {
    store_err(pe, "QUOSHUNT OF: division by zero");
    jump_out(pe);
  }
  return a / b;
}

long long lolrt_imod(lolrt_pe* pe, long long a, long long b) {
  if (b == 0) {
    store_err(pe, "MOD OF: modulo by zero");
    jump_out(pe);
  }
  return a % b;
}

double lolrt_fdiv(lolrt_pe* pe, double a, double b) {
  if (b == 0.0) {
    store_err(pe, "QUOSHUNT OF: division by zero");
    jump_out(pe);
  }
  return a / b;
}

double lolrt_fmod2(lolrt_pe* pe, double a, double b) {
  if (b == 0.0) {
    store_err(pe, "MOD OF: modulo by zero");
    jump_out(pe);
  }
  return std::fmod(a, b);
}

double lolrt_sqrt2(lolrt_pe* pe, double x) {
  if (x < 0.0) {
    store_err(pe, "UNSQUAR OF: negative operand has no NUMBAR root");
    jump_out(pe);
  }
  return std::sqrt(x);
}

double lolrt_flip2(lolrt_pe* pe, double x) {
  if (x == 0.0) {
    store_err(pe, "FLIP OF: reciprocal of zero");
    jump_out(pe);
  }
  return 1.0 / x;
}

void lolrt_visible(lolrt_pe* pe, int n, const lolv* xs, int newline,
                   int to_stderr) {
  LOLRT_TRY
  std::string text;
  for (int i = 0; i < n; ++i) text += to_value(xs[i]).to_yarn();
  if (newline) text += '\n';
  if (to_stderr) {
    pe->ctx->out->write_err(pe->ctx->pe->id(), text);
  } else {
    pe->ctx->out->write(pe->ctx->pe->id(), text);
  }
  return;
  LOLRT_END(pe)
}

lolv lolrt_gimmeh(lolrt_pe* pe) {
  LOLRT_TRY
  // ExecContext::read_line polls the input source with a bounded wait, so
  // an abort interrupts generated code blocked on input exactly as it
  // does on the interpreter and VM backends.
  auto line = pe->ctx->read_line();
  return from_value(pe, Value::yarn(line.value_or("")));
  LOLRT_END(pe)
}

void lolrt_step(lolrt_pe* pe) {
  LOLRT_TRY
  pe->ctx->count_step();
  return;
  LOLRT_END(pe)
}

void lolrt_call_enter(lolrt_pe* pe) {
  constexpr int kMaxFrames = 2000;  // vm::Vm's limit, main's frame included
  LOLRT_TRY
  if (pe->call_depth + 1 >= kMaxFrames) {
    throw lol::support::RuntimeError("call depth exceeded (" +
                                     std::to_string(kMaxFrames) +
                                     "): runaway recursion?");
  }
  ++pe->call_depth;
  return;
  LOLRT_END(pe)
}

void lolrt_call_leave(lolrt_pe* pe) { --pe->call_depth; }

long long lolrt_me(lolrt_pe* pe) { return pe->ctx->pe->id(); }
long long lolrt_n_pes(lolrt_pe* pe) { return pe->ctx->pe->n_pes(); }

void lolrt_hugz(lolrt_pe* pe) {
  LOLRT_TRY
  pe->ctx->pe->barrier_all();
  return;
  LOLRT_END(pe)
}

long long lolrt_whatevr(lolrt_pe* pe) {
  LOLRT_TRY
  return pe->ctx->rng_numbr();
  LOLRT_END(pe)
}
double lolrt_whatevar(lolrt_pe* pe) {
  LOLRT_TRY
  return pe->ctx->rng_numbar();
  LOLRT_END(pe)
}

void lolrt_lock(lolrt_pe* pe, int lock_id) {
  LOLRT_TRY
  pe->ctx->pe->set_lock(lock_id);
  return;
  LOLRT_END(pe)
}

long long lolrt_trylock(lolrt_pe* pe, int lock_id) {
  LOLRT_TRY
  return pe->ctx->pe->test_lock(lock_id) ? 1 : 0;
  LOLRT_END(pe)
}

void lolrt_unlock(lolrt_pe* pe, int lock_id) {
  LOLRT_TRY
  pe->ctx->pe->clear_lock(lock_id);
  return;
  LOLRT_END(pe)
}

size_t lolrt_shmalloc(lolrt_pe* pe, long long slots) {
  LOLRT_TRY
  if (slots <= 0) {
    throw lol::support::RuntimeError("array size must be positive, got " +
                                     std::to_string(slots));
  }
  return pe->ctx->pe->shmalloc(static_cast<std::size_t>(slots) * 8);
  LOLRT_END(pe)
}

lolv lolrt_sym_load(lolrt_pe* pe, size_t off, long long count, int elem,
                    long long idx, int remote) {
  LOLRT_TRY
  lol::rt::SymHandle h = make_handle(off, count, elem);
  long long i = check_idx(idx, count);
  return from_value(pe, lol::rt::sym_read(*pe->ctx->pe, h,
                                          static_cast<std::size_t>(i),
                                          bff_target(pe, remote)));
  LOLRT_END(pe)
}

void lolrt_sym_store(lolrt_pe* pe, size_t off, long long count, int elem,
                     long long idx, int remote, lolv v) {
  LOLRT_TRY
  lol::rt::SymHandle h = make_handle(off, count, elem);
  long long i = check_idx(idx, count);
  lol::rt::sym_write(*pe->ctx->pe, h, static_cast<std::size_t>(i),
                     bff_target(pe, remote), to_value(v));
  return;
  LOLRT_END(pe)
}

double lolrt_sym_load_f64(lolrt_pe* pe, size_t off, long long count,
                          long long idx, int remote) {
  LOLRT_TRY
  long long i = check_idx(idx, count);
  int target = bff_target(pe, remote);
  return pe->ctx->pe->get_f64(target < 0 ? pe->ctx->pe->id() : target,
                         off + static_cast<std::size_t>(i) * 8);
  LOLRT_END(pe)
}

void lolrt_sym_store_f64(lolrt_pe* pe, size_t off, long long count,
                         long long idx, int remote, double v) {
  LOLRT_TRY
  long long i = check_idx(idx, count);
  int target = bff_target(pe, remote);
  pe->ctx->pe->put_f64(target < 0 ? pe->ctx->pe->id() : target,
                  off + static_cast<std::size_t>(i) * 8, v);
  return;
  LOLRT_END(pe)
}

long long lolrt_sym_load_i64(lolrt_pe* pe, size_t off, long long count,
                             long long idx, int remote) {
  LOLRT_TRY
  long long i = check_idx(idx, count);
  int target = bff_target(pe, remote);
  return pe->ctx->pe->get_i64(target < 0 ? pe->ctx->pe->id() : target,
                         off + static_cast<std::size_t>(i) * 8);
  LOLRT_END(pe)
}

void lolrt_sym_store_i64(lolrt_pe* pe, size_t off, long long count,
                         long long idx, int remote, long long v) {
  LOLRT_TRY
  long long i = check_idx(idx, count);
  int target = bff_target(pe, remote);
  pe->ctx->pe->put_i64(target < 0 ? pe->ctx->pe->id() : target,
                  off + static_cast<std::size_t>(i) * 8, v);
  return;
  LOLRT_END(pe)
}

void lolrt_sym_copy(lolrt_pe* pe, size_t dst_off, int dst_remote,
                    size_t src_off, int src_remote, long long slots) {
  LOLRT_TRY
  int src = bff_target(pe, src_remote);
  int dst = bff_target(pe, dst_remote);
  std::vector<std::byte> tmp(static_cast<std::size_t>(slots) * 8);
  pe->ctx->pe->get(tmp.data(), src < 0 ? pe->ctx->pe->id() : src, src_off, tmp.size());
  pe->ctx->pe->put(dst < 0 ? pe->ctx->pe->id() : dst, dst_off, tmp.data(), tmp.size());
  return;
  LOLRT_END(pe)
}

void lolrt_bff_push(lolrt_pe* pe, long long target) {
  LOLRT_TRY
  if (target < 0 || target >= pe->ctx->pe->n_pes()) {
    throw lol::support::RuntimeError(
        "TXT MAH BFF " + std::to_string(target) +
        ": no such PE (MAH FRENZ = " + std::to_string(pe->ctx->pe->n_pes()) + ")");
  }
  pe->bff.push_back(static_cast<int>(target));
  return;
  LOLRT_END(pe)
}

void lolrt_bff_pop(lolrt_pe* pe, int n) {
  std::size_t k = static_cast<std::size_t>(n);
  pe->bff.resize(k > pe->bff.size() ? 0 : pe->bff.size() - k);
}

long long lolrt_bff_depth(lolrt_pe* pe) {
  return static_cast<long long>(pe->bff.size());
}

void lolrt_bff_reset(lolrt_pe* pe, long long depth) {
  if (depth >= 0 && static_cast<std::size_t>(depth) <= pe->bff.size()) {
    pe->bff.resize(static_cast<std::size_t>(depth));
  }
}

void* lolrt_alloc(lolrt_pe* pe, size_t bytes) {
  LOLRT_TRY
  auto block = std::make_unique<char[]>(bytes);
  std::memset(block.get(), 0, bytes);
  pe->allocs.push_back(std::move(block));
  return pe->allocs.back().get();
  LOLRT_END(pe)
}

long long lolrt_idx(lolrt_pe* pe, long long idx, long long n) {
  if (idx < 0 || idx >= n) {
    char buf[128];
    std::snprintf(buf, sizeof buf,
                  "array index %lld out of bounds [0, %lld)", idx, n);
    store_err(pe, buf);
    jump_out(pe);
  }
  return idx;
}

void lolrt_arr_fill(lolrt_pe* pe, lolv* arr, long long n, int elem) {
  (void)pe;
  lolv zero;
  switch (elem) {
    case LOLV_NUMBAR:
      zero = lolrt_numbar(0.0);
      break;
    case LOLV_TROOF:
      zero = lolrt_troof(0);
      break;
    case LOLV_YARN:
      zero = lolv{LOLV_YARN, 0, 0.0, ""};
      break;
    case LOLV_NOOB:
      zero = lolrt_noob();
      break;
    default:
      zero = lolrt_numbr(0);
  }
  for (long long i = 0; i < n; ++i) arr[i] = zero;
}

void lolrt_set_user(lolrt_pe* pe, void* p) { pe->user = p; }
void* lolrt_user(lolrt_pe* pe) { return pe->user; }

void lolrt_fail(lolrt_pe* pe, const char* msg) {
  store_err(pe, msg);
  jump_out(pe);
}

int lolrt_run_main(int argc, char** argv, lolrt_main_fn fn, int n_locks) {
  // Flags parse strictly, with lolrun's ranges: a malformed or
  // out-of-range value prints why and exits 2 before any PE starts.
  lol::driver::Cli cli(argc, argv);
  const int n_pes = static_cast<int>(
      cli.int_option("-np", 1, lol::shmem::kMaxPes, "--np").value_or(1));
  const std::uint64_t seed = cli.uint_option("--seed").value_or(20170529ULL);
  const std::uint64_t heap = cli.uint_option("--heap").value_or(1 << 20);
  const std::uint64_t max_steps =
      cli.uint_option("--max-steps").value_or(0);  // 0 = unlimited
  const bool tag = cli.has_flag("--tag");
  if (!cli.positional().empty()) {
    std::fprintf(stderr,
                 "usage: %s [-np N] [--seed S] [--heap B] [--max-steps S] "
                 "[--tag]\n",
                 argv[0]);
    return 2;
  }

  lol::shmem::Config cfg;
  cfg.n_pes = n_pes;
  cfg.heap_bytes = static_cast<std::size_t>(heap);
  cfg.n_locks = n_locks;
  lol::rt::StdioSink sink(tag);
  lol::rt::StdinInput input;

  std::atomic<bool> step_limited{false};
  lol::shmem::LaunchResult lr;
  try {
    lol::shmem::Runtime runtime(cfg);
    lr = runtime.launch([&](lol::shmem::Pe& pe) {
      lol::rt::ExecContext ctx(pe, seed, sink, input, max_steps);
      try {
        lol::codegen::run_native_pe(fn, ctx);
      } catch (const lol::support::StepLimitError&) {
        step_limited.store(true, std::memory_order_relaxed);
        throw;  // launch captures it as this PE's error and aborts peers
      }
    });
  } catch (const std::exception& e) {
    // A heap that cannot be mapped, or a thread that cannot be spawned:
    // no PE ran, so report it like a runtime error.
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  if (!lr.ok) {
    for (const auto& e : lr.errors) {
      if (!e.empty()) std::fprintf(stderr, "error: %s\n", e.c_str());
    }
    // Distinguishable status for a program killed by its step budget
    // (mirrors JobStatus::kStepLimit in the service layer).
    return step_limited.load(std::memory_order_relaxed) ? 3 : 1;
  }
  return 0;
}

} /* extern "C" */

namespace lol::codegen {

// Bridges one PE of generated C onto an ExecContext. The lolrt_pe is
// constructed before setjmp and only read after the longjmp returns; the
// stored failure is rethrown as the exception type the launcher's
// status classification expects.
void run_native_pe(lolrt_main_fn fn, lol::rt::ExecContext& ctx) {
  lolrt_pe pe_ctx;
  pe_ctx.ctx = &ctx;
  if (setjmp(pe_ctx.jb) == 0) {
    fn(&pe_ctx);
  }
  if (pe_ctx.failed) {
    if (pe_ctx.step_limited) {
      throw lol::support::StepLimitError(ctx.max_steps);
    }
    if (pe_ctx.pe_killed) {
      throw lol::support::PeKilledError(
          ctx.pe->id(), static_cast<std::uint64_t>(pe_ctx.killed_step));
    }
    throw lol::support::RuntimeError(pe_ctx.err);
  }
}

}  // namespace lol::codegen
