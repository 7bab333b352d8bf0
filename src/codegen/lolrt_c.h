/* lolrt_c.h — the C runtime API for lcc-generated code.
 *
 * This plays the role OpenSHMEM + libc play in the paper's toolchain: the
 * LOLCODE compiler translates source to C that calls only this interface,
 * and any C99 compiler produces the final executable. The implementation
 * (lolrt_c.cpp) is backed by the same shmem substrate, value model and IO
 * plumbing the interpreter and VM use, so all three backends share one
 * semantics.
 *
 * Error model: runtime errors (bad casts, out-of-range PEs, lock misuse)
 * do not return; they record a message and longjmp back to the launcher,
 * which aborts the SPMD job like a failing PE would.
 *
 * SPMD model: `lolrt_run_main` launches N PEs (threads) over one process;
 * the generated program keeps all its state in a per-PE struct handed
 * around via lolrt_set_user/lolrt_user, so PEs never share C globals.
 */
#ifndef LOLRT_C_H
#define LOLRT_C_H

#include <stddef.h>

#ifdef __cplusplus
extern "C" {
#endif

typedef struct lolrt_pe lolrt_pe;

/* A dynamically typed LOLCODE value. YARN payloads live in a per-PE
 * arena owned by the runtime; user code never frees them. */
typedef struct lolv {
  int t; /* LOLV_* type tag */
  long long i;
  double f;
  const char* s;
} lolv;

enum {
  LOLV_NOOB = 0,
  LOLV_TROOF = 1,
  LOLV_NUMBR = 2,
  LOLV_NUMBAR = 3,
  LOLV_YARN = 4
};

/* Operator codes: values match lol::ast::BinOp / UnOp / NaryOp order. */
enum {
  LOLRT_BIN_SUM = 0,
  LOLRT_BIN_DIFF = 1,
  LOLRT_BIN_PRODUKT = 2,
  LOLRT_BIN_QUOSHUNT = 3,
  LOLRT_BIN_MOD = 4,
  LOLRT_BIN_BIGGR = 5,
  LOLRT_BIN_SMALLR = 6,
  LOLRT_BIN_SAEM = 7,
  LOLRT_BIN_DIFFRINT = 8,
  LOLRT_BIN_BIGGER = 9,
  LOLRT_BIN_SMALLR_CMP = 10,
  LOLRT_BIN_BOTH = 11,
  LOLRT_BIN_EITHER = 12,
  LOLRT_BIN_WON = 13
};
enum {
  LOLRT_UN_NOT = 0,
  LOLRT_UN_SQUAR = 1,
  LOLRT_UN_UNSQUAR = 2,
  LOLRT_UN_FLIP = 3
};
enum { LOLRT_NARY_ALL = 0, LOLRT_NARY_ANY = 1, LOLRT_NARY_SMOOSH = 2 };

/* -- value constructors ---------------------------------------------------- */
lolv lolrt_noob(void);
lolv lolrt_troof(long long b);
lolv lolrt_numbr(long long v);
lolv lolrt_numbar(double v);
lolv lolrt_yarn(lolrt_pe* pe, const char* s);

/* -- operators and casts ----------------------------------------------------- */
lolv lolrt_binary(lolrt_pe* pe, int op, lolv a, lolv b);
lolv lolrt_unary(lolrt_pe* pe, int op, lolv a);
lolv lolrt_nary(lolrt_pe* pe, int op, int n, const lolv* xs);
lolv lolrt_cast(lolrt_pe* pe, lolv v, int type, int is_explicit);
long long lolrt_truthy(lolv v);
long long lolrt_to_i64(lolrt_pe* pe, lolv v);
double lolrt_to_f64(lolrt_pe* pe, lolv v);
const char* lolrt_to_str(lolrt_pe* pe, lolv v);
long long lolrt_saem(lolv a, lolv b);

/* -- checked native math (fast paths for SRSLY-typed code) ------------------- */
long long lolrt_idiv(lolrt_pe* pe, long long a, long long b);
long long lolrt_imod(lolrt_pe* pe, long long a, long long b);
double lolrt_fdiv(lolrt_pe* pe, double a, double b);
double lolrt_fmod2(lolrt_pe* pe, double a, double b);
double lolrt_sqrt2(lolrt_pe* pe, double x);  /* errors on negative */
double lolrt_flip2(lolrt_pe* pe, double x);  /* errors on zero */

/* -- IO ----------------------------------------------------------------------- */
void lolrt_visible(lolrt_pe* pe, int n, const lolv* xs, int newline,
                   int to_stderr);
lolv lolrt_gimmeh(lolrt_pe* pe);

/* -- cooperative step budget / abort poll -------------------------------------- */
/* Charges one execution step. The generated code calls this once per
 * statement and once per loop iteration, mirroring how the interpreter
 * charges rt::ExecContext::count_step — so `--max-steps` budgets and
 * aborts (a failing peer PE) behave as on the interpreter. Does not
 * return when the budget is exhausted or an abort
 * is pending: the condition is recorded and control longjmps back to the
 * launcher, which reports a step-limit or abort failure for this PE. */
void lolrt_step(lolrt_pe* pe);

/* -- call depth ---------------------------------------------------------------- */
/* Bracket every generated function body: enter on entry, leave before each
 * return. An enter past the VM's frame limit (2000, main's included) fails
 * the PE with the VM's "call depth exceeded" error instead of overflowing
 * its machine stack. */
void lolrt_call_enter(lolrt_pe* pe);
void lolrt_call_leave(lolrt_pe* pe);

/* -- SPMD / PGAS (the paper's Table II surface) ------------------------------- */
long long lolrt_me(lolrt_pe* pe);      /* ME */
long long lolrt_n_pes(lolrt_pe* pe);   /* MAH FRENZ */
void lolrt_hugz(lolrt_pe* pe);         /* HUGZ barrier */
long long lolrt_whatevr(lolrt_pe* pe); /* WHATEVR */
double lolrt_whatevar(lolrt_pe* pe);   /* WHATEVAR */

void lolrt_lock(lolrt_pe* pe, int lock_id);     /* IM SRSLY MESIN WIF */
long long lolrt_trylock(lolrt_pe* pe, int lock_id); /* IM MESIN WIF */
void lolrt_unlock(lolrt_pe* pe, int lock_id);   /* DUN MESIN WIF */

/* Symmetric allocation: collective; `slots` 8-byte elements. */
size_t lolrt_shmalloc(lolrt_pe* pe, long long slots);

/* Element access. `remote` != 0 targets the current TXT MAH BFF PE.
 * `elem` is a LOLV_* tag (NUMBR, NUMBAR or TROOF). */
lolv lolrt_sym_load(lolrt_pe* pe, size_t off, long long count, int elem,
                    long long idx, int remote);
void lolrt_sym_store(lolrt_pe* pe, size_t off, long long count, int elem,
                     long long idx, int remote, lolv v);
double lolrt_sym_load_f64(lolrt_pe* pe, size_t off, long long count,
                          long long idx, int remote);
void lolrt_sym_store_f64(lolrt_pe* pe, size_t off, long long count,
                         long long idx, int remote, double v);
long long lolrt_sym_load_i64(lolrt_pe* pe, size_t off, long long count,
                             long long idx, int remote);
void lolrt_sym_store_i64(lolrt_pe* pe, size_t off, long long count,
                         long long idx, int remote, long long v);

/* Whole-array symmetric copy (paper §VI.A ring example). */
void lolrt_sym_copy(lolrt_pe* pe, size_t dst_off, int dst_remote,
                    size_t src_off, int src_remote, long long slots);

/* Thread predication (TXT MAH BFF ... / TTYL). */
void lolrt_bff_push(lolrt_pe* pe, long long target);
void lolrt_bff_pop(lolrt_pe* pe, int n);
long long lolrt_bff_depth(lolrt_pe* pe);
void lolrt_bff_reset(lolrt_pe* pe, long long depth);

/* -- memory, user state, errors ---------------------------------------------- */
void* lolrt_alloc(lolrt_pe* pe, size_t bytes); /* zeroed; freed at PE end */
long long lolrt_idx(lolrt_pe* pe, long long idx, long long n);
void lolrt_arr_fill(lolrt_pe* pe, lolv* arr, long long n, int elem);
void lolrt_set_user(lolrt_pe* pe, void* p);
void* lolrt_user(lolrt_pe* pe);
void lolrt_fail(lolrt_pe* pe, const char* msg);

/* -- launcher ------------------------------------------------------------------ */
typedef void (*lolrt_main_fn)(lolrt_pe* pe);

/* Parses `-np N` (default 1), `--seed S`, `--heap-bytes BYTES`,
 * `--max-steps S` (per-PE step budget, 0 = unlimited) — lolrun's
 * spellings, from its knob table — and `--tag` from argv, launches `fn`
 * SPMD, streams VISIBLE output to stdout/stderr and reads GIMMEH from the
 * real stdin. Exit status is classified so callers can tell failure modes
 * apart, mirroring JobStatus in the service layer:
 *   0  every PE ran to completion
 *   1  a PE raised a runtime error
 *   2  bad usage
 *   3  a PE exhausted its `--max-steps` budget (step-limited)          */
int lolrt_run_main(int argc, char** argv, lolrt_main_fn fn, int n_locks);

#ifdef __cplusplus
} /* extern "C" */
#endif

#endif /* LOLRT_C_H */
