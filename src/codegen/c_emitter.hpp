// Source-to-source translation: parallel LOLCODE -> C99.
//
// This is the artifact the paper actually describes (§II): `lcc`
// translates LOLCODE with the parallel extensions into C against an
// OpenSHMEM-shaped runtime, and the host C compiler produces the final
// executable. Our generated C targets the `lolrt_c.h` extern-"C" API
// (backed by the same shmem substrate the interpreter and VM use), with
// one twist that keeps single-process SPMD sound: all program state lives
// in a per-PE context struct rather than in C globals, so N PEs can run
// as N threads of one process exactly like `coprsh -np N` runs them on
// the Epiphany.
#pragma once

#include <string>

#include "ast/ast.hpp"
#include "sema/analyzer.hpp"

namespace lol::codegen {

/// Options controlling emission.
struct EmitOptions {
  std::string source_name = "<input>";  // for the banner comment
};

/// Emits a self-contained C translation unit. The result defines
/// `void lol_user_main(lolrt_pe* pe)`, any user functions and a `main`
/// calling lolrt_run_main, and can be
/// compiled with any C99 compiler given lolrt_c.h on the include path.
/// Throws support::SemaError for constructs that cannot be lowered.
std::string emit_c(const ast::Program& program,
                   const sema::Analysis& analysis,
                   const EmitOptions& opts = {});

}  // namespace lol::codegen
