// Runs one PE of lcc-generated code on an engine-owned ExecContext: the
// launcher every `lcc` executable's lolrt_run_main calls once per PE.
#pragma once

#include "codegen/lolrt_c.h"

namespace lol::rt {
struct ExecContext;
}

namespace lol::codegen {

/// Runs one PE of a generated program against the shared ExecContext,
/// translating the lolrt longjmp error discipline back into the engine's
/// exceptions (support::StepLimitError / support::RuntimeError). Defined
/// in lolrt_c.cpp, which owns the lolrt_pe internals.
void run_native_pe(lolrt_main_fn fn, rt::ExecContext& ctx);

/// Empty; kept only until e2ebench/e2e_bench.cpp stops assigning
/// CompiledProgram::native_slot.
struct NativeSlot {};

}  // namespace lol::codegen
