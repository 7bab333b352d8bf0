// AST -> bytecode compiler.
#pragma once

#include <memory>
#include <mutex>

#include "ast/ast.hpp"
#include "sema/analyzer.hpp"
#include "vm/chunk.hpp"

namespace lol::vm {

/// Compiles an analyzed program to a chunk. Throws support::SemaError for
/// constructs the compiler can reject statically.
Chunk compile_program(const ast::Program& program,
                      const sema::Analysis& analysis);

/// Backend::kVm memo on a CompiledProgram (mirrored by codegen::JitSlot):
/// the chunk is compiled on the first VM run and shared read-only by
/// every later run, so warm service jobs stop re-running compile_program
/// per submission. The mutex serializes the first build between service
/// workers sharing one cached program.
struct VmSlot {
  std::mutex m;
  std::shared_ptr<const Chunk> chunk;
};

}  // namespace lol::vm
