// Backend::kJit: the bytecode VM with its hot loops in machine code.
//
// A JitProgram is the VM's chunk plus x86-64 for the chunk's
// type-specialized regions (jit_emitter.hpp), emitted in-process into
// W^X pages — a cold compile is the analysis, the emitter and one
// mmap/mprotect, with no host toolchain. The program keeps a copy of the
// chunk in which each region's first instruction is Op::kRegion, and runs
// every PE on the ordinary vm::Vm over that copy: the dispatch loop
// enters a region's code when it reaches it and resumes at whatever pc
// the region exits or deopts to. Everything outside the regions is the
// VM's own code, so output, step budgets, deadlines, abort, replay
// scheduling and fault injection match the VM by construction.
//
// Availability: x86-64 + POSIX mmap, a kernel that allows the W^X
// RW->RX flip, and LOL_JIT != 0. When unavailable the engine runs the
// plain VM instead.
#pragma once

#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "codegen/jit_emitter.hpp"
#include "codegen/jit_memory.hpp"
#include "vm/chunk.hpp"

namespace lol::rt {
struct ExecContext;
}

namespace lol::codegen {

/// True when Backend::kJit can execute here. Memoized after first call.
bool jit_available();

/// One program's emitted machine code plus the patched chunk the VM runs
/// it from. Immutable and shareable across concurrent runs — all mutable
/// state lives in the per-PE Vm and region environment built by run_pe.
class JitProgram {
 public:
  JitProgram(const JitProgram&) = delete;
  JitProgram& operator=(const JitProgram&) = delete;

  /// Emits (or fetches from the process-wide single-flight cache) the
  /// machine code for `chunk`. Keyed by the chunk's serialized bytes, so
  /// N concurrent cold misses on one program emit exactly once. Returns
  /// null and fills `error` when the JIT is unavailable or mapping the
  /// code fails.
  static std::shared_ptr<const JitProgram> get_or_build(
      std::shared_ptr<const vm::Chunk> chunk, std::string* error);

  /// Runs one PE on the VM with this program's regions installed.
  void run_pe(rt::ExecContext& ctx) const;

  /// Bytes of sealed executable code (compile-cache accounting).
  [[nodiscard]] std::size_t code_bytes() const { return mem_.size(); }

  /// What the emitter produced (specialized-region coverage).
  [[nodiscard]] const JitEmitInfo& emit_info() const { return info_; }

 private:
  JitProgram() = default;
  friend class PeRegions;

  vm::Chunk patched_;               // the chunk with Op::kRegion installed
  std::vector<vm::Instr> displaced_;  // what each kRegion replaced
  ExecMem mem_;
  JitEmitInfo info_;
};

/// Per-CompiledProgram memo mirroring VmSlot: filled under its
/// own lock on the first Backend::kJit run so warm runs skip the cache
/// key serialization.
struct JitSlot {
  std::mutex m;
  std::shared_ptr<const JitProgram> prog;
};

}  // namespace lol::codegen
