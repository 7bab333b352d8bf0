// Lowers the type-specialized regions of a VM bytecode chunk to x86-64.
//
// The analysis (jit_analysis.hpp) finds pc ranges whose ops provably work
// on NUMBR/NUMBAR/TROOF payloads. This emitter compiles each one to raw
// machine arithmetic with the virtual stack and hot locals held in
// registers — no Value boxing, no helper call per op. Everything else
// stays bytecode: the VM's dispatch loop runs it, and enters a region
// when it reaches the region's first pc (Op::kRegion, vm/vm.hpp).
//
// One code object holds a shared frame and every region:
//   - entry (offset 0, JitEntryFn) saves the callee-saved registers and
//     jumps to the region code it was passed;
//   - a region's guards prove the types it assumed; a failure deopts,
//     returning RegionHost::kDeopt with nothing changed;
//   - the body charges steps in per-basic-block batches against a fuel
//     counter, so budgets, abort polls, fault steps and replay schedules
//     stay VM-exact (see emit_seg_check);
//   - every exit stub materializes live registers onto the VM stack,
//     writes dirty locals back to their cells and returns the pc the VM
//     resumes at;
//   - bail returns kJitThrew after a runtime helper parked an exception.
//
// ABI and register plan (SysV x86-64):
//   rbx — the vm::Vm* for this PE (callee-saved, survives helper calls)
//   r12 — rsp snapshot from the prologue; the epilogue restores it, which
//         discards the slow-path thunk's frame when a helper threw
//   r13 — the JitSpecEnv* (step counters, PE identity, spill bank)
//   r14 — step fuel: inline-chargeable steps left before the next
//         jit_spec_slow() call must re-derive the budget
//   r15/rbp — register homes for the two hottest integer locals in a
//         region (assigned by the linear scan)
//   r8-r11 / xmm0-xmm3 — virtual-stack registers, relative depth 0-3
//
// Helpers return <0 after catching a C++ exception (stashed in a
// thread-local, rethrown by jit_backend.cpp); every call site tests the
// sign and bails. Emitted frames contain no destructors, so skipping
// them is sanitizer-clean.
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <string>
#include <vector>

#include "vm/chunk.hpp"

namespace lol::vm {
class Vm;
}
namespace lol::rt {
struct ExecContext;
}

namespace lol::codegen {

namespace detail {
/// The exception a helper caught on this thread, awaiting rethrow.
std::exception_ptr& jit_pending();
}  // namespace detail

/// Per-run environment the emitted code keeps in r13. The backend fills
/// one per PE; the spill bank (one quad per virtual-stack slot and per
/// tracked local, jit_analysis.hpp) follows the struct in the same
/// allocation at kJitEnvBankOffset. Field offsets are baked into emitted
/// displacements.
struct JitSpecEnv {
  rt::ExecContext* ctx = nullptr;  // @0  step/abort/fault counters
  std::int64_t me = 0;             // @8  PE id (kMe without a helper)
  std::int64_t n_pes = 0;          // @16 gang size (kMahFrenz)
  std::uint64_t spec_ops = 0;      // @24 ops retired by region code
  std::uint64_t deopts = 0;        // @32 region-entry guard failures
  std::uint64_t reserved = 0;      // @40 keeps the bank 16-byte aligned
};
inline constexpr std::size_t kJitEnvBankOffset = 48;
static_assert(sizeof(JitSpecEnv) == kJitEnvBankOffset);

/// Upper bound on bank quads any region may need (8 virtual-stack slots
/// + tracked locals, capped in jit_analysis.cpp). The backend sizes the
/// env allocation with this so emitted displacements can never overrun.
inline constexpr std::size_t kJitSpecMaxBank = 40;

/// Entry point at offset 0 of the emitted code: runs the region whose
/// code starts at `region`, returning the pc to resume at,
/// vm::RegionHost::kDeopt, or kJitThrew.
using JitEntryFn = std::int64_t (*)(vm::Vm*, JitSpecEnv*,
                                    const void* region);

/// JitEntryFn result: a helper parked an exception in jit_pending().
inline constexpr std::int64_t kJitThrew = -2;

/// Addresses of the regions' runtime calls (jit_runtime.cpp), embedded
/// as movabs immediates. A negative status (or, for jit_spec_slow, a
/// negative fuel) means "exception parked, bail".
struct JitSpecHelpers {
  std::uint64_t slow = 0;       // i64(Vm*, JitSpecEnv*, i64 k) -> fuel
  std::uint64_t guard = 0;      // i32(Vm*, i32 slot, i32 kind, i64* bank)
  std::uint64_t arr_load_i = 0; // {i64 status, i64 v}(Vm*, i32 slot,
                                //   i64 idx, i32 remote)
  std::uint64_t arr_load_d = 0; // {i64 status, f64 v}(same)
  std::uint64_t arr_store_i = 0;// i32(Vm*, i32 slot, i64 idx, i64 v)
  std::uint64_t arr_store_d = 0;// i32(Vm*, i32 slot, i64 idx, f64 v)
  std::uint64_t push = 0;       // i32(Vm*, i64 bits, i32 type)
  std::uint64_t wb_store = 0;   // i32(Vm*, i32 slot, i64 bits, i32 type)
  std::uint64_t wb_decl = 0;    // i32(Vm*, i32 decl, i64 bits, i32 type)
  std::uint64_t wb_unbind = 0;  // i32(Vm*, i32 slot)
  std::uint64_t wb_it = 0;      // i32(Vm*, i64 bits, i32 type)
  std::uint64_t bff_push = 0;   // i32(Vm*, i64 target)
  std::uint64_t bff_pop = 0;    // void(Vm*, i32 levels)
  std::uint64_t unary_throw = 0;// i32(i32 op, f64 x): always parks
};
const JitSpecHelpers& jit_spec_helpers();

/// Where one region's machine code is entered.
struct JitRegionEntry {
  std::size_t lo = 0;      // first bytecode pc of the region
  std::size_t offset = 0;  // code offset of its guarded entry
};

struct JitEmitInfo {
  std::int32_t bank_slots = 0;   // env bank quads the code needs
  std::uint64_t regions = 0;     // specialized regions emitted
  std::uint64_t spec_pcs = 0;    // bytecode pcs covered by those regions
  std::vector<JitRegionEntry> entries;  // one per region, ascending lo
};

/// Emits position-independent x86-64 for the regions of `chunk` and
/// fills `info`. `dump`, when set, receives the annotated region listing.
std::vector<std::uint8_t> emit_chunk_x86_64(const vm::Chunk& chunk,
                                            JitEmitInfo* info,
                                            std::string* dump);

/// Deterministic binary serialization of a chunk, used as the JIT code
/// cache key: identical bytecode => identical key => one emitted program.
std::string chunk_cache_key(const vm::Chunk& chunk);

}  // namespace lol::codegen
