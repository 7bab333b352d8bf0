#include "codegen/jit_emitter.hpp"

#include <cstddef>
#include <cstdio>
#include <cstring>

#include "codegen/jit_analysis.hpp"
#include "rt/exec_context.hpp"
#include "vm/vm.hpp"

namespace lol::codegen {

namespace {

using vm::Op;

// ExecContext counter offsets baked into the step-batch code. The struct
// is standard-layout (all public, no virtuals), so offsetof is defined.
constexpr std::int32_t kCtxStepsLeft =
    static_cast<std::int32_t>(offsetof(rt::ExecContext, steps_left));
constexpr std::int32_t kCtxAbortCountdown =
    static_cast<std::int32_t>(offsetof(rt::ExecContext, abort_countdown));
constexpr std::int32_t kCtxStepsDone =
    static_cast<std::int32_t>(offsetof(rt::ExecContext, steps_done));

/// Append-only byte buffer with little-endian immediates and rel32
/// back-patching.
struct CodeBuf {
  std::vector<std::uint8_t> b;

  void u8(std::uint8_t x) { b.push_back(x); }
  void u32(std::uint32_t x) {
    for (int i = 0; i < 4; ++i) b.push_back((x >> (8 * i)) & 0xFF);
  }
  void u64(std::uint64_t x) {
    for (int i = 0; i < 8; ++i) b.push_back((x >> (8 * i)) & 0xFF);
  }
  [[nodiscard]] std::size_t size() const { return b.size(); }
  void patch32(std::size_t off, std::uint32_t x) {
    for (int i = 0; i < 4; ++i) b[off + i] = (x >> (8 * i)) & 0xFF;
  }
};

class Emitter {
 public:
  explicit Emitter(const vm::Chunk& chunk) : chunk_(chunk) {}

  std::vector<std::uint8_t> emit(JitEmitInfo* info, std::string* dump) {
    plan_ = analyze_chunk(chunk_);
    // Defensive: the analysis caps its bank well under the env
    // allocation, but never emit displacements past it.
    std::erase_if(plan_.regions, [](const RegionPlan& r) {
      return r.bank_slots > static_cast<std::int32_t>(kJitSpecMaxBank);
    });

    emit_frame();
    emit_thunk();
    info->bank_slots = plan_.bank_slots;
    info->regions = plan_.regions.size();
    region_code_.assign(plan_.regions.size(), {0, 0});
    for (std::size_t ri = 0; ri < plan_.regions.size(); ++ri) {
      const RegionPlan& r = plan_.regions[ri];
      region_code_[ri].first = buf_.size();
      info->entries.push_back({r.lo, emit_region(r)});
      region_code_[ri].second = buf_.size();
      info->spec_pcs += r.hi - r.lo;
    }
    if (dump != nullptr) append_dump(*dump);
    return std::move(buf_.b);
  }

 private:
  /// The frame every region runs in. Entry (offset 0, JitEntryFn): save
  /// the callee-saved registers, align rsp to 16 (entry has rsp % 16 ==
  /// 8 from the caller's call; six pushes keep it at 8), park Vm* in
  /// rbx, the JitSpecEnv* in r13 and the aligned rsp in r12, and jump to
  /// the region code passed in rdx. Bail sets the kJitThrew result and
  /// falls into the epilogue, which restores the prologue rsp —
  /// discarding the destructor-free thunk frame a failed helper may have
  /// left — and the callee-saved registers.
  void emit_frame() {
    buf_.u8(0x53);                            // push rbx
    buf_.u8(0x41); buf_.u8(0x54);             // push r12
    buf_.u8(0x41); buf_.u8(0x55);             // push r13
    buf_.u8(0x41); buf_.u8(0x56);             // push r14
    buf_.u8(0x41); buf_.u8(0x57);             // push r15
    buf_.u8(0x55);                            // push rbp
    buf_.u8(0x48); buf_.u8(0x83); buf_.u8(0xEC); buf_.u8(0x08);  // sub rsp,8
    buf_.u8(0x48); buf_.u8(0x89); buf_.u8(0xFB);                 // mov rbx,rdi
    buf_.u8(0x49); buf_.u8(0x89); buf_.u8(0xF5);                 // mov r13,rsi
    buf_.u8(0x49); buf_.u8(0x89); buf_.u8(0xE4);                 // mov r12,rsp
    buf_.u8(0xFF); buf_.u8(0xE2);                                // jmp rdx

    bail_off_ = buf_.size();
    mov_rax_imm32(kJitThrew);
    epilogue_off_ = buf_.size();
    buf_.u8(0x4C); buf_.u8(0x89); buf_.u8(0xE4);                 // mov rsp,r12
    buf_.u8(0x48); buf_.u8(0x83); buf_.u8(0xC4); buf_.u8(0x08);  // add rsp,8
    buf_.u8(0x5D);                                               // pop rbp
    buf_.u8(0x41); buf_.u8(0x5F);                                // pop r15
    buf_.u8(0x41); buf_.u8(0x5E);                                // pop r14
    buf_.u8(0x41); buf_.u8(0x5D);                                // pop r13
    buf_.u8(0x41); buf_.u8(0x5C);                                // pop r12
    buf_.u8(0x5B);                                               // pop rbx
    buf_.u8(0xC3);                                               // ret
  }

  /// Returns `result` to the dispatch loop: a resume pc, or kDeopt.
  void ret_to_vm(std::int64_t result) {
    mov_rax_imm32(result);
    jmp_to(epilogue_off_);
  }

  // ---- encoding primitives ---------------------------------------------
  //
  // Register numbering is the x86 one: rax=0 rcx=1 rdx=2 rbx=3 rsp=4
  // rbp=5 rsi=6 rdi=7 r8..r15=8..15. Virtual-stack homes are r8+d /
  // xmm-d for relative depth d < kVstackRegDepth, bank quad d beyond.

  [[nodiscard]] static std::int32_t bank_disp(std::int32_t slot) {
    return static_cast<std::int32_t>(kJitEnvBankOffset) + 8 * slot;
  }

  /// ModRM (+disp) for [r13 + disp] with the given /reg field. r13's
  /// rm encoding (101) mandates an explicit displacement.
  void modrm_r13(int reg3, std::int32_t disp) {
    if (disp >= -128 && disp <= 127) {
      buf_.u8(static_cast<std::uint8_t>(0x40 | (reg3 << 3) | 5));
      buf_.u8(static_cast<std::uint8_t>(disp));
    } else {
      buf_.u8(static_cast<std::uint8_t>(0x80 | (reg3 << 3) | 5));
      buf_.u32(static_cast<std::uint32_t>(disp));
    }
  }

  void mov_r_m13(int reg, std::int32_t disp) {  // mov reg64, [r13+disp]
    buf_.u8(static_cast<std::uint8_t>(0x48 | (reg >= 8 ? 4 : 0) | 1));
    buf_.u8(0x8B);
    modrm_r13(reg & 7, disp);
  }

  void mov_m13_r(int reg, std::int32_t disp) {  // mov [r13+disp], reg64
    buf_.u8(static_cast<std::uint8_t>(0x48 | (reg >= 8 ? 4 : 0) | 1));
    buf_.u8(0x89);
    modrm_r13(reg & 7, disp);
  }

  void movsd_x_m13(int x, std::int32_t disp) {  // movsd xmm, [r13+disp]
    buf_.u8(0xF2); buf_.u8(0x41); buf_.u8(0x0F); buf_.u8(0x10);
    modrm_r13(x, disp);
  }

  void movsd_m13_x(int x, std::int32_t disp) {  // movsd [r13+disp], xmm
    buf_.u8(0xF2); buf_.u8(0x41); buf_.u8(0x0F); buf_.u8(0x11);
    modrm_r13(x, disp);
  }

  void mov_rr(int dst, int src) {  // mov dst64, src64
    buf_.u8(static_cast<std::uint8_t>(0x48 | (src >= 8 ? 4 : 0) |
                                      (dst >= 8 ? 1 : 0)));
    buf_.u8(0x89);
    buf_.u8(static_cast<std::uint8_t>(0xC0 | ((src & 7) << 3) | (dst & 7)));
  }

  void movsd_xx(int dst, int src) {  // movsd xmm_dst, xmm_src (both < 8)
    buf_.u8(0xF2); buf_.u8(0x0F); buf_.u8(0x10);
    buf_.u8(static_cast<std::uint8_t>(0xC0 | (dst << 3) | src));
  }

  /// Classic /r ALU op, reg=src rm=dst: 01 add, 29 sub, 21 and, 09 or,
  /// 31 xor, 39 cmp, 85 test.
  void alu_rr(std::uint8_t opc, int dst, int src) {
    buf_.u8(static_cast<std::uint8_t>(0x48 | (src >= 8 ? 4 : 0) |
                                      (dst >= 8 ? 1 : 0)));
    buf_.u8(opc);
    buf_.u8(static_cast<std::uint8_t>(0xC0 | ((src & 7) << 3) | (dst & 7)));
  }

  void test_rr(int reg) { alu_rr(0x85, reg, reg); }

  void imul_rr(int dst, int src) {  // imul dst64, src64 (reg=dst rm=src)
    buf_.u8(static_cast<std::uint8_t>(0x48 | (dst >= 8 ? 4 : 0) |
                                      (src >= 8 ? 1 : 0)));
    buf_.u8(0x0F); buf_.u8(0xAF);
    buf_.u8(static_cast<std::uint8_t>(0xC0 | ((dst & 7) << 3) | (src & 7)));
  }

  void cmov_rr(std::uint8_t cc, int dst, int src) {  // cmovcc dst, src
    buf_.u8(static_cast<std::uint8_t>(0x48 | (dst >= 8 ? 4 : 0) |
                                      (src >= 8 ? 1 : 0)));
    buf_.u8(0x0F); buf_.u8(cc);
    buf_.u8(static_cast<std::uint8_t>(0xC0 | ((dst & 7) << 3) | (src & 7)));
  }

  /// setcc reg8 then zero-extend to 64 bits. Only rax/rcx and r8-r11
  /// ever receive flags (never rbp/rsi/rdi, whose no-REX byte forms
  /// would alias ah/ch).
  void setcc_movzx(std::uint8_t cc, int reg) {
    if (reg >= 8) buf_.u8(0x41);
    buf_.u8(0x0F); buf_.u8(cc);
    buf_.u8(static_cast<std::uint8_t>(0xC0 | (reg & 7)));
    buf_.u8(static_cast<std::uint8_t>(0x48 | (reg >= 8 ? 5 : 0)));
    buf_.u8(0x0F); buf_.u8(0xB6);  // movzx reg64, reg8
    buf_.u8(static_cast<std::uint8_t>(0xC0 | ((reg & 7) << 3) | (reg & 7)));
  }

  void alu_imm8(std::uint8_t regfield, int reg, std::int8_t imm) {
    buf_.u8(static_cast<std::uint8_t>(0x48 | (reg >= 8 ? 1 : 0)));
    buf_.u8(0x83);
    buf_.u8(static_cast<std::uint8_t>(0xC0 | (regfield << 3) | (reg & 7)));
    buf_.u8(static_cast<std::uint8_t>(imm));
  }

  void movabs(int reg, std::uint64_t imm) {
    buf_.u8(static_cast<std::uint8_t>(0x48 | (reg >= 8 ? 1 : 0)));
    buf_.u8(static_cast<std::uint8_t>(0xB8 + (reg & 7)));
    buf_.u64(imm);
  }

  void sse_rr(std::uint8_t opc, int dst, int src) {  // F2 0F <opc> (xmm<8)
    buf_.u8(0xF2); buf_.u8(0x0F); buf_.u8(opc);
    buf_.u8(static_cast<std::uint8_t>(0xC0 | (dst << 3) | src));
  }

  void ucomisd(int a, int b) {  // sets CF/ZF from xmm_a ? xmm_b
    buf_.u8(0x66); buf_.u8(0x0F); buf_.u8(0x2E);
    buf_.u8(static_cast<std::uint8_t>(0xC0 | (a << 3) | b));
  }

  void cmpeqsd(int dst, int src) {  // all-ones/zero mask into dst
    buf_.u8(0xF2); buf_.u8(0x0F); buf_.u8(0xC2);
    buf_.u8(static_cast<std::uint8_t>(0xC0 | (dst << 3) | src));
    buf_.u8(0x00);
  }

  void cvtsi2sd(int x, int r) {  // cvtsi2sd xmm, r64
    buf_.u8(0xF2);
    buf_.u8(static_cast<std::uint8_t>(0x48 | (r >= 8 ? 1 : 0)));
    buf_.u8(0x0F); buf_.u8(0x2A);
    buf_.u8(static_cast<std::uint8_t>(0xC0 | (x << 3) | (r & 7)));
  }

  void movq_x_r(int x, int r) {  // movq xmm, r64
    buf_.u8(0x66);
    buf_.u8(static_cast<std::uint8_t>(0x48 | (r >= 8 ? 1 : 0)));
    buf_.u8(0x0F); buf_.u8(0x6E);
    buf_.u8(static_cast<std::uint8_t>(0xC0 | (x << 3) | (r & 7)));
  }

  void movq_r_x(int r, int x) {  // movq r64, xmm
    buf_.u8(0x66);
    buf_.u8(static_cast<std::uint8_t>(0x48 | (r >= 8 ? 1 : 0)));
    buf_.u8(0x0F); buf_.u8(0x7E);
    buf_.u8(static_cast<std::uint8_t>(0xC0 | (x << 3) | (r & 7)));
  }

  /// add (regfield 0) / sub (regfield 5) an immediate to qword
  /// [rax + disp] — the inline step-counter updates.
  void rax_mem_imm(std::uint8_t regfield, std::int32_t disp,
                   std::int32_t k) {
    bool k8 = k >= -128 && k <= 127;
    buf_.u8(0x48);
    buf_.u8(k8 ? 0x83 : 0x81);
    if (disp >= -128 && disp <= 127) {
      buf_.u8(static_cast<std::uint8_t>(0x40 | (regfield << 3)));
      buf_.u8(static_cast<std::uint8_t>(disp));
    } else {
      buf_.u8(static_cast<std::uint8_t>(0x80 | (regfield << 3)));
      buf_.u32(static_cast<std::uint32_t>(disp));
    }
    if (k8) buf_.u8(static_cast<std::uint8_t>(k));
    else buf_.u32(static_cast<std::uint32_t>(k));
  }

  void r13_mem_imm(std::uint8_t regfield, std::int32_t disp,
                   std::int32_t k) {
    bool k8 = k >= -128 && k <= 127;
    buf_.u8(0x49);
    buf_.u8(k8 ? 0x83 : 0x81);
    modrm_r13(regfield, disp);
    if (k8) buf_.u8(static_cast<std::uint8_t>(k));
    else buf_.u32(static_cast<std::uint32_t>(k));
  }

  void spec_call(std::uint64_t addr) {
    movabs(0, addr);               // movabs rax, fn
    buf_.u8(0xFF); buf_.u8(0xD0);  // call rax
  }

  void js_bail() {
    buf_.u8(0x0F); buf_.u8(0x88);  // js rel32 -> bail
    std::size_t at = buf_.size();
    buf_.u32(0);
    patch_rel32(at, bail_off_);
  }

  void jmp_to(std::size_t target) {
    buf_.u8(0xE9);  // jmp rel32
    std::size_t at = buf_.size();
    buf_.u32(0);
    patch_rel32(at, target);
  }

  void mov_rax_imm32(std::int64_t x) {  // mov rax, sign-extended imm32
    buf_.u8(0x48); buf_.u8(0xC7); buf_.u8(0xC0);
    buf_.u32(static_cast<std::uint32_t>(x));
  }

  void patch_rel32(std::size_t at, std::size_t target) {
    buf_.patch32(at, static_cast<std::uint32_t>(
                         static_cast<std::int64_t>(target) -
                         static_cast<std::int64_t>(at + 4)));
  }

  /// Operand fetch: the GPR holding virtual-stack depth d, loading a
  /// bank-resident entry into `scratch` (rax/rcx) first.
  int gpr_operand(std::size_t d, int scratch) {
    if (d < kVstackRegDepth) return 8 + static_cast<int>(d);
    mov_r_m13(scratch, bank_disp(static_cast<std::int32_t>(d)));
    return scratch;
  }

  void gpr_store_back(std::size_t d, int reg) {
    if (d >= kVstackRegDepth) {
      mov_m13_r(reg, bank_disp(static_cast<std::int32_t>(d)));
    }
  }

  int xmm_operand(std::size_t d, int scratch) {
    if (d < kVstackRegDepth) return static_cast<int>(d);
    movsd_x_m13(scratch, bank_disp(static_cast<std::int32_t>(d)));
    return scratch;
  }

  void xmm_store_back(std::size_t d, int x) {
    if (d >= kVstackRegDepth) {
      movsd_m13_x(x, bank_disp(static_cast<std::int32_t>(d)));
    }
  }

  // ---- region layout ---------------------------------------------------

  /// The shared slow-path thunk behind every segment check. Caller-saved
  /// virtual-stack registers are preserved around jit_spec_slow (the
  /// callee-saved local homes survive on their own); eax carries the
  /// segment's step count in, rax the fresh fuel out. Entered by a call
  /// from region code (rsp % 16 == 0): ret addr + 4 pushes leave rsp at 8,
  /// sub 40 re-aligns for the C call.
  void emit_thunk() {
    const JitSpecHelpers& h = jit_spec_helpers();
    thunk_off_ = buf_.size();
    buf_.u8(0x41); buf_.u8(0x50);  // push r8
    buf_.u8(0x41); buf_.u8(0x51);  // push r9
    buf_.u8(0x41); buf_.u8(0x52);  // push r10
    buf_.u8(0x41); buf_.u8(0x53);  // push r11
    buf_.u8(0x48); buf_.u8(0x83); buf_.u8(0xEC); buf_.u8(0x28);  // sub rsp,40
    for (int x = 0; x < 4; ++x) {  // movsd [rsp+8x], xmm_x
      buf_.u8(0xF2); buf_.u8(0x0F); buf_.u8(0x11);
      if (x == 0) {
        buf_.u8(0x04); buf_.u8(0x24);
      } else {
        buf_.u8(static_cast<std::uint8_t>(0x44 | (x << 3)));
        buf_.u8(0x24);
        buf_.u8(static_cast<std::uint8_t>(8 * x));
      }
    }
    buf_.u8(0x48); buf_.u8(0x89); buf_.u8(0xDF);  // mov rdi,rbx
    buf_.u8(0x4C); buf_.u8(0x89); buf_.u8(0xEE);  // mov rsi,r13
    buf_.u8(0x89); buf_.u8(0xC2);                 // mov edx,eax
    spec_call(h.slow);
    buf_.u8(0x48); buf_.u8(0x85); buf_.u8(0xC0);  // test rax,rax
    js_bail();                     // parked exception (the epilogue
                                   // discards this frame via r12)
    buf_.u8(0x49); buf_.u8(0x89); buf_.u8(0xC6);  // mov r14,rax
    for (int x = 0; x < 4; ++x) {  // movsd xmm_x, [rsp+8x]
      buf_.u8(0xF2); buf_.u8(0x0F); buf_.u8(0x10);
      if (x == 0) {
        buf_.u8(0x04); buf_.u8(0x24);
      } else {
        buf_.u8(static_cast<std::uint8_t>(0x44 | (x << 3)));
        buf_.u8(0x24);
        buf_.u8(static_cast<std::uint8_t>(8 * x));
      }
    }
    buf_.u8(0x48); buf_.u8(0x83); buf_.u8(0xC4); buf_.u8(0x28);  // add rsp,40
    buf_.u8(0x41); buf_.u8(0x5B);  // pop r11
    buf_.u8(0x41); buf_.u8(0x5A);  // pop r10
    buf_.u8(0x41); buf_.u8(0x59);  // pop r9
    buf_.u8(0x41); buf_.u8(0x58);  // pop r8
    buf_.u8(0xC3);                 // ret
  }

  /// One basic block's batched step charge: decrement the fuel by the
  /// block's op count; on underflow the slow stub re-derives the budget
  /// through ctx.count_step() (exact throw indices, abort polls, fiber
  /// preemption); otherwise bump the context counters inline. steps_left
  /// is adjusted unconditionally — the VM only reads it when max_steps
  /// is set, and jit_spec_slow caps fuel by it in that case, so the
  /// inline path can never drive it negative when it matters.
  void emit_seg_check(std::int32_t k) {
    bool k8 = k <= 127;
    buf_.u8(0x49);
    buf_.u8(k8 ? 0x83 : 0x81);
    buf_.u8(0xEE);  // sub r14, k
    if (k8) buf_.u8(static_cast<std::uint8_t>(k));
    else buf_.u32(static_cast<std::uint32_t>(k));
    buf_.u8(0x0F); buf_.u8(0x8C);  // jl rel32 -> slow stub
    std::size_t jl_at = buf_.size();
    buf_.u32(0);
    buf_.u8(0x49); buf_.u8(0x8B); buf_.u8(0x45); buf_.u8(0x00);  // mov rax,[r13]
    rax_mem_imm(0, kCtxStepsDone, k);
    rax_mem_imm(5, kCtxStepsLeft, k);
    rax_mem_imm(5, kCtxAbortCountdown, k);
    r13_mem_imm(0, 24, k);  // env->spec_ops += k
    seg_recs_.push_back({jl_at, buf_.size(), k});
  }

  /// The rel32 of an in-region jump: to another specialized pc, or to
  /// this op's exit stub when the analysis routed the edge out.
  void route_spec_jump(const RegionPlan& r, std::size_t pc,
                       std::size_t target) {
    std::size_t at = buf_.size();
    buf_.u32(0);
    if (const SpecExit* e = r.exit_at(pc)) {
      exit_fix_.push_back(
          {at, static_cast<std::size_t>(e - r.exits.data())});
    } else {
      reg_fix_.push_back({at, target});  // the analysis kept it internal
    }
  }

  /// Emits one region; returns the offset of its guarded entry.
  std::size_t emit_region(const RegionPlan& r) {
    const JitSpecHelpers& h = jit_spec_helpers();
    reg_fix_.clear();
    exit_fix_.clear();
    seg_recs_.clear();
    throw_recs_.clear();

    // Deopt: count it and hand the displaced instruction back to the VM.
    std::size_t deopt_off = buf_.size();
    buf_.u8(0x49); buf_.u8(0xFF); buf_.u8(0x45); buf_.u8(0x20);  // inc [r13+32]
    ret_to_vm(vm::RegionHost::kDeopt);

    // Entry: fuel starts at zero so the next batch re-derives a budget,
    // then the guards prove every tracked slot's shape and payload type
    // (read-only: a failed guard deopts with zero state to undo). Scalar
    // guards also park the payload in the bank, so passing them doubles
    // as the first-touch load.
    std::size_t entry_off = buf_.size();
    buf_.u8(0x45); buf_.u8(0x31); buf_.u8(0xF6);  // xor r14d,r14d
    for (const SpecGuard& g : r.guards) {
      buf_.u8(0x48); buf_.u8(0x89); buf_.u8(0xDF);  // mov rdi,rbx
      buf_.u8(0xBE); buf_.u32(static_cast<std::uint32_t>(g.slot));
      buf_.u8(0xBA); buf_.u32(static_cast<std::uint32_t>(g.kind));
      // lea rcx, [r13 + bank] (the reserved quad when no payload loads)
      buf_.u8(0x49); buf_.u8(0x8D);
      modrm_r13(1, g.bank >= 0 ? bank_disp(g.bank) : 40);
      spec_call(h.guard);
      buf_.u8(0x85); buf_.u8(0xC0);  // test eax,eax
      buf_.u8(0x0F); buf_.u8(0x84);  // jz rel32 -> deopt
      std::size_t at = buf_.size();
      buf_.u32(0);
      patch_rel32(at, deopt_off);
    }
    for (const SpecLocal& l : r.locals) {
      if (l.reg >= 0) mov_r_m13(l.reg, bank_disp(l.bank));
    }
    // The VM charged lo's step when it dispatched Op::kRegion, so the
    // first batch (which starts at lo) charges the rest of its ops and
    // joins the body past its own check. In-region back-edges to lo
    // still land before that check and pay the whole batch.
    const std::int32_t first = r.segments.front().steps;
    if (first > 1) {
      buf_.u8(0xB8); buf_.u32(static_cast<std::uint32_t>(first - 1));
      buf_.u8(0xE8);  // call thunk
      std::size_t at = buf_.size();
      buf_.u32(0);
      patch_rel32(at, thunk_off_);
    }
    r13_mem_imm(0, 24, 1);  // env->spec_ops += 1 (lo itself)
    buf_.u8(0xE9);          // jmp rel32 -> past the first batch's check
    std::size_t join_at = buf_.size();
    buf_.u32(0);

    // Body. Internal edges land on spec_off (before the pc's segment
    // check, so back-edges recharge their batch every iteration).
    std::vector<std::size_t> spec_off(r.hi - r.lo, 0);
    std::size_t seg_ix = 0;
    for (std::size_t pc = r.lo; pc < r.hi; ++pc) {
      spec_off[pc - r.lo] = buf_.size();
      if (seg_ix < r.segments.size() &&
          r.segments[seg_ix].first_pc == pc) {
        emit_seg_check(r.segments[seg_ix].steps);
        ++seg_ix;
      }
      emit_act(r, pc);
    }
    if (const SpecExit* e = r.exit_at(r.hi)) {
      buf_.u8(0xE9);  // fallthrough exit
      exit_fix_.push_back(
          {buf_.size(), static_cast<std::size_t>(e - r.exits.data())});
      buf_.u32(0);
    }

    // Exit stubs, then the per-segment slow stubs, then the in-region
    // patches now that every local label has an offset.
    std::vector<std::size_t> exit_off(r.exits.size(), 0);
    for (std::size_t ei = 0; ei < r.exits.size(); ++ei) {
      exit_off[ei] = buf_.size();
      emit_exit_stub(r, r.exits[ei], spec_off);
    }
    for (const ThrowRec& t : throw_recs_) {
      // The operand failed the domain check: rt::op_unary builds (and
      // js_unary_throw parks) exactly the VM's error.
      patch_rel32(t.jcc_at, buf_.size());
      if (t.xmm != 0) movsd_xx(0, t.xmm);
      buf_.u8(0xBF); buf_.u32(static_cast<std::uint32_t>(t.op));  // edi
      spec_call(h.unary_throw);
      jmp_to(bail_off_);
    }
    for (const SegRec& s : seg_recs_) {
      patch_rel32(s.jl_at, buf_.size());
      buf_.u8(0xB8); buf_.u32(static_cast<std::uint32_t>(s.steps));
      buf_.u8(0xE8);  // call thunk
      std::size_t at = buf_.size();
      buf_.u32(0);
      patch_rel32(at, thunk_off_);
      buf_.u8(0xE9);  // jmp back past the inline counter updates
      at = buf_.size();
      buf_.u32(0);
      patch_rel32(at, s.cont);
    }
    for (const RegFix& f : reg_fix_) {
      patch_rel32(f.at, spec_off[f.target_pc - r.lo]);
    }
    for (const ExitFix& f : exit_fix_) {
      patch_rel32(f.at, exit_off[f.exit_ix]);
    }
    patch_rel32(join_at, seg_recs_.front().cont);
    return entry_off;
  }

  void emit_act(const RegionPlan& r, std::size_t pc) {
    using K = SpecAct::Kind;
    const SpecAct& a = r.acts[pc - r.lo];
    const std::size_t n = r.vstack_at[pc - r.lo].size();
    switch (a.kind) {
      case K::kConst: {
        std::size_t d = n;
        if (a.out == SpecType::kDbl) {
          movabs(0, static_cast<std::uint64_t>(a.imm));
          if (d < kVstackRegDepth) {
            movq_x_r(static_cast<int>(d), 0);
          } else {
            mov_m13_r(0, bank_disp(static_cast<std::int32_t>(d)));
          }
        } else if (d < kVstackRegDepth) {
          movabs(8 + static_cast<int>(d), static_cast<std::uint64_t>(a.imm));
        } else {
          movabs(0, static_cast<std::uint64_t>(a.imm));
          mov_m13_r(0, bank_disp(static_cast<std::int32_t>(d)));
        }
        break;
      }
      case K::kLoadLocal: {
        const SpecLocal& l = r.locals[static_cast<std::size_t>(a.local)];
        std::size_t d = n;
        if (a.out == SpecType::kDbl) {
          if (d < kVstackRegDepth) {
            movsd_x_m13(static_cast<int>(d), bank_disp(l.bank));
          } else {
            mov_r_m13(0, bank_disp(l.bank));
            mov_m13_r(0, bank_disp(static_cast<std::int32_t>(d)));
          }
        } else if (l.reg >= 0) {
          if (d < kVstackRegDepth) {
            mov_rr(8 + static_cast<int>(d), l.reg);
          } else {
            mov_m13_r(l.reg, bank_disp(static_cast<std::int32_t>(d)));
          }
        } else if (d < kVstackRegDepth) {
          mov_r_m13(8 + static_cast<int>(d), bank_disp(l.bank));
        } else {
          mov_r_m13(0, bank_disp(l.bank));
          mov_m13_r(0, bank_disp(static_cast<std::int32_t>(d)));
        }
        break;
      }
      case K::kStoreLocal:
      case K::kDeclare: {
        // A declare's only machine work is moving the init value into
        // the local's home: the bind itself is virtual until an exit's
        // kDeclare writeback replays op_declare on the real cell.
        const SpecLocal& l = r.locals[static_cast<std::size_t>(a.local)];
        std::size_t d = n - 1;
        if (a.in != a.out) promote_int_depth(d);  // NUMBR into SRSLY NUMBAR
        if (a.out == SpecType::kDbl) {
          if (d < kVstackRegDepth) {
            movsd_m13_x(static_cast<int>(d), bank_disp(l.bank));
          } else {
            mov_r_m13(0, bank_disp(static_cast<std::int32_t>(d)));
            mov_m13_r(0, bank_disp(l.bank));
          }
        } else if (l.reg >= 0) {
          if (d < kVstackRegDepth) {
            mov_rr(l.reg, 8 + static_cast<int>(d));
          } else {
            mov_r_m13(l.reg, bank_disp(static_cast<std::int32_t>(d)));
          }
        } else if (d < kVstackRegDepth) {
          mov_m13_r(8 + static_cast<int>(d), bank_disp(l.bank));
        } else {
          mov_r_m13(0, bank_disp(static_cast<std::int32_t>(d)));
          mov_m13_r(0, bank_disp(l.bank));
        }
        break;
      }
      case K::kDeclareZero: {
        const SpecLocal& l = r.locals[static_cast<std::size_t>(a.local)];
        if (l.reg >= 0) {
          movabs(l.reg, 0);
        } else {
          // mov qword [r13+bank], 0 (0 bits is also NUMBAR +0.0)
          buf_.u8(0x49); buf_.u8(0xC7);
          modrm_r13(0, bank_disp(l.bank));
          buf_.u32(0);
        }
        break;
      }
      case K::kUnbind:
      case K::kCastNop:
      case K::kPop:
        break;  // bookkeeping only; exits carry the consequences
      case K::kMe:
      case K::kMahFrenz: {
        std::size_t d = n;
        std::int32_t src = a.kind == K::kMe ? 8 : 16;
        if (d < kVstackRegDepth) {
          mov_r_m13(8 + static_cast<int>(d), src);
        } else {
          mov_r_m13(0, src);
          mov_m13_r(0, bank_disp(static_cast<std::int32_t>(d)));
        }
        break;
      }
      case K::kBin:
        emit_bin(a, n);
        break;
      case K::kNot: {
        int reg = gpr_operand(n - 1, 0);
        if (a.in == SpecType::kBool) {
          alu_imm8(6, reg, 1);  // xor reg, 1
        } else {
          test_rr(reg);
          setcc_movzx(0x94, reg);  // sete: NOT numbr is v == 0
        }
        gpr_store_back(n - 1, reg);
        break;
      }
      case K::kSquar: {
        if (a.in == SpecType::kDbl) {
          int x = xmm_operand(n - 1, 4);
          sse_rr(0x59, x, x);  // mulsd x, x
          xmm_store_back(n - 1, x);
        } else {
          int reg = gpr_operand(n - 1, 0);
          imul_rr(reg, reg);
          gpr_store_back(n - 1, reg);
        }
        break;
      }
      case K::kCastIntToDbl:
        promote_int_depth(n - 1);
        break;
      case K::kUnsquar:
      case K::kFlip:
        emit_unsquar_flip(a, n - 1);
        break;
      case K::kArrLoad:
      case K::kArrLoadRemote:
        emit_arr(r, pc, a, /*store=*/false);
        break;
      case K::kArrStore:
        emit_arr(r, pc, a, /*store=*/true);
        break;
      case K::kBffPush: {
        const JitSpecHelpers& h = jit_spec_helpers();
        const std::vector<SpecType>& vs = r.vstack_at[pc - r.lo];
        spill_vstack(vs, n - 1);
        if (n - 1 < kVstackRegDepth) {
          mov_rr(6, 8 + static_cast<int>(n - 1));  // rsi = target PE
        } else {
          mov_r_m13(6, bank_disp(static_cast<std::int32_t>(n - 1)));
        }
        buf_.u8(0x48); buf_.u8(0x89); buf_.u8(0xDF);  // mov rdi,rbx
        spec_call(h.bff_push);
        buf_.u8(0x85); buf_.u8(0xC0);  // test eax,eax
        js_bail();
        reload_vstack(vs, n - 1);
        break;
      }
      case K::kBffPop: {
        const JitSpecHelpers& h = jit_spec_helpers();
        const std::vector<SpecType>& vs = r.vstack_at[pc - r.lo];
        spill_vstack(vs, n);
        buf_.u8(0x48); buf_.u8(0x89); buf_.u8(0xDF);  // mov rdi,rbx
        buf_.u8(0xBE); buf_.u32(static_cast<std::uint32_t>(a.aux));
        spec_call(h.bff_pop);  // cannot throw
        reload_vstack(vs, n);
        break;
      }
      case K::kJmp:
        buf_.u8(0xE9);
        route_spec_jump(r, pc, static_cast<std::size_t>(a.aux));
        break;
      case K::kBranch: {
        std::size_t d = n - 1;
        if (d < kVstackRegDepth) {
          test_rr(8 + static_cast<int>(d));
        } else {
          mov_r_m13(0, bank_disp(static_cast<std::int32_t>(d)));
          test_rr(0);
        }
        buf_.u8(0x0F); buf_.u8(0x84);  // jz: branch taken when FAIL/zero
        route_spec_jump(r, pc, static_cast<std::size_t>(a.aux));
        break;
      }
    }
  }

  /// Converts the int at vstack depth `d` to a double in place (the
  /// depth's XMM home, or its bank quad when spilled).
  void promote_int_depth(std::size_t d) {
    if (d < kVstackRegDepth) {
      cvtsi2sd(static_cast<int>(d), 8 + static_cast<int>(d));
    } else {
      mov_r_m13(0, bank_disp(static_cast<std::int32_t>(d)));
      cvtsi2sd(4, 0);
      movsd_m13_x(4, bank_disp(static_cast<std::int32_t>(d)));
    }
  }

  /// UNSQUAR OF / FLIP OF on the value at depth `d`, in double (an int
  /// operand converts first, as rt::op_unary's Num::as_f does). The
  /// domain check mirrors op_unary: UNSQUAR throws only on an ordered
  /// x < 0 (NaN and -0.0 pass to sqrtsd), FLIP only on x == ±0.0 (NaN
  /// is unordered and passes to the divide).
  void emit_unsquar_flip(const SpecAct& a, std::size_t d) {
    if (a.in == SpecType::kInt) promote_int_depth(d);
    int x = xmm_operand(d, 4);
    buf_.u8(0x66); buf_.u8(0x0F); buf_.u8(0x57); buf_.u8(0xED);  // xorpd x5,x5
    auto op = a.kind == SpecAct::Kind::kUnsquar ? ast::UnOp::kUnsquar
                                                : ast::UnOp::kFlip;
    if (op == ast::UnOp::kUnsquar) {
      ucomisd(5, x);                 // 0 > x, ordered
      buf_.u8(0x0F); buf_.u8(0x87);  // ja rel32 -> throw stub
    } else {
      ucomisd(x, 5);
      buf_.u8(0x7A); buf_.u8(0x06);  // jp +6: NaN is not zero
      buf_.u8(0x0F); buf_.u8(0x84);  // je rel32 -> throw stub
    }
    throw_recs_.push_back(
        {buf_.size(), static_cast<std::int32_t>(op), x});
    buf_.u32(0);
    if (op == ast::UnOp::kUnsquar) {
      sse_rr(0x51, x, x);  // sqrtsd x, x
    } else {
      double one = 1.0;
      std::uint64_t bits;
      std::memcpy(&bits, &one, sizeof bits);
      movabs(0, bits);
      movq_x_r(5, 0);
      sse_rr(0x5E, 5, x);  // divsd xmm5, x
      movsd_xx(x, 5);
    }
    xmm_store_back(d, x);
  }

  void emit_bin(const SpecAct& a, std::size_t n) {
    using B = ast::BinOp;
    auto op = static_cast<B>(a.aux & kSpecBinOpMask);
    std::size_t dl = n - 2, dr = n - 1;
    if (a.in == SpecType::kDbl) {
      if ((a.aux & kSpecBinPromoteLhs) != 0) promote_int_depth(dl);
      if ((a.aux & kSpecBinPromoteRhs) != 0) promote_int_depth(dr);
      int xl = xmm_operand(dl, 4);
      int xr = xmm_operand(dr, 5);
      if (a.out == SpecType::kDbl) {
        std::uint8_t opc = op == B::kSum       ? 0x58   // addsd
                           : op == B::kDiff    ? 0x5C   // subsd
                           : op == B::kProdukt ? 0x59   // mulsd
                           : op == B::kBiggr   ? 0x5F   // maxsd
                                               : 0x5D;  // minsd
        sse_rr(opc, xl, xr);
        xmm_store_back(dl, xl);
      } else {
        // Compare: the result home flips to the integer bank/register.
        int out = dl < kVstackRegDepth ? 8 + static_cast<int>(dl) : 0;
        switch (op) {
          case B::kBigger:  // x > y, NaN => FAIL (unordered sets CF)
            ucomisd(xl, xr);
            setcc_movzx(0x97, out);  // seta
            break;
          case B::kSmallrCmp:
            ucomisd(xr, xl);
            setcc_movzx(0x97, out);
            break;
          case B::kBothSaem:
          case B::kDiffrint:
            cmpeqsd(xl, xr);  // IEEE ==, exactly Value::saem on NUMBARs
            movq_r_x(out, xl);
            alu_imm8(4, out, 1);  // and out, 1
            if (op == B::kDiffrint) alu_imm8(6, out, 1);  // xor out, 1
            break;
          default:
            break;  // unreachable: bin_result filtered
        }
        gpr_store_back(dl, out);
      }
      return;
    }
    int rl = gpr_operand(dl, 0);
    int rr = gpr_operand(dr, 1);
    if (op == B::kBothSaem || op == B::kDiffrint || op == B::kBigger ||
        op == B::kSmallrCmp) {
      alu_rr(0x39, rl, rr);  // cmp rl, rr
      std::uint8_t cc = op == B::kBothSaem   ? 0x94   // sete
                        : op == B::kDiffrint ? 0x95   // setne
                        : op == B::kBigger   ? 0x9F   // setg
                                             : 0x9C;  // setl
      setcc_movzx(cc, rl);
    } else {
      switch (op) {
        case B::kSum:      alu_rr(0x01, rl, rr); break;
        case B::kDiff:     alu_rr(0x29, rl, rr); break;
        case B::kProdukt:  imul_rr(rl, rr); break;
        case B::kBiggr:    // x > y ? x : y == keep lhs unless smaller
          alu_rr(0x39, rl, rr);
          cmov_rr(0x4C, rl, rr);  // cmovl
          break;
        case B::kSmallr:
          alu_rr(0x39, rl, rr);
          cmov_rr(0x4F, rl, rr);  // cmovg
          break;
        case B::kBothOf:   alu_rr(0x21, rl, rr); break;  // and (0/1)
        case B::kEitherOf: alu_rr(0x09, rl, rr); break;  // or
        case B::kWonOf:    alu_rr(0x31, rl, rr); break;  // xor
        default:           break;  // unreachable
      }
    }
    gpr_store_back(dl, rl);
  }

  /// Helper calls clobber every caller-saved register: the register-
  /// resident entries among the bottom `live` of `vs` round-trip through
  /// their bank slots (deeper ones already live there).
  void spill_vstack(const std::vector<SpecType>& vs, std::size_t live) {
    for (std::size_t d = 0; d < live && d < kVstackRegDepth; ++d) {
      if (vs[d] == SpecType::kDbl) {
        movsd_m13_x(static_cast<int>(d),
                    bank_disp(static_cast<std::int32_t>(d)));
      } else {
        mov_m13_r(8 + static_cast<int>(d),
                  bank_disp(static_cast<std::int32_t>(d)));
      }
    }
  }

  void reload_vstack(const std::vector<SpecType>& vs, std::size_t live) {
    for (std::size_t d = 0; d < live && d < kVstackRegDepth; ++d) {
      if (vs[d] == SpecType::kDbl) {
        movsd_x_m13(static_cast<int>(d),
                    bank_disp(static_cast<std::int32_t>(d)));
      } else {
        mov_r_m13(8 + static_cast<int>(d),
                  bank_disp(static_cast<std::int32_t>(d)));
      }
    }
  }

  /// Indexed array access through the bounds-checking helper (a UR load
  /// passes remote = 1: the helper reads the TXT MAH BFF target PE).
  void emit_arr(const RegionPlan& r, std::size_t pc, const SpecAct& a,
                bool store) {
    const JitSpecHelpers& h = jit_spec_helpers();
    const std::vector<SpecType>& vs = r.vstack_at[pc - r.lo];
    const std::size_t n = vs.size();
    const std::size_t live = n - (store ? 2 : 1);
    spill_vstack(vs, live);
    std::size_t di = store ? n - 2 : n - 1;  // index operand depth
    if (di < kVstackRegDepth) {
      mov_rr(2, 8 + static_cast<int>(di));  // rdx = index
    } else {
      mov_r_m13(2, bank_disp(static_cast<std::int32_t>(di)));
    }
    if (store) {
      std::size_t dv = n - 1;  // value operand depth
      if (a.in != a.out) promote_int_depth(dv);  // NUMBR into NUMBAR lanes
      if (a.out == SpecType::kDbl) {
        if (dv < kVstackRegDepth) {
          if (dv != 0) movsd_xx(0, static_cast<int>(dv));
        } else {
          movsd_x_m13(0, bank_disp(static_cast<std::int32_t>(dv)));
        }
      } else if (dv < kVstackRegDepth) {
        mov_rr(1, 8 + static_cast<int>(dv));  // rcx = value
      } else {
        mov_r_m13(1, bank_disp(static_cast<std::int32_t>(dv)));
      }
    }
    buf_.u8(0x48); buf_.u8(0x89); buf_.u8(0xDF);  // mov rdi,rbx
    buf_.u8(0xBE); buf_.u32(static_cast<std::uint32_t>(a.aux));
    if (!store) {
      buf_.u8(0xB9);  // mov ecx, remote
      buf_.u32(a.kind == SpecAct::Kind::kArrLoadRemote ? 1 : 0);
    }
    std::uint64_t fn =
        store ? (a.out == SpecType::kDbl ? h.arr_store_d : h.arr_store_i)
              : (a.out == SpecType::kDbl ? h.arr_load_d : h.arr_load_i);
    spec_call(fn);
    if (store) {
      buf_.u8(0x85); buf_.u8(0xC0);  // test eax,eax
    } else {
      buf_.u8(0x48); buf_.u8(0x85); buf_.u8(0xC0);  // test rax,rax (status)
    }
    js_bail();
    if (!store) {
      std::size_t d = n - 1;  // result replaces the index operand
      if (a.out == SpecType::kDbl) {
        if (d < kVstackRegDepth) {
          if (d != 0) movsd_xx(static_cast<int>(d), 0);
        } else {
          movsd_m13_x(0, bank_disp(static_cast<std::int32_t>(d)));
        }
      } else if (d < kVstackRegDepth) {
        mov_rr(8 + static_cast<int>(d), 2);  // value arrives in rdx
      } else {
        mov_m13_r(2, bank_disp(static_cast<std::int32_t>(d)));
      }
    }
    reload_vstack(vs, live);
  }

  /// Materialize a region state for the VM: push live virtual stack
  /// entries (bottom first), write every touched local back to its cell,
  /// then return the exit's target pc. An internal exit only writes back,
  /// keeps its virtual stack, and jumps to its in-region target. Helper
  /// statuses bail — only allocation can throw here, and then the
  /// program is dying anyway.
  void emit_exit_stub(const RegionPlan& r, const SpecExit& e,
                      const std::vector<std::size_t>& spec_off) {
    const JitSpecHelpers& h = jit_spec_helpers();
    spill_vstack(e.vstack, e.vstack.size());
    for (std::size_t d = 0; !e.internal && d < e.vstack.size(); ++d) {
      buf_.u8(0x48); buf_.u8(0x89); buf_.u8(0xDF);  // mov rdi,rbx
      mov_r_m13(6, bank_disp(static_cast<std::int32_t>(d)));  // rsi = bits
      buf_.u8(0xBA);
      buf_.u32(static_cast<std::uint32_t>(e.vstack[d]));  // edx = type
      spec_call(h.push);
      buf_.u8(0x85); buf_.u8(0xC0);
      js_bail();
    }
    for (const SpecWriteback& wb : e.writebacks) {
      const SpecLocal* l =
          wb.local >= 0 ? &r.locals[static_cast<std::size_t>(wb.local)]
                        : nullptr;
      auto load_val = [&](int dst) {
        if (l->reg >= 0) mov_rr(dst, l->reg);
        else mov_r_m13(dst, bank_disp(l->bank));
      };
      buf_.u8(0x48); buf_.u8(0x89); buf_.u8(0xDF);  // mov rdi,rbx
      switch (wb.kind) {
        case SpecWriteback::Kind::kStore:
          buf_.u8(0xBE); buf_.u32(static_cast<std::uint32_t>(wb.slot));
          load_val(2);  // rdx = bits
          buf_.u8(0xB9); buf_.u32(static_cast<std::uint32_t>(wb.type));
          spec_call(h.wb_store);
          buf_.u8(0x85); buf_.u8(0xC0);
          js_bail();
          break;
        case SpecWriteback::Kind::kDeclare:
          buf_.u8(0xBE); buf_.u32(static_cast<std::uint32_t>(wb.decl));
          load_val(2);
          buf_.u8(0xB9); buf_.u32(static_cast<std::uint32_t>(wb.type));
          spec_call(h.wb_decl);
          buf_.u8(0x85); buf_.u8(0xC0);
          js_bail();
          break;
        case SpecWriteback::Kind::kUnbind:
          buf_.u8(0xBE); buf_.u32(static_cast<std::uint32_t>(wb.slot));
          spec_call(h.wb_unbind);  // cannot throw
          break;
        case SpecWriteback::Kind::kIt:
          load_val(6);  // rsi = bits
          buf_.u8(0xBA); buf_.u32(static_cast<std::uint32_t>(wb.type));
          spec_call(h.wb_it);  // cannot throw
          break;
      }
    }
    if (e.internal) {
      reload_vstack(e.vstack, e.vstack.size());
      jmp_to(spec_off[e.target - r.lo]);
      return;
    }
    ret_to_vm(static_cast<std::int64_t>(e.target));
  }

  /// LOL_JIT_DUMP / --jit-dump: the analysis listing plus a hex dump of
  /// each emitted region (entry, body, stubs).
  void append_dump(std::string& d) {
    d += describe_plan(chunk_, plan_);
    char line[80];
    for (std::size_t ri = 0; ri < plan_.regions.size(); ++ri) {
      const RegionPlan& r = plan_.regions[ri];
      auto [begin, end] = region_code_[ri];
      std::snprintf(line, sizeof line,
                    "region [%zu, %zu) code @%zx..%zx (%zu bytes)\n", r.lo,
                    r.hi, begin, end, end - begin);
      d += line;
      for (std::size_t off = begin; off < end; off += 16) {
        std::snprintf(line, sizeof line, "  %06zx:", off);
        d += line;
        for (std::size_t i = off; i < end && i < off + 16; ++i) {
          std::snprintf(line, sizeof line, " %02x", buf_.b[i]);
          d += line;
        }
        d += '\n';
      }
    }
  }

  // Region-internal jump whose landing offset isn't known yet.
  struct RegFix {
    std::size_t at = 0;         // rel32 placeholder position
    std::size_t target_pc = 0;  // in-region bytecode target
  };
  // Jump to an exit stub emitted after the region body.
  struct ExitFix {
    std::size_t at = 0;
    std::size_t exit_ix = 0;
  };
  // An UNSQUAR/FLIP domain check awaiting its out-of-line throw stub.
  struct ThrowRec {
    std::size_t jcc_at = 0;  // jcc rel32 placeholder position
    std::int32_t op = 0;     // ast::UnOp
    int xmm = 0;             // register holding the operand
  };
  // One step-batch check awaiting its out-of-line slow stub.
  struct SegRec {
    std::size_t jl_at = 0;  // `jl` rel32 placeholder position
    std::size_t cont = 0;   // offset the slow stub jumps back to
    std::int32_t steps = 0;
  };

  const vm::Chunk& chunk_;
  CodeBuf buf_;
  std::size_t bail_off_ = 0;
  std::size_t epilogue_off_ = 0;
  std::size_t thunk_off_ = 0;
  SpecPlan plan_;
  std::vector<std::pair<std::size_t, std::size_t>> region_code_;
  std::vector<RegFix> reg_fix_;
  std::vector<ExitFix> exit_fix_;
  std::vector<SegRec> seg_recs_;
  std::vector<ThrowRec> throw_recs_;
};

void key_u32(std::string& k, std::uint32_t x) {
  for (int i = 0; i < 4; ++i) k.push_back(static_cast<char>((x >> (8 * i)) & 0xFF));
}

void key_u64(std::string& k, std::uint64_t x) {
  for (int i = 0; i < 8; ++i) k.push_back(static_cast<char>((x >> (8 * i)) & 0xFF));
}

void key_str(std::string& k, const std::string& s) {
  key_u64(k, s.size());
  k += s;
}

void key_value(std::string& k, const rt::Value& v) {
  if (v.is_noob()) {
    k.push_back(0);
  } else if (v.is_troof()) {
    k.push_back(1);
    k.push_back(v.troof_raw() ? 1 : 0);
  } else if (v.is_numbr()) {
    k.push_back(2);
    key_u64(k, static_cast<std::uint64_t>(v.numbr_raw()));
  } else if (v.is_numbar()) {
    k.push_back(3);
    std::uint64_t bits;
    double d = v.numbar_raw();
    std::memcpy(&bits, &d, sizeof bits);
    key_u64(k, bits);
  } else {
    k.push_back(4);
    key_str(k, v.yarn_raw());
  }
}

}  // namespace

std::vector<std::uint8_t> emit_chunk_x86_64(const vm::Chunk& chunk,
                                            JitEmitInfo* info,
                                            std::string* dump) {
  return Emitter(chunk).emit(info, dump);
}

std::string chunk_cache_key(const vm::Chunk& chunk) {
  std::string k;
  k.reserve(chunk.code.size() * 13 + 64);
  key_u64(k, chunk.code.size());
  for (const vm::Instr& in : chunk.code) {
    k.push_back(static_cast<char>(in.op));
    key_u32(k, static_cast<std::uint32_t>(in.a));
    key_u32(k, static_cast<std::uint32_t>(in.b));
    key_u32(k, static_cast<std::uint32_t>(in.c));
  }
  key_u64(k, chunk.consts.size());
  for (const rt::Value& v : chunk.consts) key_value(k, v);
  key_u64(k, chunk.decls.size());
  for (const vm::DeclMeta& d : chunk.decls) {
    key_str(k, d.name);
    key_u32(k, static_cast<std::uint32_t>(d.slot));
    k.push_back(d.static_type ? static_cast<char>(1 + static_cast<int>(
                                    *d.static_type))
                              : 0);
    k.push_back(static_cast<char>((d.srsly << 0) | (d.is_array << 1) |
                                  (d.has_init << 2) | (d.has_size << 3) |
                                  (d.symmetric << 4)));
    key_u32(k, static_cast<std::uint32_t>(d.sym_slot));
    key_u32(k, static_cast<std::uint32_t>(d.lock_id));
    k.push_back(static_cast<char>(d.elem));
    k.push_back(d.hint ? static_cast<char>(1 + static_cast<int>(*d.hint))
                       : 0);
  }
  key_u64(k, chunk.funcs.size());
  for (const vm::FuncMeta& f : chunk.funcs) {
    key_str(k, f.name);
    key_u32(k, f.entry);
    key_u32(k, static_cast<std::uint32_t>(f.n_slots));
    key_u32(k, static_cast<std::uint32_t>(f.argc));
  }
  key_u32(k, static_cast<std::uint32_t>(chunk.main_slots));
  key_u64(k, chunk.name_maps.size());
  for (const auto& map : chunk.name_maps) {
    key_u64(k, map.size());
    for (const auto& [name, slot] : map) {
      key_str(k, name);
      key_u32(k, static_cast<std::uint32_t>(slot));
    }
  }
  key_u32(k, static_cast<std::uint32_t>(chunk.lock_count));
  return k;
}

}  // namespace lol::codegen
