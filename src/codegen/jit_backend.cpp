#include "codegen/jit_backend.hpp"

#include <chrono>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "codegen/jit_emitter.hpp"
#include "codegen/single_flight.hpp"
#include "obs/metrics.hpp"
#include "rt/exec_context.hpp"
#include "vm/vm.hpp"

namespace lol::codegen {

namespace {

/// Build outcome carried through the single-flight cache: failed builds
/// keep the diagnostic so every waiter reports the same error.
struct JitBuild {
  std::shared_ptr<const JitProgram> prog;
  std::string error;
};

/// Bounded: daemon clients choose sources, so an unbounded emitted-code
/// map would be client-controlled memory growth. Eviction only
/// drops the cache's reference — in-flight runs and JitSlot memos hold
/// the shared_ptr, and the ExecMem unmaps when the last one releases.
SingleFlight<JitBuild>& jit_cache() {
  static auto* c = new SingleFlight<JitBuild>(64);
  return *c;
}

struct JitMetrics {
  obs::Counter& compiles;
  obs::Histogram& compile_ms;
  obs::Counter& spec_ops;
  obs::Counter& deopts;
  JitMetrics()
      : compiles(obs::Registry::global().counter(
            "lol_jit_compiles_total",
            "Bytecode-to-x86-64 JIT compilations (cache misses)")),
        compile_ms(obs::Registry::global().histogram(
            "lol_jit_compile_ms", "JIT compile latency (emit + map), ms",
            {0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 25.0, 100.0})),
        spec_ops(obs::Registry::global().counter(
            "lol_jit_specialized_ops_total",
            "Bytecode ops retired by the type-specialized JIT tier")),
        deopts(obs::Registry::global().counter(
            "lol_jit_deopts_total",
            "Specialized-region guard failures (the VM ran the region's "
            "first instruction instead)")) {}
};

JitMetrics& jit_metrics() {
  static JitMetrics m;
  return m;
}

}  // namespace

bool jit_available() {
#if !defined(__x86_64__)
  return false;
#else
  static const bool ok = [] {
    const char* env = std::getenv("LOL_JIT");
    if (env != nullptr && env[0] == '0' && env[1] == '\0') return false;
    return ExecMem::supported();
  }();
  return ok;
#endif
}

namespace {

bool jit_dump_enabled() {
  const char* env = std::getenv("LOL_JIT_DUMP");
  return env != nullptr && env[0] == '1' && env[1] == '\0';
}

}  // namespace

std::shared_ptr<const JitProgram> JitProgram::get_or_build(
    std::shared_ptr<const vm::Chunk> chunk, std::string* error) {
  if (!jit_available()) {
    if (error != nullptr) {
      *error = "JIT backend unavailable on this host (needs x86-64, mmap "
               "PROT_EXEC, LOL_JIT != 0)";
    }
    return nullptr;
  }
  JitBuild built = jit_cache().get_or_build(
      chunk_cache_key(*chunk),
      [&]() -> JitBuild {
        JitBuild b;
        const auto t0 = std::chrono::steady_clock::now();
        std::string dump;
        auto prog = std::shared_ptr<JitProgram>(new JitProgram());
        std::vector<std::uint8_t> code = emit_chunk_x86_64(
            *chunk, &prog->info_, jit_dump_enabled() ? &dump : nullptr);
        if (!prog->mem_.map_and_seal(code.data(), code.size(), &b.error)) {
          return b;
        }
        prog->patched_ = *chunk;
        for (const JitRegionEntry& e : prog->info_.entries) {
          vm::Instr& at = prog->patched_.code[e.lo];
          const auto index = static_cast<std::int32_t>(prog->displaced_.size());
          prog->displaced_.push_back(at);
          at = vm::Instr{vm::Op::kRegion, index, 0, 0};
        }
        if (!dump.empty()) {
          std::fprintf(stderr, "%s", dump.c_str());
          std::fflush(stderr);
        }
        b.prog = std::move(prog);
        jit_metrics().compiles.inc();
        jit_metrics().compile_ms.observe(
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - t0)
                .count());
        return b;
      },
      [](const JitBuild& b) { return b.prog != nullptr; });
  if (built.prog == nullptr && error != nullptr) {
    *error = built.error.empty() ? "JIT build failed" : built.error;
  }
  return built.prog;
}

/// One PE's region host: the r13 block emitted code addresses (header
/// plus the spill bank, contiguous so bank displacements are
/// env-relative constants) and the program whose regions it enters.
class PeRegions final : public vm::RegionHost {
 public:
  PeRegions(const JitProgram& prog, rt::ExecContext& ctx) : prog_(prog) {
    frame_.env.ctx = &ctx;
    frame_.env.me = ctx.pe->id();
    frame_.env.n_pes = ctx.pe->n_pes();
  }
  PeRegions(const PeRegions&) = delete;
  PeRegions& operator=(const PeRegions&) = delete;

  /// Flushes this PE's coverage counters into the metrics and the PE
  /// profile, on error paths too.
  ~PeRegions() {
    const JitSpecEnv& env = frame_.env;
    if (env.spec_ops != 0) jit_metrics().spec_ops.inc(env.spec_ops);
    if (env.deopts != 0) jit_metrics().deopts.inc(env.deopts);
    obs::PeProfile& prof = env.ctx->pe->profile();
    prof.jit_steps += env.spec_ops;
    prof.region_entries += entries_;
  }

  std::int64_t enter(vm::Vm& vm, std::int32_t index) override {
    ++entries_;
    const auto* base = static_cast<const std::uint8_t*>(prog_.mem_.base());
    auto entry = reinterpret_cast<JitEntryFn>(const_cast<std::uint8_t*>(base));
    const std::size_t offset =
        prog_.info_.entries[static_cast<std::size_t>(index)].offset;
    const std::int64_t next = entry(&vm, &frame_.env, base + offset);
    if (next == kJitThrew) {
      std::rethrow_exception(std::exchange(detail::jit_pending(), nullptr));
    }
    return next;
  }

  [[nodiscard]] const vm::Instr& displaced(std::int32_t index) const override {
    return prog_.displaced_[static_cast<std::size_t>(index)];
  }

 private:
  struct Frame {
    JitSpecEnv env;
    std::uint64_t bank[kJitSpecMaxBank] = {};
  };
  static_assert(offsetof(Frame, bank) == kJitEnvBankOffset);

  const JitProgram& prog_;
  Frame frame_;
  std::uint64_t entries_ = 0;
};

void JitProgram::run_pe(rt::ExecContext& ctx) const {
  PeRegions regions(*this, ctx);
  vm::Vm(patched_, ctx, &regions).run();
}

}  // namespace lol::codegen
