// resolve(): the one Job -> CompileOptions + RunConfig step (see
// run_request.hpp), apart from the knob table lcc executables link.
#include <algorithm>

#include "opt/opt.hpp"
#include "opt/tuner.hpp"
#include "service/run_request.hpp"
#include "service/service.hpp"

namespace lol::service {

Resolved resolve(const Job& job, const Job& defaults,
                 const ServiceOptions& caps, opt::TunerStore* tuner) {
  Resolved r;
  RunConfig& cfg = r.run;
  r.compile.opt_level = std::clamp(job.opt_level, 0, 2);
  cfg.n_pes = std::clamp(job.n_pes, 1, std::max(1, caps.max_pes));
  cfg.backend = job.backend;
  cfg.seed = job.seed;
  cfg.stdin_lines = job.stdin_lines;
  cfg.input = job.input;
  cfg.max_steps =
      capped(job.max_steps, caps.default_max_steps, caps.max_steps_cap);
  cfg.heap_bytes = caps.heap_bytes_cap == 0
                       ? job.heap_bytes
                       : std::min(job.heap_bytes, caps.heap_bytes_cap);
  cfg.executor = job.executor;
  cfg.pes_per_thread = job.pes_per_thread;
  cfg.barrier_radix = job.barrier_radix;  // Runtime clamps hostile fan-ins
  cfg.schedule = job.schedule;
  cfg.perturb_seed = job.perturb_seed;

  // Outputs are knob-invariant by construction, so tuning only trades
  // wall-clock; record/replay never tunes (traces are schedule-shaped).
  const std::uint64_t source_hash = replay::fnv1a(job.source);
  auto tuned = tuner != nullptr && job.schedule == replay::ScheduleMode::kNone
                   ? tuner->lookup(source_hash, cfg.n_pes)
                   : std::nullopt;
  auto note = [&r](std::string_view key, const std::string& value) {
    r.tuned += (r.tuned.empty() ? "" : " ") + std::string(key) + "=" + value;
  };
  if (tuned && tuned->barrier_radix != 0 &&
      job.barrier_radix == defaults.barrier_radix) {
    cfg.barrier_radix = tuned->barrier_radix;
    note(knob(KnobId::kBarrierRadix).key, std::to_string(cfg.barrier_radix));
  }
  auto e = tuned ? shmem::executor_from_name(tuned->executor) : std::nullopt;
  if (e && job.executor == defaults.executor) {
    cfg.executor = *e;
    note(knob(KnobId::kExecutor).key, tuned->executor);
  }
  if (tuned && tuned->pes_per_thread != 0 &&
      job.pes_per_thread == defaults.pes_per_thread &&
      cfg.executor == shmem::ExecutorKind::kFiber) {
    cfg.pes_per_thread = tuned->pes_per_thread;
    note(knob(KnobId::kPesPerThread).key, std::to_string(cfg.pes_per_thread));
  }
  if (tuned && tuned->unroll_max_trip != 0 && r.compile.opt_level >= 2) {
    r.compile.unroll_max_trip = tuned->unroll_value();
    note("unroll_max_trip", std::to_string(r.compile.unroll_max_trip));
  }

  // Traces are keyed on the source hash mixed with the optimization
  // config (unrolling changes step counts): a stale trace is refused.
  cfg.program_hash = opt::mix_hash(source_hash, r.compile.opt_level,
                                   r.compile.unroll_max_trip);
  if (job.schedule == replay::ScheduleMode::kReplay) {
    std::string err;
    auto trace = replay::Trace::parse(job.replay_trace, &err);
    if (!trace) r.error = "bad trace: " + err;
    if (trace) cfg.replay_trace = std::make_shared<replay::Trace>(*trace);
  }
  if (r.error.empty() && !job.fault_spec.empty()) {
    replay::parse_fault_spec(job.fault_spec, &cfg.fault, &r.error);
  }
  return r;
}

}  // namespace lol::service
