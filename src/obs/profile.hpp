// Per-PE runtime profile: plain (non-atomic) counters owned by the
// thread/fiber that runs the PE.  The runtime aggregates them into
// LaunchResult after the executor joins the gang, so publication rides
// the join's happens-before edge — no atomics on the hot path, and the
// whole thing is TSan-clean by construction.
//
// Event counts are always maintained (a plain increment on thread-local
// memory).  Wall-clock *wait* times are only sampled when the launch was
// configured with `profile = true`; an unconditional steady_clock read
// per barrier arrival costs ~25% at 2048 fiber PEs, which would blow the
// instrumentation budget.
#pragma once

#include <cstdint>

// Compile-out switch for runtime-layer instrumentation.  The build can
// set LOL_OBS_RUNTIME_METRICS=0 (cmake -DLOL_OBS=OFF) to strip every
// counter from the barrier/lock/executor hot paths; the bench harness
// uses such a build as the zero-cost baseline for the overhead guard.
#ifndef LOL_OBS_RUNTIME_METRICS
#define LOL_OBS_RUNTIME_METRICS 1
#endif

namespace lol::obs {

struct PeProfile {
  std::uint64_t steps = 0;              ///< statements/instructions retired
  std::uint64_t barrier_crossings = 0;  ///< collective ops this PE entered
  std::uint64_t barrier_wait_ns = 0;    ///< time parked in the tree (profile runs)
  std::uint64_t lock_acquires = 0;      ///< LOCKZ taken (set_lock + won test_lock)
  std::uint64_t lock_contended = 0;     ///< acquisitions that found the lock held
  std::uint64_t lock_wait_ns = 0;       ///< time spinning/parked on locks (profile runs)
  std::uint64_t gimmeh_blocks = 0;      ///< GIMMEH reads that had to wait for input
  /// WHATEVR/WHATEVAR draws. Always maintained (not gated on
  /// LOL_OBS_RUNTIME_METRICS): replay verification compares these counts
  /// against a recorded trace to detect divergence in every build.
  std::uint64_t rng_draws = 0;
  /// JIT dynamic coverage (Backend::kJit): the share of `steps` retired
  /// inside specialized regions, and how many times the VM entered one.
  std::uint64_t jit_steps = 0;
  std::uint64_t region_entries = 0;

  PeProfile& operator+=(const PeProfile& o) {
    steps += o.steps;
    barrier_crossings += o.barrier_crossings;
    barrier_wait_ns += o.barrier_wait_ns;
    lock_acquires += o.lock_acquires;
    lock_contended += o.lock_contended;
    lock_wait_ns += o.lock_wait_ns;
    gimmeh_blocks += o.gimmeh_blocks;
    rng_draws += o.rng_draws;
    jit_steps += o.jit_steps;
    region_entries += o.region_entries;
    return *this;
  }
};

}  // namespace lol::obs
