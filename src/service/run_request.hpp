// The per-job run knobs, defined once.
//
// The paper launches a program with `coprsh -np N ./program`. lolrun,
// lolserve, the daemon wire (wire.hpp) and lcc executables all read that
// launch's knobs through knobs(), so a malformed value gets the same
// diagnosis on every surface. resolve() is the one step from a Job to
// what the engine runs; lolrun and Service::execute both call it.
#pragma once

#include <span>
#include <string>
#include <string_view>

#include "service/job.hpp"

namespace lol::driver {
class Cli;
}
namespace lol::opt {
class TunerStore;
}

namespace lol::service {

struct ServiceOptions;

/// The knobs, in table order.
enum class KnobId {
  kNPes, kBackend, kExecutor, kPesPerThread, kBarrierRadix, kHeapBytes,
  kSeed, kMaxSteps, kOptLevel, kPerturbSeed, kReplay, kFault,
};

struct Knob {
  const char* flag;  // CLI flag; `-np` also answers to `--np`
  const char* key;   // wire key
  const char* arg;   // usage metavariable
  const char* help;  // usage line
  bool text;         // a JSON string on the wire (else a number)
  bool exe;          // lcc executables take it too
  /// Strictly parses `value` into the Job field: "" or the diagnosis,
  /// naming the value under `name` (the flag or the key).
  std::string (*set)(Job& job, std::string_view value, std::string_view name);
  std::string (*get)(const Job& job);  // the field as text
};

[[nodiscard]] std::span<const Knob> knobs();
[[nodiscard]] const Knob& knob(KnobId id);

/// Reads the knob flags in `cli` into `job` (with `exe`, those of lcc
/// executables). --perturb-seed and --replay also set the schedule; the
/// --replay value names the trace file. A bad value is a usage error:
/// driver::Cli::fail prints it and exits 2.
void read_flags(driver::Cli& cli, Job& job, bool exe = false);
void read_flag(driver::Cli& cli, KnobId id, Job& job);

/// Usage lines, defaults read from `defaults`: all (with `exe`, those of
/// lcc executables), or one.
[[nodiscard]] std::string knob_usage(const Job& defaults, bool exe = false);
[[nodiscard]] std::string knob_usage(KnobId id, const Job& defaults);

/// A service budget: a 0 request gets `dflt`, and a nonzero `cap` is a
/// hard ceiling, on "unlimited" (0) too, or a looping job would wedge a
/// worker.
[[nodiscard]] constexpr std::uint64_t capped(std::uint64_t want,
                                             std::uint64_t dflt,
                                             std::uint64_t cap) {
  if (want == 0) want = dflt;
  return cap != 0 && (want == 0 || want > cap) ? cap : want;
}

struct Resolved {
  CompileOptions compile;
  RunConfig run;
  std::string tuned;  // knobs the tuner applied, "key=value ..."
  std::string error;  // non-empty: a bad replay trace or fault spec
};

/// Resolves `job` under `caps` (n_pes to [1, max_pes], a 0 step budget
/// to default_max_steps, steps and heap to their caps) and parses its
/// replay trace and fault spec; abort, sink, machine and profile are the
/// caller's. The one tuner rule: unless the job records or replays, the
/// persisted knobs for (source, n_pes) fill in each runtime knob the
/// job does not pin, i.e. leaves equal to the surface's default request
/// `defaults`; a tuned unroll budget applies at -O2.
[[nodiscard]] Resolved resolve(const Job& job, const Job& defaults,
                               const ServiceOptions& caps,
                               opt::TunerStore* tuner);

}  // namespace lol::service
