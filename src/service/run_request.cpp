// The knob table and its CLI reader. resolve() lives in run_resolve.cpp,
// so lcc executables link the table without the compiler and engine.
#include "service/run_request.hpp"

#include <algorithm>
#include <array>

#include "driver/cli.hpp"
#include "replay/fault.hpp"
#include "shmem/runtime.hpp"

namespace lol::service {

namespace {

using Text = std::string_view;
constexpr int kMaxPes = shmem::kMaxPes;

template <auto Field, std::int64_t Lo, std::int64_t Hi>
std::string set_int(Job& job, Text value, Text name) {
  auto n = driver::parse_int(value, Lo, Hi);
  if (n) job.*Field = static_cast<int>(*n);
  return n ? "" : driver::bad_value(name, value, "an integer in [" +
                     std::to_string(Lo) + ", " + std::to_string(Hi) + "]");
}

template <auto Field>
std::string set_u64(Job& job, Text value, Text name) {
  auto n = driver::parse_uint(value);
  if (n) job.*Field = *n;
  return n ? "" : driver::bad_value(name, value, "an unsigned 64-bit integer");
}

template <auto Field>
std::string num(const Job& job) {
  return std::to_string(job.*Field);
}

std::string set_backend(Job& job, Text value, Text) {
  auto b = backend_from_name(value);
  if (b) job.backend = *b;
  return b ? "" : "unknown backend '" + std::string(value) + "'";
}

std::string set_executor(Job& job, Text value, Text) {
  auto e = shmem::executor_from_name(value);
  if (e) job.executor = *e;
  return e ? "" : "unknown executor '" + std::string(value) + "'";
}

std::string set_fault(Job& job, Text value, Text) {
  std::string err;
  if (replay::parse_fault_spec(value, nullptr, &err)) job.fault_spec = value;
  return err;
}

// The trace is parsed by resolve(), which knows whether the job replays:
// the wire carries it whatever the schedule.
std::string set_replay(Job& job, Text value, Text) {
  job.replay_trace = value;
  return "";
}

// Indexed by KnobId.
const std::array<Knob, 12> kKnobs = {{
    {"-np", "n_pes", "<N>", "number of PEs, 1..4096", false, true,
     set_int<&Job::n_pes, 1, kMaxPes>, num<&Job::n_pes>},
    {"--backend", "backend", "<b>", "vm, interp or jit (VM + x86-64)", true,
     false, set_backend,
     [](const Job& j) { return std::string(to_string(j.backend)); }},
    {"--executor", "executor", "<e>", "thread, pool or fiber (PEs per core)",
     true, false, set_executor,
     [](const Job& j) { return std::string(shmem::to_string(j.executor)); }},
    {"--pes-per-thread", "pes_per_thread", "<K>",
     "fiber PEs per carrier, 0 = auto", false, false,
     set_int<&Job::pes_per_thread, 0, kMaxPes>, num<&Job::pes_per_thread>},
    {"--barrier-radix", "barrier_radix", "<R>",
     "barrier tree fan-in, < 2 = auto", false, false,
     set_int<&Job::barrier_radix, 0, kMaxPes>, num<&Job::barrier_radix>},
    {"--heap-bytes", "heap_bytes", "<B>", "symmetric heap per PE", false, true,
     set_u64<&Job::heap_bytes>, num<&Job::heap_bytes>},
    {"--seed", "seed", "<S>", "WHATEVR/WHATEVAR seed", false, true,
     set_u64<&Job::seed>, num<&Job::seed>},
    {"--max-steps", "max_steps", "<S>", "per-PE step budget, 0 = none", false,
     true, set_u64<&Job::max_steps>, num<&Job::max_steps>},
    {"--opt-level", "opt_level", "<L>",
     "0 off, 1 fold/prop/dce, 2 + unroll/select", false, false,
     set_int<&Job::opt_level, 0, 2>, num<&Job::opt_level>},
    {"--perturb-seed", "perturb_seed", "<S>",
     "record under a seeded random schedule", false, false,
     set_u64<&Job::perturb_seed>, num<&Job::perturb_seed>},
    {"--replay", "replay", "<file>", "enforce a recorded schedule trace", true,
     false, set_replay, [](const Job& j) { return j.replay_trace; }},
    {"--fault", "fault", "<spec>",
     "inject faults: pe=K@step=S, noc=F, input=N (comma-separated)", true,
     false, set_fault, [](const Job& j) { return j.fault_spec; }},
}};

}  // namespace

std::span<const Knob> knobs() { return kKnobs; }

const Knob& knob(KnobId id) { return kKnobs[static_cast<std::size_t>(id)]; }

void read_flag(driver::Cli& cli, KnobId id, Job& job) {
  using replay::ScheduleMode;
  const std::string flag = knob(id).flag;
  std::optional<std::string> value =
      cli.option(flag, flag[1] == '-' ? "" : "-" + flag);
  if (!value) return;
  if (id == KnobId::kReplay) {
    // --replay follows --perturb-seed in the table, so it sees any other
    // schedule the command line selected.
    if (job.schedule != ScheduleMode::kNone) {
      cli.fail(flag + " excludes --record/" + knob(KnobId::kPerturbSeed).flag);
    }
    std::optional<std::string> trace = driver::read_file(*value);
    if (!trace) cli.fail("cannot read trace '" + *value + "'");
    value = std::move(trace);
    job.schedule = ScheduleMode::kReplay;
  }
  if (std::string err = knob(id).set(job, *value, flag); !err.empty()) {
    cli.fail(err);
  }
  if (id == KnobId::kPerturbSeed) job.schedule = ScheduleMode::kPerturb;
}

void read_flags(driver::Cli& cli, Job& job, bool exe) {
  for (std::size_t i = 0; i < kKnobs.size(); ++i) {
    if (!exe || kKnobs[i].exe) read_flag(cli, KnobId(i), job);
  }
}

std::string knob_usage(KnobId id, const Job& defaults) {
  const Knob& k = knob(id);
  std::string line = "  " + std::string(k.flag) + " " + k.arg;
  line.resize(std::max<std::size_t>(line.size() + 1, 21), ' ');
  const std::string def = k.get(defaults);
  if (def.empty() || def == "0") return line + k.help + "\n";
  return line + k.help + " (default " + def + ")\n";
}

std::string knob_usage(const Job& defaults, bool exe) {
  std::string out;
  for (std::size_t i = 0; i < kKnobs.size(); ++i) {
    if (!exe || kKnobs[i].exe) out += knob_usage(KnobId(i), defaults);
  }
  return out;
}

}  // namespace lol::service
