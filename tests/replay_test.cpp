// Record/replay + fault-injection tests: trace round-trip and hostile
// parsing, record -> replay byte-identity across every backend x
// executor, seeded schedule perturbation exposing a real race and the
// failing seed replaying exactly, kill/NoC/input fault injection, the
// controller's deadlock diagnosis, and the service/wire plumbing
// (pe-failed status, sched_trace delivery, bad-trace rejection).
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "codegen/jit_backend.hpp"
#include "core/engine.hpp"
#include "noc/machines.hpp"
#include "replay/controller.hpp"
#include "replay/fault.hpp"
#include "replay/trace.hpp"
#include "service/service.hpp"
#include "service/wire.hpp"

namespace {

using lol::Backend;
using lol::RunConfig;
using lol::RunResult;
using lol::replay::FaultPlan;
using lol::replay::ScheduleMode;
using lol::replay::Trace;
using lol::service::Job;
using lol::service::JobResult;
using lol::service::JobStatus;
using lol::service::Service;
using lol::service::ServiceOptions;
using lol::shmem::ExecutorKind;

// Locked counter + a WHATEVR draw: exercises barriers, locks, remote
// writes and the RNG choice point in one program.
const char* kCounter =
    "HAI 1.2\n"
    "WE HAS A count ITZ SRSLY A NUMBR AN IM SHARIN IT\n"
    "HUGZ\n"
    "TXT MAH BFF 0 AN STUFF\n"
    "  IM SRSLY MESIN WIF UR count\n"
    "  UR count R SUM OF UR count AN 1\n"
    "  DUN MESIN WIF UR count\n"
    "TTYL\n"
    "HUGZ\n"
    "BOTH SAEM ME AN 0, O RLY?\n"
    "YA RLY\n  VISIBLE count\n  VISIBLE WHATEVR\nOIC\n"
    "KTHXBYE\n";

// The acceptance fixture: an nbody-style init race — every PE adds its
// id into PE 0's slot, but the HUGZ between the writes and the read has
// been removed, so what PE 0 prints depends on the schedule.
const char* kRace =
    "HAI 1.2\n"
    "WE HAS A slot ITZ SRSLY A NUMBR AN IM SHARIN IT\n"
    "TXT MAH BFF 0 AN STUFF\n"
    "  UR slot R SUM OF UR slot AN ME\n"
    "TTYL\n"
    "BOTH SAEM ME AN 0, O RLY?\n"
    "YA RLY\n  VISIBLE slot\nOIC\n"
    "KTHXBYE\n";

RunResult record_run(const lol::CompiledProgram& prog, int n_pes,
                     ScheduleMode mode = ScheduleMode::kRecord,
                     std::uint64_t perturb_seed = 0) {
  RunConfig cfg;
  cfg.n_pes = n_pes;
  cfg.schedule = mode;
  cfg.perturb_seed = perturb_seed;
  return lol::run(prog, cfg);
}

std::shared_ptr<const Trace> parse_trace(const std::string& text) {
  std::string err;
  auto t = Trace::parse(text, &err);
  EXPECT_TRUE(t.has_value()) << err;
  return t ? std::make_shared<Trace>(std::move(*t)) : nullptr;
}

// ---------------------------------------------------------------------------
// Trace serialization
// ---------------------------------------------------------------------------

TEST(Trace, SerializeParseRoundTrip) {
  Trace t;
  t.n_pes = 4;
  t.seed = 42;
  t.perturb_seed = 7;
  t.program_hash = 0xdeadbeefcafe1234ull;
  t.perturbed = true;
  t.schedule = {0, 1, 1, 1, 2, 3, 0, 0};
  t.rng_draws = {2, 0, 0, 1};
  std::string text = t.serialize();
  std::string err;
  auto back = Trace::parse(text, &err);
  ASSERT_TRUE(back.has_value()) << err;
  EXPECT_EQ(back->n_pes, t.n_pes);
  EXPECT_EQ(back->seed, t.seed);
  EXPECT_EQ(back->perturb_seed, t.perturb_seed);
  EXPECT_EQ(back->program_hash, t.program_hash);
  EXPECT_EQ(back->perturbed, t.perturbed);
  EXPECT_EQ(back->schedule, t.schedule);
  EXPECT_EQ(back->rng_draws, t.rng_draws);
  // Round-trip is exact: re-serializing yields the same bytes.
  EXPECT_EQ(back->serialize(), text);
}

TEST(Trace, HostileInputsRejectedCleanly) {
  Trace t;
  t.n_pes = 2;
  t.seed = 1;
  t.schedule = {0, 1, 0};
  t.rng_draws = {0, 0};
  const std::string good = t.serialize();
  ASSERT_TRUE(Trace::parse(good, nullptr).has_value());

  auto rejected = [](const std::string& text) {
    std::string err;
    bool ok = Trace::parse(text, &err).has_value();
    EXPECT_FALSE(ok) << "parsed: " << text;
    if (!ok) EXPECT_FALSE(err.empty());
    return !ok;
  };

  EXPECT_TRUE(rejected(""));
  EXPECT_TRUE(rejected("not a trace"));
  EXPECT_TRUE(rejected(good.substr(0, good.size() / 2)));  // truncated
  EXPECT_TRUE(rejected(good + "extra line\n"));            // trailing junk
  // Corrupt the schedule: PE id out of range.
  {
    std::string bad = good;
    bad.replace(bad.find("\n0,"), 3, "\n9,");
    EXPECT_TRUE(rejected(bad));
  }
  // Corrupt the checksum.
  {
    std::string bad = good;
    auto fnv = bad.rfind("\"fnv\":\"");
    ASSERT_NE(fnv, std::string::npos);
    bad[fnv + 7] = bad[fnv + 7] == '0' ? '1' : '0';
    EXPECT_TRUE(rejected(bad));
  }
  // Event count disagreeing with the schedule line.
  {
    std::string bad = good;
    auto ev = bad.find("\"events\":3");
    ASSERT_NE(ev, std::string::npos);
    bad.replace(ev, 10, "\"events\":4");
    EXPECT_TRUE(rejected(bad));
  }
  // Hostile sizes: n_pes beyond the cap.
  EXPECT_TRUE(rejected(
      "{\"parallol_trace\":1,\"mode\":\"record\",\"n_pes\":65536,"
      "\"seed\":1,\"perturb_seed\":0,\"program_hash\":\"0\",\"events\":0}"
      "\n\n{\"rng_draws\":[],\"fnv\":\"84222325cbf29ce4\"}\n"));
}

TEST(Trace, MatchesChecksShape) {
  Trace t;
  t.n_pes = 4;
  t.seed = 9;
  t.program_hash = 1234;
  std::string err;
  EXPECT_TRUE(t.matches(4, 9, 1234, &err));
  EXPECT_TRUE(t.matches(4, 9, 0, &err));  // unknown hash: check skipped
  EXPECT_FALSE(t.matches(8, 9, 1234, &err));
  EXPECT_FALSE(t.matches(4, 10, 1234, &err));
  EXPECT_FALSE(t.matches(4, 9, 5678, &err));
  EXPECT_FALSE(err.empty());
}

// ---------------------------------------------------------------------------
// Record -> replay determinism
// ---------------------------------------------------------------------------

TEST(Replay, ByteIdenticalAcrossBackendsAndExecutors) {
  auto prog = lol::compile(kCounter);
  RunResult rec = record_run(prog, 4);
  ASSERT_TRUE(rec.ok) << rec.first_error();
  ASSERT_FALSE(rec.schedule_trace.empty());
  auto trace = parse_trace(rec.schedule_trace);
  ASSERT_NE(trace, nullptr);

  std::vector<Backend> backends = {Backend::kInterp, Backend::kVm};
  if (lol::codegen::jit_available()) backends.push_back(Backend::kJit);
  for (Backend be : backends) {
    for (ExecutorKind ex :
         {ExecutorKind::kThread, ExecutorKind::kPool, ExecutorKind::kFiber}) {
      RunConfig cfg;
      cfg.n_pes = 4;
      cfg.backend = be;
      cfg.executor = ex;
      cfg.schedule = ScheduleMode::kReplay;
      cfg.replay_trace = trace;
      RunResult rep = lol::run(prog, cfg);
      ASSERT_TRUE(rep.ok) << lol::to_string(be) << "/"
                          << lol::shmem::to_string(ex) << ": "
                          << rep.first_error();
      EXPECT_FALSE(rep.replay_diverged);
      EXPECT_EQ(rep.pe_output, rec.pe_output)
          << lol::to_string(be) << "/" << lol::shmem::to_string(ex);
      EXPECT_EQ(rep.pe_errout, rec.pe_errout);
    }
  }
}

TEST(Replay, PerturbSeedIsReproducibleAndRecordsReplayably) {
  auto prog = lol::compile(kCounter);
  RunResult a = record_run(prog, 4, ScheduleMode::kPerturb, 99);
  RunResult b = record_run(prog, 4, ScheduleMode::kPerturb, 99);
  ASSERT_TRUE(a.ok) << a.first_error();
  EXPECT_EQ(a.schedule_trace, b.schedule_trace);
  EXPECT_EQ(a.pe_output, b.pe_output);

  RunConfig cfg;
  cfg.n_pes = 4;
  cfg.schedule = ScheduleMode::kReplay;
  cfg.replay_trace = parse_trace(a.schedule_trace);
  ASSERT_NE(cfg.replay_trace, nullptr);
  RunResult rep = lol::run(prog, cfg);
  ASSERT_TRUE(rep.ok) << rep.first_error();
  EXPECT_EQ(rep.pe_output, a.pe_output);
}

TEST(Replay, PerturbationExposesRaceAndFailingSeedReplaysExactly) {
  // The acceptance fixture: shake the race until some seed's output
  // differs from the round-robin baseline, then replay that seed's trace
  // on every executor and get the racy output byte-for-byte again.
  auto prog = lol::compile(kRace);
  RunResult base = record_run(prog, 8);
  ASSERT_TRUE(base.ok) << base.first_error();

  RunResult divergent;
  bool found = false;
  for (std::uint64_t seed = 1; seed <= 16 && !found; ++seed) {
    RunResult r = record_run(prog, 8, ScheduleMode::kPerturb, seed);
    ASSERT_TRUE(r.ok) << r.first_error();
    if (r.pe_output != base.pe_output) {
      divergent = std::move(r);
      found = true;
    }
  }
  ASSERT_TRUE(found) << "no seed in 1..16 exposed the missing-HUGZ race";

  auto trace = parse_trace(divergent.schedule_trace);
  ASSERT_NE(trace, nullptr);
  for (ExecutorKind ex :
       {ExecutorKind::kThread, ExecutorKind::kPool, ExecutorKind::kFiber}) {
    RunConfig cfg;
    cfg.n_pes = 8;
    cfg.executor = ex;
    cfg.schedule = ScheduleMode::kReplay;
    cfg.replay_trace = trace;
    RunResult rep = lol::run(prog, cfg);
    ASSERT_TRUE(rep.ok) << rep.first_error();
    EXPECT_EQ(rep.pe_output, divergent.pe_output)
        << "executor " << lol::shmem::to_string(ex);
  }
}

TEST(Replay, DivergenceDetectedAgainstWrongProgram) {
  // A trace recorded from the counter program cannot drive the racy
  // program: the schedules disagree, and the run must fail as a
  // diagnosed divergence rather than hang or silently succeed.
  auto counter = lol::compile(kCounter);
  RunResult rec = record_run(counter, 4);
  ASSERT_TRUE(rec.ok);
  RunConfig cfg;
  cfg.n_pes = 4;
  cfg.schedule = ScheduleMode::kReplay;
  cfg.replay_trace = parse_trace(rec.schedule_trace);
  ASSERT_NE(cfg.replay_trace, nullptr);
  auto race = lol::compile(kRace);
  RunResult rep = lol::run(race, cfg);
  EXPECT_FALSE(rep.ok);
  EXPECT_TRUE(rep.replay_diverged) << rep.first_error();
  EXPECT_NE(rep.first_error().find("diverg"), std::string::npos)
      << rep.first_error();
}

TEST(Replay, ReplayWithoutTraceIsAnError) {
  auto prog = lol::compile(kCounter);
  RunConfig cfg;
  cfg.n_pes = 2;
  cfg.schedule = ScheduleMode::kReplay;
  RunResult r = lol::run(prog, cfg);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.first_error().find("trace"), std::string::npos);
}

TEST(Replay, ControllerDiagnosesScheduleDeadlock) {
  // PE 0 enters the barrier holding the lock PE 1 needs: a genuine
  // deadlock. Free-running this would wedge until an external deadline;
  // under the controller it aborts with a diagnosis.
  const char* deadlock =
      "HAI 1.2\n"
      "WE HAS A x ITZ SRSLY A NUMBR AN IM SHARIN IT\n"
      "IM SRSLY MESIN WIF UR x\n"
      "HUGZ\n"
      "DUN MESIN WIF UR x\n"
      "KTHXBYE\n";
  auto prog = lol::compile(deadlock);
  RunResult r = record_run(prog, 2);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.first_error().find("deadlock"), std::string::npos)
      << r.first_error();
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

TEST(Fault, SpecParsingAndRoundTrip) {
  FaultPlan plan;
  std::string err;
  ASSERT_TRUE(
      lol::replay::parse_fault_spec("pe=3@step=100,noc=4.5,input=2", &plan,
                                    &err))
      << err;
  EXPECT_EQ(plan.kill_pe, 3);
  EXPECT_EQ(plan.kill_step, 100u);
  EXPECT_DOUBLE_EQ(plan.noc_factor, 4.5);
  EXPECT_EQ(plan.input_fail_after, 2);
  // to_spec output parses back to the same plan.
  FaultPlan back;
  ASSERT_TRUE(
      lol::replay::parse_fault_spec(lol::replay::to_spec(plan), &back, &err));
  EXPECT_EQ(back.kill_pe, plan.kill_pe);
  EXPECT_EQ(back.kill_step, plan.kill_step);

  for (const char* bad :
       {"pe=1", "pe=@step=2", "pe=1@step=0", "pe=9999@step=1", "noc=0.5",
        "noc=x", "input=-1", "wat=1", "pe=1@step=2,,noc=2"}) {
    EXPECT_FALSE(lol::replay::parse_fault_spec(bad, nullptr, &err)) << bad;
  }
  // An empty spec is a valid no-fault plan.
  FaultPlan none;
  EXPECT_TRUE(lol::replay::parse_fault_spec("", &none, &err));
  EXPECT_FALSE(none.any());
}

TEST(Fault, KillPeMidBarrierFlagsPeFailed) {
  auto prog = lol::compile(kCounter);
  RunConfig cfg;
  cfg.n_pes = 4;
  std::string err;
  ASSERT_TRUE(lol::replay::parse_fault_spec("pe=2@step=3", &cfg.fault, &err));
  RunResult r = lol::run(prog, cfg);
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(r.pe_failed);
  EXPECT_FALSE(r.step_limited);
  EXPECT_NE(r.first_error().find("killed by fault injection"),
            std::string::npos)
      << r.first_error();
}

TEST(Fault, NocSpikeScalesSimulatedTime) {
  auto prog = lol::compile(kCounter);
  RunConfig cfg;
  cfg.n_pes = 4;
  cfg.machine = lol::noc::by_name("epiphany3");
  ASSERT_NE(cfg.machine, nullptr);
  RunResult base = lol::run(prog, cfg);
  ASSERT_TRUE(base.ok) << base.first_error();

  std::string err;
  ASSERT_TRUE(lol::replay::parse_fault_spec("noc=10", &cfg.fault, &err));
  RunResult spiked = lol::run(prog, cfg);
  ASSERT_TRUE(spiked.ok) << spiked.first_error();
  EXPECT_NEAR(spiked.max_sim_ns(), 10.0 * base.max_sim_ns(),
              1e-6 * spiked.max_sim_ns());
}

TEST(Fault, NocSpikeWithoutMachineModelIsAnError) {
  auto prog = lol::compile(kCounter);
  RunConfig cfg;
  cfg.n_pes = 2;
  std::string err;
  ASSERT_TRUE(lol::replay::parse_fault_spec("noc=10", &cfg.fault, &err));
  RunResult r = lol::run(prog, cfg);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.first_error().find("machine"), std::string::npos);
}

TEST(Fault, InputSourceDiesMidStream) {
  const char* reader =
      "HAI 1.2\n"
      "I HAS A a\nI HAS A b\nI HAS A c\n"
      "GIMMEH a\nVISIBLE a\nGIMMEH b\nVISIBLE b\nGIMMEH c\nVISIBLE c\n"
      "KTHXBYE\n";
  auto prog = lol::compile(reader);
  RunConfig cfg;
  cfg.n_pes = 1;
  cfg.stdin_lines = {"one", "two", "three"};
  std::string err;
  ASSERT_TRUE(lol::replay::parse_fault_spec("input=2", &cfg.fault, &err));
  RunResult r = lol::run(prog, cfg);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.first_error().find("fault injection"), std::string::npos)
      << r.first_error();
  // The first two reads succeeded before the source died.
  EXPECT_EQ(r.pe_output[0], "one\ntwo\n");
}

// ---------------------------------------------------------------------------
// Service + wire plumbing
// ---------------------------------------------------------------------------

TEST(ReplayService, RecordThenReplayThroughJobs) {
  Service svc(ServiceOptions{});
  Job rec;
  rec.name = "rec";
  rec.source = kCounter;
  rec.n_pes = 4;
  rec.schedule = ScheduleMode::kRecord;
  JobResult rr = svc.submit(rec).get();
  ASSERT_EQ(rr.status, JobStatus::kOk) << rr.error;
  ASSERT_FALSE(rr.schedule_trace.empty());

  Job rep = rec;
  rep.name = "rep";
  rep.schedule = ScheduleMode::kReplay;
  rep.replay_trace = rr.schedule_trace;
  JobResult pr = svc.submit(rep).get();
  EXPECT_EQ(pr.status, JobStatus::kOk) << pr.error;
  EXPECT_EQ(pr.pe_output, rr.pe_output);
  EXPECT_TRUE(pr.schedule_trace.empty());  // replay does not re-record
}

TEST(ReplayService, BadTraceAndBadFaultSpecAreRejected) {
  Service svc(ServiceOptions{});
  Job bad;
  bad.name = "bad-trace";
  bad.source = kCounter;
  bad.n_pes = 2;
  bad.schedule = ScheduleMode::kReplay;
  bad.replay_trace = "definitely not a trace";
  JobResult r = svc.submit(bad).get();
  EXPECT_EQ(r.status, JobStatus::kRejected);
  EXPECT_NE(r.error.find("trace"), std::string::npos);

  Job badf;
  badf.name = "bad-fault";
  badf.source = kCounter;
  badf.n_pes = 2;
  badf.fault_spec = "pe=1";
  JobResult rf = svc.submit(badf).get();
  EXPECT_EQ(rf.status, JobStatus::kRejected);
  EXPECT_NE(rf.error.find("fault"), std::string::npos);
}

TEST(ReplayService, KillFaultClassifiesAsPeFailedQuickly) {
  // The fault-smoke acceptance check: killing a PE mid-barrier resolves
  // the job as pe-failed promptly (the gang aborts; nothing waits for a
  // deadline), and the status is distinct from step-limit/runtime-error.
  Service svc(ServiceOptions{});
  Job j;
  j.name = "killed";
  j.source = kCounter;
  j.n_pes = 4;
  j.fault_spec = "pe=3@step=2";
  auto t0 = std::chrono::steady_clock::now();
  JobResult r = svc.submit(j).get();
  double ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
  EXPECT_EQ(r.status, JobStatus::kPeFailed) << r.error;
  EXPECT_LT(ms, 1000.0);
  EXPECT_EQ(svc.stats().pe_failed, 1u);
}

TEST(ReplayWire, SubmitLineRoundTripsScheduleAndFault) {
  Job j;
  j.name = "w";
  j.source = kRace;
  j.n_pes = 8;
  j.schedule = ScheduleMode::kPerturb;
  j.perturb_seed = 123;
  j.fault_spec = "pe=1@step=9";
  j.replay_trace = "line1\nline2\n";
  std::string line = lol::service::wire::submit_line(j);
  std::string err;
  auto req = lol::service::wire::parse_request(line, &err);
  ASSERT_TRUE(req.has_value()) << err;
  EXPECT_EQ(req->job.schedule, ScheduleMode::kPerturb);
  EXPECT_EQ(req->job.perturb_seed, 123u);
  EXPECT_EQ(req->job.fault_spec, "pe=1@step=9");
  EXPECT_EQ(req->job.replay_trace, "line1\nline2\n");

  // Unknown schedule names are protocol errors, like unknown backends.
  auto bad = lol::service::wire::parse_request(
      "{\"op\":\"submit\",\"source\":\"HAI 1.2\\nKTHXBYE\","
      "\"schedule\":\"chaotic\"}",
      &err);
  EXPECT_FALSE(bad.has_value());
  EXPECT_NE(err.find("schedule"), std::string::npos);
}

TEST(ReplayWire, ResultLineCarriesScheduleTrace) {
  JobResult r;
  r.id = 7;
  r.name = "t";
  r.status = JobStatus::kOk;
  r.schedule_trace = "{\"parallol_trace\":1}\n0\n{}\n";
  std::string line = lol::service::wire::result_line(r);
  EXPECT_NE(line.find("\"sched_trace\""), std::string::npos);
  std::string err;
  auto doc = lol::service::wire::parse_json(line, &err);
  ASSERT_TRUE(doc.has_value()) << err;
  const auto* trace = doc->find("sched_trace");
  ASSERT_NE(trace, nullptr);
  EXPECT_EQ(trace->str, r.schedule_trace);

  // Absent when the run was not recorded.
  r.schedule_trace.clear();
  EXPECT_EQ(lol::service::wire::result_line(r).find("sched_trace"),
            std::string::npos);
}

}  // namespace
