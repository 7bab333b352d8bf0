#include "service/service.hpp"

#include <algorithm>
#include <utility>

#include "obs/metrics.hpp"
#include "opt/opt.hpp"
#include "opt/tuner.hpp"

namespace lol::service {

namespace {

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// Global service metrics, resolved once. Per-Service exact counts live
/// in Service::AtomicStats; these registry instruments aggregate across
/// every Service in the process (a daemon runs exactly one) and feed the
/// Prometheus exposition. Tenant-labelled families are protected by the
/// registry's cardinality cap: a hostile client inventing tenant names
/// lands in the "_other" series instead of growing the process.
struct SvcMetrics {
  obs::Counter& submitted;
  obs::CounterFamily& done_by_status;
  obs::Gauge& queue_depth;
  obs::Gauge& running;
  obs::Histogram& queue_wait_ms;
  obs::Histogram& total_ms;
  obs::CounterFamily& deadline_by_tenant;
  obs::CounterFamily& quota_by_tenant;
  obs::Counter& tuner_applied;
  SvcMetrics()
      : submitted(obs::Registry::global().counter(
            "lol_jobs_submitted_total", "Jobs accepted by submit_job")),
        done_by_status(obs::Registry::global().counter_family(
            "lol_jobs_done_total",
            "Jobs whose result was delivered, by final status", "status")),
        queue_depth(obs::Registry::global().gauge(
            "lol_queue_depth", "Jobs queued and not yet picked up")),
        running(obs::Registry::global().gauge(
            "lol_jobs_running", "Jobs currently executing on workers")),
        queue_wait_ms(obs::Registry::global().histogram(
            "lol_queue_wait_ms", "Submit-to-worker-pickup latency (ms)",
            {1, 5, 20, 100, 500, 2000})),
        total_ms(obs::Registry::global().histogram(
            "lol_job_total_ms",
            "End-to-end latency, submit to result delivered (ms)",
            {1, 5, 20, 100, 500, 2000, 10000})),
        deadline_by_tenant(obs::Registry::global().counter_family(
            "lol_deadline_exceeded_total",
            "Jobs killed by the wall-clock deadline reaper, by tenant",
            "tenant")),
        quota_by_tenant(obs::Registry::global().counter_family(
            "lol_quota_rejected_total",
            "Submissions refused by the per-tenant queued-job quota, "
            "by tenant",
            "tenant")),
        tuner_applied(obs::Registry::global().counter(
            "lol_tuner_applied_total",
            "Jobs that ran with persisted auto-tuned knobs applied")) {}
};

SvcMetrics& svc_metrics() {
  static SvcMetrics m;
  return m;
}

}  // namespace

Service::Service(ServiceOptions opts)
    : opts_(std::move(opts)),
      cache_(opts_.cache_capacity, opts_.cache_bytes) {
  if (!opts_.tuner_cache_path.empty()) {
    tuner_ = std::make_unique<opt::TunerStore>(opts_.tuner_cache_path);
  }
  opts_.workers = std::max(1, opts_.workers);
  opts_.queue_capacity = std::max<std::size_t>(1, opts_.queue_capacity);
  opts_.default_tenant_weight = std::max(1, opts_.default_tenant_weight);
  if (!opts_.start_paused) start();
}

Service::~Service() { shutdown(); }

void Service::start_locked() {
  if (started_) return;
  started_ = true;
  workers_.reserve(static_cast<std::size_t>(opts_.workers));
  for (int i = 0; i < opts_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  reaper_ = std::thread([this] { reaper_loop(); });
}

void Service::start() {
  std::lock_guard<std::mutex> g(m_);
  if (stopping_) return;
  start_locked();
}

void Service::shutdown() {
  {
    std::lock_guard<std::mutex> g(m_);
    if (stopping_) return;
    stopping_ = true;
    // A paused service still owes every queued future a result; workers
    // drain the queue before exiting, so start them now if need be.
    start_locked();
  }
  not_empty_.notify_all();
  not_full_.notify_all();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
  // The reaper outlives the workers: deadlines must keep firing while
  // the drain runs, or a wedged job would hang shutdown forever.
  {
    std::lock_guard<std::mutex> g(reaper_m_);
    reaper_stop_ = true;
  }
  reaper_cv_.notify_all();
  if (reaper_.joinable()) reaper_.join();
}

Service::Submission Service::submit_job(Job job, Callback on_done) {
  Pending p;
  p.job = std::move(job);
  p.on_done = std::move(on_done);
  p.enqueued = std::chrono::steady_clock::now();
  Submission sub;
  sub.result = p.promise.get_future();

  std::unique_lock<std::mutex> g(m_);
  sub.id = next_id_++;
  p.id = sub.id;
  counts_.submitted.fetch_add(1, std::memory_order_relaxed);
  svc_metrics().submitted.inc();

  auto refuse = [&](JobStatus status, const std::string& why) {
    JobResult r;
    r.id = p.id;
    r.name = p.job.name;
    r.tenant = p.job.tenant;
    r.status = status;
    r.error = why;
    // Refused jobs never reach a worker; their whole lifecycle is the
    // queued span (submit to refusal, effectively instantaneous).
    r.trace.push_back({"queued", 0.0, ms_since(p.enqueued)});
    if (status == JobStatus::kQuotaExceeded) {
      counts_.quota_rejected.fetch_add(1, std::memory_order_relaxed);
      svc_metrics().quota_by_tenant.with(p.job.tenant).inc();
    } else {
      counts_.rejected.fetch_add(1, std::memory_order_relaxed);
    }
    svc_metrics().done_by_status.with(to_string(status)).inc();
    g.unlock();
    deliver(p, std::move(r));
    return std::move(sub);
  };
  auto reject = [&](const char* why) {
    return refuse(JobStatus::kRejected, why);
  };
  auto over_quota = [&] {
    if (opts_.max_queued_per_tenant == 0) return false;
    auto t = tenants_.find(p.job.tenant);
    return t != tenants_.end() &&
           t->second.q.size() >= opts_.max_queued_per_tenant;
  };
  auto refuse_quota = [&] {
    return refuse(JobStatus::kQuotaExceeded,
                  "tenant quota exceeded (" +
                      std::to_string(opts_.max_queued_per_tenant) +
                      " queued jobs)");
  };

  if (stopping_) return reject("service is shutting down");

  // Per-tenant quota before the global bound: a flooding tenant is
  // refused outright (distinguishable status, no blocking) rather than
  // being allowed to fill the shared queue or park on not_full_.
  if (over_quota()) return refuse_quota();

  if (queued_total_ >= opts_.queue_capacity) {
    if (opts_.queue_full == QueueFullPolicy::kReject) {
      return reject("queue full");
    }
    not_full_.wait(g, [&] {
      return queued_total_ < opts_.queue_capacity || stopping_;
    });
    if (stopping_) return reject("service is shutting down");
    // Re-check: siblings of this tenant may have refilled its queue
    // while this submitter was parked on the global bound.
    if (over_quota()) return refuse_quota();
  }

  auto [it, inserted] = tenants_.try_emplace(p.job.tenant);
  TenantState& ts = it->second;
  if (inserted) {
    ts.name = p.job.tenant;
    auto w = opts_.tenant_weights.find(p.job.tenant);
    ts.weight = std::max(1, w != opts_.tenant_weights.end()
                                ? w->second
                                : opts_.default_tenant_weight);
  }
  ts.q.push_back(std::move(p));
  if (!ts.in_rotation) {
    ts.in_rotation = true;
    rotation_.push_back(&ts);
  }
  ++queued_total_;
  svc_metrics().queue_depth.add(1);
  g.unlock();
  not_empty_.notify_one();
  return sub;
}

Service::Pending Service::pop_locked() {
  for (;;) {
    TenantState* t = rotation_.front();
    if (t->q.empty()) {
      // cancel() can drain a tenant that is still in the rotation.
      rotation_.pop_front();
      // Reap drained tenants: names are client-chosen in daemon mode,
      // so keeping entries forever would be an unbounded-memory DoS.
      // (Copy the key — erasing through a reference into the node is
      // use-after-free bait.)
      std::string name = t->name;
      tenants_.erase(name);
      continue;
    }
    if (t->credit == 0) t->credit = t->weight;  // new DRR round
    Pending p = std::move(t->q.front());
    t->q.pop_front();
    --queued_total_;
    svc_metrics().queue_depth.sub(1);
    if (--t->credit == 0 || t->q.empty()) {
      rotation_.pop_front();
      if (t->q.empty()) {
        std::string name = t->name;
        tenants_.erase(name);
      } else {
        rotation_.push_back(t);  // spent its round; go to the back
      }
    }
    return p;
  }
}

void Service::worker_loop() {
  for (;;) {
    Pending p;
    std::shared_ptr<Inflight> inflight;
    {
      std::unique_lock<std::mutex> g(m_);
      not_empty_.wait(g, [&] { return queued_total_ > 0 || stopping_; });
      if (queued_total_ == 0) return;  // stopping and drained
      p = pop_locked();
      // Register before releasing the lock so cancel(id) never sees a
      // job that is neither queued nor running.
      inflight = std::make_shared<Inflight>();
      running_.emplace(p.id, inflight);
    }
    svc_metrics().running.add(1);
    not_full_.notify_one();

    // Resolve the wall-clock budget like the step budget: job request,
    // else service default, everything clamped to the cap.
    std::uint64_t deadline_ms = p.job.deadline_ms == 0
                                    ? opts_.default_deadline_ms
                                    : p.job.deadline_ms;
    if (opts_.deadline_ms_cap != 0) {
      deadline_ms = deadline_ms == 0
                        ? opts_.deadline_ms_cap
                        : std::min(deadline_ms, opts_.deadline_ms_cap);
    }
    if (deadline_ms != 0) {
      arm_deadline(std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(deadline_ms),
                   inflight);
    }

    JobResult r;
    try {
      r = execute(p, *inflight, ms_since(p.enqueued));
    } catch (const std::exception& e) {
      // lol::run can throw outside the per-PE guards (heap allocation in
      // the Runtime constructor, thread exhaustion in launch). A worker
      // must never die with the job — that would take the process down.
      r = JobResult{};
      r.id = p.id;
      r.name = p.job.name;
      r.tenant = p.job.tenant;
      r.status = JobStatus::kRuntimeError;
      r.error = e.what();
    }
    if (r.status == JobStatus::kDeadlineExceeded && deadline_ms != 0) {
      r.error = "deadline of " + std::to_string(deadline_ms) +
                " ms exceeded (job aborted)";
    }
    inflight->done.store(true, std::memory_order_release);
    {
      std::lock_guard<std::mutex> g(m_);
      running_.erase(p.id);
    }
    svc_metrics().running.sub(1);
    record(r);
    deliver(p, std::move(r));
  }
}

JobResult Service::execute(Pending& p, Inflight& inflight, double queue_ms) {
  Job& job = p.job;
  auto t0 = std::chrono::steady_clock::now();
  JobResult r;
  r.id = p.id;
  r.name = job.name;
  r.tenant = job.tenant;
  r.queue_ms = queue_ms;
  // Lifecycle trace: spans are timestamped as offsets from submission
  // (queued start = 0), so a tail-latency outlier in the done event is
  // attributable to a phase at a glance.
  r.trace.push_back({"queued", 0.0, queue_ms});

  // Optimization happens once, at cache-insert time: every later job
  // for this (source, level) — on any backend — runs the same
  // already-optimized program.
  CompileOptions copts;
  copts.opt_level = std::clamp(job.opt_level, 0, 2);
  // The tuner's unroll preference is a *compile* knob, so the lookup
  // happens before the compile cache: a tuned budget selects (or
  // populates) a distinct cache entry. Same guardrails as the runtime
  // knobs below: never under record/replay.
  std::optional<opt::TunedKnobs> tuned;
  if (tuner_ != nullptr && job.schedule == replay::ScheduleMode::kNone) {
    tuned = tuner_->lookup(
        replay::fnv1a(job.source),
        std::clamp(job.n_pes, 1, std::max(1, opts_.max_pes)));
  }
  if (tuned && tuned->unroll_max_trip != 0 && copts.opt_level >= 2) {
    copts.unroll_max_trip = tuned->unroll_value();
  }
  CachedCompile compiled =
      cache_.get_or_compile(job.source, copts, &r.compile_cache_hit);
  double compile_ms = ms_since(t0);
  r.trace.push_back({r.compile_cache_hit ? "compile[cached]" : "compile",
                     queue_ms, compile_ms});
  if (!compiled.ok()) {
    r.status = JobStatus::kCompileError;
    r.error = compiled.error;
    r.run_ms = ms_since(t0);
    return r;
  }

  RunConfig cfg;
  cfg.n_pes = std::clamp(job.n_pes, 1, std::max(1, opts_.max_pes));
  cfg.backend = job.backend;
  cfg.seed = job.seed;
  cfg.stdin_lines = job.stdin_lines;
  cfg.input = job.input;
  cfg.abort = &inflight.token;
  cfg.max_steps =
      job.max_steps == 0 ? opts_.default_max_steps : job.max_steps;
  if (opts_.max_steps_cap != 0) {
    // The cap is a hard ceiling: an "unlimited" (0) resolved budget is
    // clamped down to it too, or a looping job would wedge a worker.
    cfg.max_steps = cfg.max_steps == 0
                        ? opts_.max_steps_cap
                        : std::min(cfg.max_steps, opts_.max_steps_cap);
  }
  cfg.heap_bytes = job.heap_bytes;
  if (opts_.heap_bytes_cap != 0) {
    cfg.heap_bytes = std::min(cfg.heap_bytes, opts_.heap_bytes_cap);
  }
  cfg.executor = job.executor;
  cfg.pes_per_thread = job.pes_per_thread;
  cfg.barrier_radix = job.barrier_radix;  // Runtime clamps hostile fan-ins

  // Warm-hit auto-tuning: apply the persisted calibration winner for
  // this (program, n_pes), but only the knobs the job left at their
  // defaults — an explicit request always wins — and never under
  // record/replay, whose traces are schedule-shape-sensitive. Outputs
  // are knob-invariant by construction; this trades wall-clock only.
  if (tuner_ != nullptr && job.schedule == replay::ScheduleMode::kNone) {
    if (const auto& k = tuned) {
      std::string applied;
      auto note = [&applied](const std::string& kv) {
        if (!applied.empty()) applied += ' ';
        applied += kv;
      };
      if (k->barrier_radix != 0 && job.barrier_radix < 2) {
        cfg.barrier_radix = k->barrier_radix;
        note("barrier_radix=" + std::to_string(k->barrier_radix));
      }
      if (!k->executor.empty() &&
          job.executor == shmem::ExecutorKind::kPool) {
        if (auto e = shmem::executor_from_name(k->executor)) {
          cfg.executor = *e;
          note("executor=" + k->executor);
        }
      }
      if (k->pes_per_thread != 0 && job.pes_per_thread == 0 &&
          cfg.executor == shmem::ExecutorKind::kFiber) {
        cfg.pes_per_thread = k->pes_per_thread;
        note("pes_per_thread=" + std::to_string(k->pes_per_thread));
      }
      if (k->unroll_max_trip != 0 && copts.opt_level >= 2) {
        note("unroll_max_trip=" + std::to_string(k->unroll_value()));
      }
      if (!applied.empty()) {
        r.tuned = std::move(applied);
        svc_metrics().tuner_applied.inc();
      }
    }
  }

  // Deterministic scheduling + fault injection. Traces are keyed on the
  // source hash mixed with the optimization config (the optimized
  // program has different step counts), so a stale trace against edited
  // code or a different opt level is refused up front.
  cfg.schedule = job.schedule;
  cfg.perturb_seed = job.perturb_seed;
  cfg.program_hash = opt::mix_hash(replay::fnv1a(job.source),
                                   copts.opt_level, copts.unroll_max_trip);
  std::shared_ptr<replay::Trace> trace;
  if (job.schedule == replay::ScheduleMode::kReplay) {
    std::string terr;
    auto parsed = replay::Trace::parse(job.replay_trace, &terr);
    if (!parsed) {
      r.status = JobStatus::kRejected;
      r.error = "bad replay trace: " + terr;
      r.run_ms = ms_since(t0);
      return r;
    }
    trace = std::make_shared<replay::Trace>(std::move(*parsed));
    cfg.replay_trace = trace;
  }
  if (!job.fault_spec.empty()) {
    std::string ferr;
    if (!replay::parse_fault_spec(job.fault_spec, &cfg.fault, &ferr)) {
      r.status = JobStatus::kRejected;
      r.error = ferr;
      r.run_ms = ms_since(t0);
      return r;
    }
  }

  RunResult run = lol::run(*compiled.program, cfg);
  if (job.backend == Backend::kJit) {
    // A first JIT run memoized sealed machine code on the cached
    // program; fold those bytes into the compile cache's byte budget.
    cache_.recharge(job.source, copts);
  }
  const double setup_start = queue_ms + compile_ms;
  const double claim_start = setup_start + run.setup_ms;
  r.trace.push_back({"setup", setup_start, run.setup_ms});
  r.trace.push_back({"claim", claim_start, run.claim_ms});
  r.trace.push_back({"run", claim_start + run.claim_ms, run.exec_ms});
  r.pe_output = std::move(run.pe_output);
  r.pe_errout = std::move(run.pe_errout);
  r.schedule_trace = std::move(run.schedule_trace);
  // A completed run beats a late abort; otherwise the abort reason (set
  // before the token fired) decides how the failure is reported.
  int reason = inflight.abort_reason.load(std::memory_order_acquire);
  if (run.ok) {
    r.status = JobStatus::kOk;
  } else if (reason == kReasonCancel) {
    r.status = JobStatus::kCancelled;
    r.error = "cancelled while running";
  } else if (reason == kReasonDeadline) {
    r.status = JobStatus::kDeadlineExceeded;
    r.error = "deadline exceeded (job aborted)";  // worker adds the budget
  } else if (run.pe_failed) {
    r.status = JobStatus::kPeFailed;
    r.error = run.first_error();
  } else if (run.replay_diverged) {
    r.status = JobStatus::kReplayDiverged;
    r.error = run.first_error();
  } else if (run.step_limited) {
    r.status = JobStatus::kStepLimit;
    r.error = run.first_error();
  } else {
    r.status = JobStatus::kRuntimeError;
    r.error = run.first_error();
  }
  r.run_ms = ms_since(t0);
  // Whatever execute() spent past the gang join — output moves, status
  // classification — is the drain phase.
  double drain_ms =
      r.run_ms - compile_ms - run.setup_ms - run.claim_ms - run.exec_ms;
  if (drain_ms < 0.0) drain_ms = 0.0;
  r.trace.push_back({"drain", queue_ms + r.run_ms - drain_ms, drain_ms});
  return r;
}

bool Service::cancel(JobId id) {
  std::unique_lock<std::mutex> g(m_);
  // Still queued? Remove it; it never runs.
  for (auto& [name, ts] : tenants_) {
    for (auto it = ts.q.begin(); it != ts.q.end(); ++it) {
      if (it->id != id) continue;
      Pending p = std::move(*it);
      ts.q.erase(it);
      --queued_total_;
      svc_metrics().queue_depth.sub(1);
      counts_.cancelled.fetch_add(1, std::memory_order_relaxed);
      if (ts.q.empty()) {
        // Reap the drained tenant now rather than leaving it parked in
        // the rotation until the next pop (which may never come).
        auto rit = std::find(rotation_.begin(), rotation_.end(), &ts);
        if (rit != rotation_.end()) rotation_.erase(rit);
        std::string key = name;
        tenants_.erase(key);
      }
      g.unlock();
      not_full_.notify_one();
      JobResult r;
      r.id = p.id;
      r.name = p.job.name;
      r.tenant = p.job.tenant;
      r.status = JobStatus::kCancelled;
      r.error = "cancelled while queued";
      r.trace.push_back({"queued", 0.0, ms_since(p.enqueued)});
      svc_metrics().done_by_status.with(to_string(r.status)).inc();
      deliver(p, std::move(r));
      return true;
    }
  }
  // In flight? Abort its runtime through the shared token.
  auto it = running_.find(id);
  if (it == running_.end()) return false;
  std::shared_ptr<Inflight> inflight = it->second;
  g.unlock();
  int expected = kReasonNone;
  inflight->abort_reason.compare_exchange_strong(expected, kReasonCancel,
                                                 std::memory_order_acq_rel);
  // Fire even if the deadline reaper won the race — request() is
  // idempotent and the job must still die.
  inflight->token.request();
  return true;
}

void Service::arm_deadline(std::chrono::steady_clock::time_point when,
                           const std::shared_ptr<Inflight>& inflight) {
  {
    std::lock_guard<std::mutex> g(reaper_m_);
    reap_.push(ReapEntry{when, inflight});
  }
  reaper_cv_.notify_one();
}

void Service::reaper_loop() {
  std::unique_lock<std::mutex> g(reaper_m_);
  for (;;) {
    if (reaper_stop_) return;
    if (reap_.empty()) {
      reaper_cv_.wait(g, [&] { return reaper_stop_ || !reap_.empty(); });
      continue;
    }
    auto when = reap_.top().when;
    if (std::chrono::steady_clock::now() < when) {
      // Wake on the next expiry, a new (possibly earlier) entry, or stop;
      // the loop re-evaluates whichever happened.
      reaper_cv_.wait_until(g, when);
      continue;
    }
    ReapEntry e = reap_.top();
    reap_.pop();
    g.unlock();
    if (!e.inflight->done.load(std::memory_order_acquire)) {
      int expected = kReasonNone;
      if (e.inflight->abort_reason.compare_exchange_strong(
              expected, kReasonDeadline, std::memory_order_acq_rel)) {
        e.inflight->token.request();
      }
    }
    g.lock();
  }
}

void Service::deliver(Pending& p, JobResult r) {
  if (p.on_done) {
    try {
      p.on_done(r);
    } catch (...) {
      // A throwing callback must not kill the worker or drop the future.
    }
  }
  p.promise.set_value(std::move(r));
}

void Service::record(const JobResult& r) {
  // Lock-free: workers record results without touching m_, so a result
  // landing never contends with submitters or monitoring scrapes.
  auto bump = [](std::atomic<std::uint64_t>& c) {
    c.fetch_add(1, std::memory_order_relaxed);
  };
  // A job refused inside execute() (bad replay trace or fault spec)
  // never ran: it counts as rejected, like a queue-full refusal.
  bump(r.status == JobStatus::kRejected ? counts_.rejected
                                        : counts_.completed);
  switch (r.status) {
    case JobStatus::kOk: bump(counts_.ok); break;
    case JobStatus::kCompileError: bump(counts_.compile_errors); break;
    case JobStatus::kRuntimeError: bump(counts_.runtime_errors); break;
    case JobStatus::kStepLimit: bump(counts_.step_limited); break;
    case JobStatus::kDeadlineExceeded:
      bump(counts_.deadline_exceeded);
      svc_metrics().deadline_by_tenant.with(r.tenant).inc();
      break;
    case JobStatus::kCancelled: bump(counts_.cancelled); break;
    case JobStatus::kRejected: break;       // counted above
    case JobStatus::kQuotaExceeded: break;  // never ran; never reaches here
    case JobStatus::kPeFailed: bump(counts_.pe_failed); break;
    case JobStatus::kReplayDiverged: bump(counts_.replay_diverged); break;
  }
  svc_metrics().done_by_status.with(to_string(r.status)).inc();
  svc_metrics().queue_wait_ms.observe(r.queue_ms);
  svc_metrics().total_ms.observe(r.queue_ms + r.run_ms);
}

Service::Stats Service::stats() const {
  // Assembled from relaxed loads — no service mutex, so a monitoring
  // scrape can never stall submitters or workers (the old snapshot
  // copied stats_ under m_). The cache keeps its own (cold) lock.
  auto load = [](const std::atomic<std::uint64_t>& c) {
    return c.load(std::memory_order_relaxed);
  };
  Stats s;
  s.submitted = load(counts_.submitted);
  s.completed = load(counts_.completed);
  s.ok = load(counts_.ok);
  s.compile_errors = load(counts_.compile_errors);
  s.runtime_errors = load(counts_.runtime_errors);
  s.step_limited = load(counts_.step_limited);
  s.deadline_exceeded = load(counts_.deadline_exceeded);
  s.cancelled = load(counts_.cancelled);
  s.rejected = load(counts_.rejected);
  s.quota_rejected = load(counts_.quota_rejected);
  s.pe_failed = load(counts_.pe_failed);
  s.replay_diverged = load(counts_.replay_diverged);
  s.cache = cache_.stats();
  return s;
}

std::size_t Service::queue_depth() const {
  std::lock_guard<std::mutex> g(m_);
  return queued_total_;
}

std::size_t Service::running_depth() const {
  std::lock_guard<std::mutex> g(m_);
  return running_.size();
}

}  // namespace lol::service
