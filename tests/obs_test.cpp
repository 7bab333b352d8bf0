// Observability tests: the metrics registry (atomicity, histogram
// bucket semantics, label-cardinality cap, Prometheus exposition), the
// per-PE runtime profile surfaced through the engine, and job-lifecycle
// traces assembled by the service.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "obs/metrics.hpp"
#include "service/service.hpp"

namespace {

using lol::obs::CounterFamily;
using lol::obs::Registry;

TEST(ObsRegistry, ConcurrentIncrementsAreExact) {
  Registry reg;
  auto& c = reg.counter("test_total", "concurrent increments");
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 50'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.inc();
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST(ObsRegistry, InstrumentsAreFoundNotDuplicated) {
  Registry reg;
  auto& a = reg.counter("same_total", "one");
  auto& b = reg.counter("same_total", "two");
  EXPECT_EQ(&a, &b);
  auto& g1 = reg.gauge("g", "gauge");
  auto& g2 = reg.gauge("g", "gauge");
  EXPECT_EQ(&g1, &g2);
}

TEST(ObsRegistry, HistogramBucketBoundariesAreInclusive) {
  Registry reg;
  auto& h = reg.histogram("lat_ms", "latency", {1.0, 5.0, 20.0});
  h.observe(0.5);   // <= 1        -> bucket 0
  h.observe(1.0);   // == bound    -> bucket 0 (le semantics)
  h.observe(1.01);  // > 1, <= 5   -> bucket 1
  h.observe(5.0);   // == bound    -> bucket 1
  h.observe(19.9);  // bucket 2
  h.observe(20.1);  // +Inf bucket
  EXPECT_EQ(h.bucket_value(0), 2u);
  EXPECT_EQ(h.bucket_value(1), 2u);
  EXPECT_EQ(h.bucket_value(2), 1u);
  EXPECT_EQ(h.bucket_value(3), 1u);  // +Inf
  EXPECT_EQ(h.count(), 6u);
  EXPECT_NEAR(h.sum(), 0.5 + 1.0 + 1.01 + 5.0 + 19.9 + 20.1, 1e-9);
}

TEST(ObsRegistry, FamilyCapsCardinalityIntoOther) {
  Registry reg;
  auto& fam = reg.counter_family("jobs_total", "per-tenant jobs", "tenant");
  for (int i = 0; i < 100; ++i) {
    fam.with("tenant-" + std::to_string(i)).inc();
  }
  // At most kMaxChildren real series plus the "_other" overflow child.
  EXPECT_LE(fam.n_children(), CounterFamily::kMaxChildren + 1);
  // The overflow series absorbed everything past the cap.
  std::string text = reg.expose();
  EXPECT_NE(text.find("jobs_total{tenant=\"_other\"} "), std::string::npos);
  EXPECT_NE(text.find("jobs_total{tenant=\"tenant-0\"} 1"),
            std::string::npos);
  // Known labels keep resolving to their own series even after the cap.
  std::uint64_t before = fam.with("tenant-0").value();
  fam.with("tenant-0").inc();
  EXPECT_EQ(fam.with("tenant-0").value(), before + 1);
}

TEST(ObsRegistry, ExposeIsParseablePrometheusText) {
  Registry reg;
  reg.counter("c_total", "a counter").inc(3);
  reg.gauge("g_depth", "a gauge").set(-2);
  reg.counter_family("f_total", "a family", "status").with("ok").inc(2);
  reg.histogram("h_ms", "a histogram", {10.0}).observe(4.0);

  std::string text = reg.expose();
  EXPECT_NE(text.find("# HELP c_total a counter\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE c_total counter\n"), std::string::npos);
  EXPECT_NE(text.find("c_total 3\n"), std::string::npos);
  EXPECT_NE(text.find("g_depth -2\n"), std::string::npos);
  EXPECT_NE(text.find("f_total{status=\"ok\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("h_ms_bucket{le=\"10\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("h_ms_bucket{le=\"+Inf\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("h_ms_sum 4\n"), std::string::npos);
  EXPECT_NE(text.find("h_ms_count 1\n"), std::string::npos);

  // Every line is either a comment or `name{labels} value` — no blank
  // or truncated lines a scraper would choke on.
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t nl = text.find('\n', start);
    ASSERT_NE(nl, std::string::npos) << "unterminated last line";
    std::string line = text.substr(start, nl - start);
    ASSERT_FALSE(line.empty());
    if (line[0] != '#') {
      std::size_t sp = line.rfind(' ');
      ASSERT_NE(sp, std::string::npos) << line;
      ASSERT_GT(sp, 0u) << line;
    }
    start = nl + 1;
  }
}

TEST(ObsRegistry, LabelValuesAreEscaped) {
  Registry reg;
  reg.counter_family("e_total", "escaping", "tenant")
      .with("a\"b\\c\nd")
      .inc();
  std::string text = reg.expose();
  EXPECT_NE(text.find("e_total{tenant=\"a\\\"b\\\\c\\nd\"} 1"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Per-PE runtime profiles through the engine
// ---------------------------------------------------------------------------

TEST(ObsProfile, EngineReturnsPerPeProfiles) {
  lol::RunConfig cfg;
  cfg.n_pes = 4;
  cfg.profile = true;
  auto r = lol::run_source(
      "HAI 1.2\nVISIBLE ME\nHUGZ\nVISIBLE ME\nKTHXBYE\n", cfg);
  ASSERT_TRUE(r.ok) << r.first_error();
  ASSERT_EQ(r.pe_profiles.size(), 4u);
  for (const auto& p : r.pe_profiles) {
    EXPECT_GT(p.steps, 0u);
    // Every PE crossed the explicit HUGZ barrier (plus any implicit
    // collectives); crossings are a gang-wide property.
    EXPECT_GE(p.barrier_crossings, 1u);
    EXPECT_EQ(p.barrier_crossings, r.pe_profiles[0].barrier_crossings);
    EXPECT_EQ(p.steps, r.pe_profiles[0].steps);  // uniform program
  }
  EXPECT_GT(r.setup_ms, 0.0);
  EXPECT_GE(r.claim_ms, 0.0);
  EXPECT_GE(r.exec_ms, 0.0);
}

TEST(ObsProfile, ProfiledStepsMatchTheStepBudgetAccounting) {
  // The profile's `steps` is denominated in the same unit the step
  // budget spends: a budget of exactly `steps` passes, one less trips
  // the limit. This pins the two accountings together.
  const char* src = "HAI 1.2\nVISIBLE ME\nVISIBLE SUM OF ME AN 1\nKTHXBYE\n";
  lol::RunConfig cfg;
  cfg.n_pes = 2;
  cfg.profile = true;
  auto baseline = lol::run_source(src, cfg);
  ASSERT_TRUE(baseline.ok) << baseline.first_error();
  ASSERT_EQ(baseline.pe_profiles.size(), 2u);
  std::uint64_t steps = 0;
  for (const auto& p : baseline.pe_profiles) {
    steps = std::max(steps, p.steps);
  }
  ASSERT_GT(steps, 1u);

  lol::RunConfig exact = cfg;
  exact.max_steps = steps;
  auto ok = lol::run_source(src, exact);
  EXPECT_TRUE(ok.ok) << ok.first_error();
  EXPECT_FALSE(ok.step_limited);

  lol::RunConfig tight = cfg;
  tight.max_steps = steps - 1;
  auto limited = lol::run_source(src, tight);
  EXPECT_FALSE(limited.ok);
  EXPECT_TRUE(limited.step_limited);
}

TEST(ObsProfile, LockCountersSeeContendedAcquisitions) {
  // All PEs hammer one lock; every PE must record its acquisitions, and
  // with 4 PEs on one lock at least one acquisition somewhere found it
  // held.
  lol::RunConfig cfg;
  cfg.n_pes = 4;
  cfg.profile = true;
  auto r = lol::run_source(
      "HAI 1.2\n"
      "WE HAS A x ITZ SRSLY A NUMBR AN IM SHARIN IT\n"
      "IM IN YR l UPPIN YR i TIL BOTH SAEM i AN 25\n"
      "  IM SRSLY MESIN WIF x\n"
      "  x R SUM OF x AN 1\n"
      "  DUN MESIN WIF x\n"
      "IM OUTTA YR l\n"
      "KTHXBYE\n",
      cfg);
  ASSERT_TRUE(r.ok) << r.first_error();
  std::uint64_t acquires = 0;
  std::uint64_t contended = 0;
  for (const auto& p : r.pe_profiles) {
    EXPECT_EQ(p.lock_acquires, 25u);
    acquires += p.lock_acquires;
    contended += p.lock_contended;
  }
  EXPECT_EQ(acquires, 100u);
  EXPECT_LE(contended, acquires);
}

// ---------------------------------------------------------------------------
// Job-lifecycle traces through the service
// ---------------------------------------------------------------------------

TEST(ObsTrace, CompletedJobCarriesOrderedSpans) {
  lol::service::Service svc({.workers = 1});
  lol::service::Job job;
  job.name = "traced";
  job.source = "HAI 1.2\nVISIBLE ME\nKTHXBYE\n";
  job.n_pes = 2;
  auto r = svc.submit(job).get();
  ASSERT_EQ(r.status, lol::service::JobStatus::kOk);

  std::vector<std::string> names;
  names.reserve(r.trace.size());
  for (const auto& sp : r.trace) names.push_back(sp.name);
  ASSERT_EQ(names.size(), 6u);
  EXPECT_EQ(names[0], "queued");
  EXPECT_EQ(names[1], "compile");  // first submission: not cached
  EXPECT_EQ(names[2], "setup");
  EXPECT_EQ(names[3], "claim");
  EXPECT_EQ(names[4], "run");
  EXPECT_EQ(names[5], "drain");
  // Spans are ordered, disjoint offsets from submission.
  for (std::size_t i = 1; i < r.trace.size(); ++i) {
    EXPECT_GE(r.trace[i].start_ms, r.trace[i - 1].start_ms - 1e-9);
    EXPECT_GE(r.trace[i].start_ms,
              r.trace[i - 1].start_ms + r.trace[i - 1].dur_ms - 1e-9)
        << r.trace[i].name << " overlaps " << r.trace[i - 1].name;
  }
  for (const auto& sp : r.trace) EXPECT_GE(sp.dur_ms, 0.0);

  // A cache hit is labelled as such.
  auto r2 = svc.submit(job).get();
  ASSERT_EQ(r2.status, lol::service::JobStatus::kOk);
  ASSERT_GE(r2.trace.size(), 2u);
  EXPECT_EQ(r2.trace[1].name, "compile[cached]");
}

TEST(ObsTrace, RefusedJobCarriesOnlyTheQueuedSpan) {
  lol::service::ServiceOptions opts;
  opts.workers = 1;
  opts.max_queued_per_tenant = 1;
  opts.start_paused = true;  // jobs stay queued -> second one is refused
  lol::service::Service svc(opts);
  lol::service::Job job;
  job.source = "HAI 1.2\nKTHXBYE\n";
  job.tenant = "flood";
  auto first = svc.submit(job);
  auto r = svc.submit(job).get();
  ASSERT_EQ(r.status, lol::service::JobStatus::kQuotaExceeded);
  ASSERT_EQ(r.trace.size(), 1u);
  EXPECT_EQ(r.trace[0].name, "queued");
  svc.start();
  first.get();
}

}  // namespace
