// Tests for the parallel sweep runner (src/runner): JSON writer behaviour,
// grid expansion (including the fault axis), thread-pool lifecycle, failure
// policies (cancel_all / record_and_continue / retry) with their error
// taxonomy, the determinism contract (same sweep at jobs=1 and jobs=N
// produces bit-identical aggregated results, failures included), and a
// golden for the tcn-bench-1 JSON schema.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "net/packet.hpp"
#include "obs/json.hpp"
#include "runner/results.hpp"
#include "runner/sweep.hpp"
#include "runner/thread_pool.hpp"
#include "topo/network.hpp"

namespace tcn {
namespace {

using obs::JsonWriter;

// ---------------------------------------------------------------- JSON ----

TEST(Json, FormatDoubleShortestRoundTrip) {
  EXPECT_EQ(obs::format_double(0.5), "0.5");
  EXPECT_EQ(obs::format_double(0.0), "0");
  EXPECT_EQ(obs::format_double(2000.0), "2000");
  EXPECT_EQ(obs::format_double(-3.25), "-3.25");
  // A value with no short decimal form still round-trips exactly.
  const double ugly = 0.1 + 0.2;
  EXPECT_EQ(std::strtod(obs::format_double(ugly).c_str(), nullptr), ugly);
  EXPECT_EQ(obs::format_double(std::nan("")), "null");
}

TEST(Json, EscapesControlCharsAndQuotes) {
  EXPECT_EQ(obs::escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(obs::escape_json(std::string("\x01", 1)), "\\u0001");
}

TEST(Json, WriterProducesNestedDocument) {
  JsonWriter w(0);  // compact
  w.begin_object();
  w.key("a").value(std::uint64_t{1});
  w.key("b").begin_array().value(0.5).value(true).null().end_array();
  w.key("c").begin_object().key("d").value("x").end_object();
  w.end_object();
  EXPECT_EQ(w.str(), R"({"a":1,"b":[0.5,true,null],"c":{"d":"x"}})");
}

TEST(Json, WriterRejectsMisuse) {
  {
    JsonWriter w;
    w.begin_object();
    EXPECT_THROW(w.value(1), std::logic_error);  // value without key
  }
  {
    JsonWriter w;
    w.begin_array();
    EXPECT_THROW(w.key("k"), std::logic_error);  // key inside array
  }
  {
    JsonWriter w;
    w.begin_object();
    EXPECT_THROW(w.str(), std::logic_error);  // still open
  }
}

// ---------------------------------------------------------- packet uids ----

TEST(PacketUid, ScopeRestartsAndNests) {
  {
    net::PacketUidScope outer;
    EXPECT_EQ(net::make_packet()->uid, 1u);
    EXPECT_EQ(net::make_packet()->uid, 2u);
    {
      net::PacketUidScope inner;
      EXPECT_EQ(net::make_packet()->uid, 1u);  // inner shadows outer
    }
    EXPECT_EQ(net::make_packet()->uid, 3u);  // outer restored
    EXPECT_EQ(outer.allocated(), 3u);
  }
  // Outside any scope the process-wide counter still hands out unique ids.
  const auto a = net::make_packet();
  const auto b = net::make_packet();
  EXPECT_NE(a->uid, b->uid);
}

// ---------------------------------------------------------- thread pool ----

TEST(ThreadPool, RunsEverySubmittedTask) {
  std::atomic<int> count{0};
  runner::ThreadPool pool(4);
  EXPECT_EQ(pool.worker_count(), 4u);
  for (int i = 0; i < 200; ++i) {
    pool.submit([&count] { count.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 200);
  EXPECT_EQ(pool.tasks_completed(), 200u);
  pool.shutdown();
  EXPECT_THROW(pool.submit([] {}), std::runtime_error);
}

TEST(ThreadPool, ShutdownWithoutDiscardDrainsQueue) {
  std::atomic<int> count{0};
  runner::ThreadPool pool(2);
  for (int i = 0; i < 50; ++i) {
    pool.submit([&count] { count.fetch_add(1); });
  }
  pool.shutdown(/*discard_pending=*/false);
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPool, AcceptsMoveOnlyTasks) {
  // The queue holds move-only InlineCallbacks now: job closures (and the
  // resources they own) are moved in exactly once, never copied per submit.
  std::atomic<int> result{0};
  runner::ThreadPool pool(2);
  auto payload = std::make_unique<int>(42);
  pool.submit([p = std::move(payload), &result] { result = *p; });
  pool.wait_idle();
  EXPECT_EQ(result.load(), 42);
  pool.shutdown();
}

TEST(ThreadPool, OversizedTasksGoThroughBoxed) {
  // Closures beyond the 64B inline budget use the sanctioned heap fallback.
  struct Fat {
    char blob[128] = {};
  };
  std::atomic<int> result{0};
  runner::ThreadPool pool(1);
  Fat fat;
  fat.blob[0] = 7;
  pool.submit(sim::boxed([fat, &result] { result = fat.blob[0]; }));
  pool.wait_idle();
  EXPECT_EQ(result.load(), 7);
  pool.shutdown();
}

TEST(ThreadPool, EscapedExceptionsAreCountedNotSwallowed) {
#ifdef NDEBUG
  // Release builds survive the escaped exception but count and report it:
  // a task throw is always a harness bug, never silently dropped.
  runner::ThreadPool pool(1);
  pool.submit([] { throw std::runtime_error("task bug"); });
  std::atomic<bool> ran{false};
  pool.submit([&ran] { ran = true; });
  pool.wait_idle();
  EXPECT_TRUE(ran.load());
  EXPECT_EQ(pool.tasks_faulted(), 1u);
  pool.shutdown();
#else
  // Debug builds abort instead, so the bug cannot hide behind a green run.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        runner::ThreadPool pool(1);
        pool.submit([] { throw std::runtime_error("task bug"); });
        pool.wait_idle();
      },
      "exception escaped a task");
#endif
}

// ---------------------------------------------------------------- sweep ----

core::FctExperiment small_cfg() {
  core::FctExperiment cfg;
  cfg.scheme = core::Scheme::kTcn;
  cfg.params.rtt_lambda = 250 * sim::kMicrosecond;
  cfg.params.red_threshold_bytes = 32'000;  // RED schemes reject 0
  cfg.sched.kind = core::SchedKind::kDwrr;
  cfg.load = 0.4;
  cfg.num_flows = 40;
  cfg.num_services = 2;
  cfg.service_workloads = {workload::Kind::kCache};
  cfg.star.num_hosts = 5;
  cfg.star.host_delay = topo::star_host_delay_for_rtt(
      250 * sim::kMicrosecond, cfg.star.link_prop);
  cfg.seed = 7;
  return cfg;
}

runner::SweepSpec small_spec() {
  runner::SweepSpec spec;
  spec.name = "unit";
  spec.base = small_cfg();
  spec.schemes = {{"TCN", core::Scheme::kTcn},
                  {"RED-queue", core::Scheme::kRedPerQueue}};
  spec.loads = {0.4, 0.6};
  return spec;
}

TEST(Sweep, ExpansionIsLoadMajorThenScheme) {
  auto spec = small_spec();
  spec.seeds = {7, 8};
  const auto jobs = spec.expand();
  ASSERT_EQ(jobs.size(), 2u * 2u * 2u);
  // loads-major, then schemes, then seeds.
  EXPECT_EQ(jobs[0].cfg.load, 0.4);
  EXPECT_EQ(jobs[0].label, "TCN");
  EXPECT_EQ(jobs[0].cfg.seed, 7u);
  EXPECT_EQ(jobs[1].cfg.seed, 8u);
  EXPECT_EQ(jobs[2].label, "RED-queue");
  EXPECT_EQ(jobs[4].cfg.load, 0.6);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(jobs[i].index, i);
    EXPECT_EQ(jobs[i].group, "unit");
  }
}

TEST(Sweep, DeterministicAcrossJobCounts) {
  const auto spec = small_spec();

  runner::SweepOptions serial;
  serial.jobs = 1;
  const auto a = runner::run_sweep(spec, serial);

  runner::SweepOptions parallel;
  parallel.jobs = 4;
  const auto b = runner::run_sweep(spec, parallel);

  ASSERT_EQ(a.runs.size(), b.runs.size());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.jobs_used, 1u);
  EXPECT_EQ(b.jobs_used, 4u);
  for (std::size_t i = 0; i < a.runs.size(); ++i) {
    const auto& ra = a.runs[i].report;
    const auto& rb = b.runs[i].report;
    // Bit-exact, not approximate: the simulation must not notice threads.
    EXPECT_EQ(ra.summary.avg_all_us, rb.summary.avg_all_us) << "run " << i;
    EXPECT_EQ(ra.summary.p99_small_us, rb.summary.p99_small_us);
    EXPECT_EQ(ra.summary.count, rb.summary.count);
    EXPECT_EQ(ra.events, rb.events);
    EXPECT_EQ(ra.switch_drops, rb.switch_drops);
    EXPECT_EQ(ra.switch_marks, rb.switch_marks);
    EXPECT_EQ(ra.flows_completed, rb.flows_completed);
    EXPECT_EQ(ra.sim_end, rb.sim_end);
  }
  // The serialized documents (minus wall-clock) must match byte for byte.
  EXPECT_EQ(runner::to_json(a, "unit", /*include_timing=*/false),
            runner::to_json(b, "unit", /*include_timing=*/false));
}

TEST(Sweep, CancelsRemainingJobsOnFirstFailure) {
  auto spec = small_spec();
  spec.base.num_services = 0;  // every job throws in run_fct_experiment
  runner::SweepOptions opt;
  opt.jobs = 1;
  const auto res = runner::run_sweep(spec, opt);
  ASSERT_EQ(res.runs.size(), 4u);
  EXPECT_FALSE(res.ok());
  EXPECT_EQ(res.failed, 1u);   // first job fails...
  EXPECT_EQ(res.skipped, 3u);  // ...the rest never run
  EXPECT_FALSE(res.runs[0].ok);
  EXPECT_NE(res.runs[0].error.find("services"), std::string::npos);
  EXPECT_EQ(res.runs[0].error_kind, runner::ErrorKind::kException);
  EXPECT_EQ(res.runs[0].attempts, 1u);
  EXPECT_TRUE(res.runs[1].skipped);
  EXPECT_EQ(res.runs[1].error, "cancelled");
  EXPECT_EQ(res.runs[1].error_kind, runner::ErrorKind::kCancelled);
  EXPECT_EQ(res.runs[1].attempts, 0u);  // never executed
}

TEST(Sweep, RecordAndContinueRunsEverything) {
  auto spec = small_spec();
  spec.base.num_services = 0;
  runner::SweepOptions opt;
  opt.jobs = 2;
  opt.failure_policy = runner::FailurePolicy::kRecordAndContinue;
  const auto res = runner::run_sweep(spec, opt);
  EXPECT_EQ(res.failed, 4u);
  EXPECT_EQ(res.skipped, 0u);
  EXPECT_EQ(res.failed_exception, 4u);
  for (const auto& r : res.runs) EXPECT_EQ(r.attempts, 1u);
}

TEST(Sweep, ParallelFailureSkipsOnlyUnstartedJobs) {
  auto spec = small_spec();
  spec.base.num_services = 0;
  runner::SweepOptions opt;
  opt.jobs = 4;
  const auto res = runner::run_sweep(spec, opt);
  EXPECT_FALSE(res.ok());
  EXPECT_GE(res.failed, 1u);
  EXPECT_EQ(res.failed + res.skipped, 4u);
}

TEST(Sweep, OnDoneSeesEveryRecord) {
  std::vector<std::size_t> seen;
  runner::SweepOptions opt;
  opt.jobs = 4;
  opt.on_done = [&seen](const runner::RunRecord& r) {
    seen.push_back(r.job.index);  // serialized by the runner
  };
  const auto res = runner::run_sweep(small_spec(), opt);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(seen.size(), res.runs.size());
}

// ------------------------------------------------------ failure policies ----

TEST(Sweep, ErrorKindAndFailurePolicyNamesRoundTrip) {
  using runner::ErrorKind;
  for (auto k : {ErrorKind::kNone, ErrorKind::kException, ErrorKind::kTimeout,
                 ErrorKind::kInvariant, ErrorKind::kOomGuard,
                 ErrorKind::kCancelled}) {
    EXPECT_EQ(runner::error_kind_from_name(runner::error_kind_name(k)), k);
  }
  EXPECT_THROW((void)runner::error_kind_from_name("nope"),
               std::invalid_argument);
  using runner::FailurePolicy;
  for (auto p : {FailurePolicy::kCancelAll, FailurePolicy::kRecordAndContinue,
                 FailurePolicy::kRetry}) {
    EXPECT_EQ(runner::failure_policy_from_name(runner::failure_policy_name(p)),
              p);
  }
  EXPECT_THROW((void)runner::failure_policy_from_name("nope"),
               std::invalid_argument);
}

TEST(Sweep, RetryBackoffIsDeterministicAndBounded) {
  runner::RetryPolicy p;  // base 100 ms, cap 5000 ms, jitter 0.5
  const double a = runner::retry_backoff_ms(p, 2, 7, 42);
  EXPECT_EQ(a, runner::retry_backoff_ms(p, 2, 7, 42));  // pure function
  EXPECT_NE(a, runner::retry_backoff_ms(p, 2, 8, 42));  // decorrelated by job
  EXPECT_NE(a, runner::retry_backoff_ms(p, 3, 7, 42));  // ...and by attempt
  EXPECT_GE(a, 50.0);  // attempt 2: base * [1-jitter, 1+jitter)
  EXPECT_LT(a, 150.0);
  const double b = runner::retry_backoff_ms(p, 3, 7, 42);
  EXPECT_GE(b, 100.0);  // attempt 3 doubles the base
  EXPECT_LT(b, 300.0);
  p.jitter = 0.0;
  // The exponential curve is capped, and attempt 1 never waits.
  EXPECT_EQ(runner::retry_backoff_ms(p, 30, 0, 0), p.backoff_max_ms);
  EXPECT_EQ(runner::retry_backoff_ms(p, 1, 0, 0), 0.0);
}

TEST(Sweep, RetryRecordsAttemptsAndGivesUp) {
  auto spec = small_spec();
  spec.base.num_services = 0;  // deterministic failure: retries cannot help
  runner::SweepOptions opt;
  opt.jobs = 2;
  opt.failure_policy = runner::FailurePolicy::kRetry;
  opt.retry.max_attempts = 3;
  opt.retry_sleep = false;
  const auto res = runner::run_sweep(spec, opt);
  EXPECT_EQ(res.failed, 4u);
  EXPECT_EQ(res.skipped, 0u);
  EXPECT_EQ(res.retries, 4u * 2u);  // two extra executions per job
  for (const auto& r : res.runs) {
    EXPECT_EQ(r.attempts, 3u);
    EXPECT_EQ(r.error_kind, runner::ErrorKind::kException);
  }
}

TEST(Sweep, FailureDeterminismAcrossJobCounts) {
  // Mixed grid: "none" cells succeed; the bad-target fault cells throw
  // deterministically when the plan is applied to the topology. The
  // aggregated document (minus wall-clock fields) must not depend on the
  // worker count under either non-cancelling policy.
  auto spec = small_spec();
  spec.faults = {{"none", {}},
                 {"loss:no-such-port:0.01",
                  fault::parse_fault_specs("loss:no-such-port:0.01")}};
  for (auto policy : {runner::FailurePolicy::kRecordAndContinue,
                      runner::FailurePolicy::kRetry}) {
    runner::SweepOptions serial;
    serial.jobs = 1;
    serial.failure_policy = policy;
    serial.retry.max_attempts = 2;
    serial.retry_sleep = false;
    runner::SweepOptions parallel = serial;
    parallel.jobs = 8;
    const auto a = runner::run_sweep(spec, serial);
    const auto b = runner::run_sweep(spec, parallel);
    ASSERT_EQ(a.runs.size(), 8u);
    EXPECT_EQ(a.completed, 4u);
    EXPECT_EQ(a.failed, 4u);
    EXPECT_EQ(a.failed_exception, 4u);
    EXPECT_EQ(b.failed, 4u);
    EXPECT_EQ(runner::to_json(a, "unit", /*include_timing=*/false),
              runner::to_json(b, "unit", /*include_timing=*/false))
        << "policy " << runner::failure_policy_name(policy);
  }
}

TEST(Sweep, EventBudgetRecordsTimeout) {
  auto spec = small_spec();
  spec.schemes = {{"TCN", core::Scheme::kTcn}};
  spec.loads = {0.4};
  spec.base.event_budget = 500;  // far fewer events than the run needs
  runner::SweepOptions opt;
  opt.failure_policy = runner::FailurePolicy::kRecordAndContinue;
  const auto res = runner::run_sweep(spec, opt);
  ASSERT_EQ(res.runs.size(), 1u);
  EXPECT_FALSE(res.runs[0].ok);
  EXPECT_EQ(res.runs[0].error_kind, runner::ErrorKind::kTimeout);
  EXPECT_NE(res.runs[0].error.find("budget"), std::string::npos)
      << res.runs[0].error;
  EXPECT_EQ(res.failed_timeout, 1u);
}

// ------------------------------------------------------------ fault axis ----

TEST(Sweep, ParseFaultGridLabelsCells) {
  const auto cells = fault::parse_fault_grid("none|loss:leaf*:0.01");
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(cells[0].first, "none");
  EXPECT_TRUE(cells[0].second.empty());
  EXPECT_EQ(cells[1].first, "loss:leaf*:0.01");
  ASSERT_EQ(cells[1].second.size(), 1u);
  EXPECT_EQ(cells[1].second[0].kind, fault::FaultSpec::Kind::kBernoulliLoss);
  // An empty cell is the fault-free plan, same as the literal "none".
  EXPECT_TRUE(fault::parse_fault_grid("|linkdown:h0-sw:1:2")[0].second.empty());
  EXPECT_THROW(fault::parse_fault_grid("bogus:x"), std::invalid_argument);
}

TEST(Sweep, FaultGridIsInnermostAxis) {
  auto spec = small_spec();  // 2 loads x 2 schemes
  spec.faults = {{"none", {}},
                 {"loss:*:0.01", fault::parse_fault_specs("loss:*:0.01")}};
  const auto jobs = spec.expand();
  ASSERT_EQ(jobs.size(), 8u);
  EXPECT_EQ(jobs[0].fault_label, "none");
  EXPECT_TRUE(jobs[0].cfg.faults.empty());
  EXPECT_EQ(jobs[1].fault_label, "loss:*:0.01");
  ASSERT_EQ(jobs[1].cfg.faults.size(), 1u);
  // Adjacent fault cells share every other grid coordinate.
  EXPECT_EQ(jobs[1].label, jobs[0].label);
  EXPECT_EQ(jobs[1].cfg.load, jobs[0].cfg.load);
  EXPECT_EQ(jobs[1].cfg.seed, jobs[0].cfg.seed);
  EXPECT_EQ(jobs[2].fault_label, "none");
  EXPECT_EQ(jobs[2].label, "RED-queue");
}

// ----------------------------------------------------------- JSON golden ----

/// Keys of a JSON document in emission order (schema golden helper).
std::vector<std::string> json_keys(const std::string& doc) {
  std::vector<std::string> keys;
  for (std::size_t i = 0; i + 1 < doc.size(); ++i) {
    if (doc[i] != '"') continue;
    const auto end = doc.find('"', i + 1);
    if (end == std::string::npos) break;
    std::size_t after = end + 1;
    while (after < doc.size() && doc[after] == ' ') ++after;
    if (after < doc.size() && doc[after] == ':') {
      keys.push_back(doc.substr(i + 1, end - i - 1));
    }
    i = end;
  }
  return keys;
}

TEST(Results, JsonMatchesSchemaGolden) {
  runner::SweepSpec spec;
  spec.name = "golden";
  spec.base = small_cfg();
  spec.schemes = {{"TCN", core::Scheme::kTcn}};
  spec.loads = {0.4};
  runner::SweepOptions opt;
  opt.jobs = 1;
  const auto res = runner::run_sweep(spec, opt);
  ASSERT_TRUE(res.ok());

  const std::string doc = runner::to_json(res, "golden");
  EXPECT_NE(doc.find("\"schema\": \"tcn-bench-1\""), std::string::npos);
  EXPECT_NE(doc.find("\"name\": \"golden\""), std::string::npos);
  EXPECT_NE(doc.find("\"load\": 0.4"), std::string::npos);
  EXPECT_EQ(doc.back(), '\n');

  const std::vector<std::string> expected = {
      // header
      "schema", "name", "jobs", "wall_ms",
      // totals
      "totals", "runs", "completed", "failed", "skipped", "restored",
      "retries", "failed_timeout", "failed_invariant", "failed_oom_guard",
      "failed_exception", "pool_exceptions", "events",
      // the single run record
      "runs", "index", "group", "label", "scheme", "sched", "topology",
      "load", "flows", "seed", "faults", "ok", "skipped", "error",
      "error_kind", "attempts",
      "fct", "count", "avg_all_us", "small_count", "avg_small_us",
      "p99_small_us", "large_count", "avg_large_us", "timeouts",
      "small_timeouts",
      "counters", "switch_drops", "switch_marks", "fault_drops",
      "sched_drops", "pool_fresh", "pool_reused", "pool_recycled",
      "sim_peak_pending", "sim_calendar_resizes",
      "flows_started", "flows_completed", "events", "sim_end_s", "wall_ms",
      "events_per_sec"};
  EXPECT_EQ(json_keys(doc), expected);
}

}  // namespace
}  // namespace tcn
