// Sweep orchestration: expand a scheme x load x seed x flows x faults x
// traffic grid
// into independent jobs, execute them on a fixed-size worker pool (each job
// gets a fully isolated sim::Simulator/topology built inside
// core::run_fct_experiment), and aggregate results **by job index**.
//
// Determinism contract: every job is self-contained (own simulator, own
// seeded RNGs, per-simulation packet uids via net::PacketUidScope), and
// results land in a preallocated slot keyed by job index, so the aggregated
// output -- tables and BENCH_*.json alike -- is byte-identical for any
// `jobs` value, including 1. The only fields exempt from the contract are
// the wall-clock measurements (RunRecord::wall_ms / events_per_sec), which
// measure the host, not the simulation.
//
// Crash resilience (the three legs, see DESIGN.md §12):
//
//  * Budgets -- per-job wall-clock / event / sim-time budgets configured on
//    the FctExperiment turn a hung or runaway simulation into a recorded
//    `timeout` RunRecord instead of a stuck worker.
//  * Failure policy -- cancel_all (first failure skips the rest),
//    record_and_continue (every cell runs regardless), or retry
//    (re-execute failed jobs with exponential backoff and deterministic
//    jitter). Failures carry an error taxonomy (timeout /
//    invariant-violation / oom-guard / exception) and, when a flight
//    recorder was attached, a postmortem dump.
//  * Journaled resume -- SweepOptions::journal_out appends every terminal
//    RunRecord to a tcn-journal-1 JSONL file (fsync'd, torn-tail
//    tolerant); SweepOptions::resume restores those records and re-runs
//    only the missing jobs, reproducing the aggregate byte-identical to an
//    uninterrupted run (see runner/journal.hpp).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/experiment.hpp"
#include "fault/fault.hpp"

namespace tcn::runner {

struct JournalData;  // runner/journal.hpp

/// Why a run (or skip) is not ok -- the taxonomy recorded per RunRecord,
/// rolled up in SweepResult and serialized into tcn-bench-1.
enum class ErrorKind : std::uint8_t {
  kNone = 0,   ///< run succeeded
  kException,  ///< unclassified exception (config error, logic bug)
  kTimeout,    ///< a budget or the event-storm watchdog tripped
  kInvariant,  ///< strict invariant checking found violations
  kOomGuard,   ///< the pending-event guard tripped
  kCancelled,  ///< skipped: another job's failure cancelled the sweep
};

/// Stable wire name ("", "exception", "timeout", "invariant-violation",
/// "oom-guard", "cancelled") -- what tcn-bench-1 and the journal store.
[[nodiscard]] std::string_view error_kind_name(ErrorKind kind) noexcept;

/// Inverse of error_kind_name; throws std::invalid_argument on unknown
/// names (a journal written by a future schema).
[[nodiscard]] ErrorKind error_kind_from_name(std::string_view name);

/// One unit of work: a fully specified experiment plus labels for reporting.
struct Job {
  std::size_t index = 0;  ///< slot in SweepResult::runs (assigned by run_jobs)
  std::string group;      ///< sweep/figure name, e.g. "fig06"
  std::string label;      ///< scheme label as printed in tables, e.g. "TCN"
  /// Fault-axis cell label (the --fault-grid spec string, "none" for the
  /// fault-free cell); empty when the sweep has no fault axis.
  std::string fault_label;
  /// Traffic-axis cell label (the --traffic-grid spec string, "none" for
  /// the closed-loop cell); empty when the sweep has no traffic axis.
  std::string traffic_label;
  core::FctExperiment cfg;
};

struct RunRecord {
  Job job;
  bool ok = false;
  bool skipped = false;  ///< cancelled before it started
  std::string error;     ///< what() of the failure, or "cancelled"
  ErrorKind error_kind = ErrorKind::kNone;
  /// Times the job was executed (1 = no retries, 0 = never ran).
  std::uint64_t attempts = 0;
  /// Flight-recorder tail captured at failure (empty when none attached).
  std::string postmortem;
  /// Satisfied from a resume journal instead of executed (not serialized:
  /// a resumed aggregate must be byte-identical to an uninterrupted one).
  bool restored = false;
  core::FctReport report;
  // Host-side measurements; excluded from the determinism contract.
  double wall_ms = 0.0;
  double events_per_sec = 0.0;
};

/// What run_jobs does once a job has failed terminally (after retries,
/// when those are enabled).
enum class FailurePolicy : std::uint8_t {
  /// First failure flips the shared CancelToken; jobs that have not
  /// started yet are recorded as skipped (a 2000-run sweep does not grind
  /// on after its configuration is proven broken).
  kCancelAll,
  /// Record the failure and keep going; the sweep reports every cell.
  kRecordAndContinue,
  /// Re-run failed jobs up to RetryPolicy::max_attempts with exponential
  /// backoff, then record and continue.
  kRetry,
};

[[nodiscard]] std::string_view failure_policy_name(FailurePolicy p) noexcept;
[[nodiscard]] FailurePolicy failure_policy_from_name(std::string_view name);

struct RetryPolicy {
  std::size_t max_attempts = 3;   ///< total executions, including the first
  double backoff_base_ms = 100.0; ///< delay before attempt 2
  double backoff_max_ms = 5000.0; ///< exponential growth cap
  /// Jitter fraction: the delay is scaled by a factor drawn
  /// deterministically from [1-jitter, 1+jitter) keyed on (job index,
  /// attempt, seed) -- decorrelated across jobs yet reproducible.
  double jitter = 0.5;
};

/// Backoff delay before attempt `next_attempt` (>= 2) of job `index` with
/// seed `seed`. Pure function of its arguments (exposed for tests).
[[nodiscard]] double retry_backoff_ms(const RetryPolicy& policy,
                                      std::size_t next_attempt,
                                      std::size_t index, std::uint64_t seed);

struct SweepOptions {
  /// Worker threads; 0 means one per hardware thread.
  std::size_t jobs = 1;
  FailurePolicy failure_policy = FailurePolicy::kCancelAll;
  /// Used when failure_policy == kRetry.
  RetryPolicy retry;
  /// Suppress the real backoff sleep (tests; the recorded attempt count and
  /// results are identical either way).
  bool retry_sleep = true;
  /// Append every terminal RunRecord to this tcn-journal-1 file (fsync'd
  /// per record); empty = no journal. When resuming into the same path the
  /// file is truncated to its valid prefix and extended in place.
  std::string journal_out;
  /// Sweep name stored in a fresh journal's header (cosmetic).
  std::string journal_name;
  /// Previously journaled results to restore instead of re-running; must
  /// have been loaded from a journal whose spec hash matches this job list
  /// (run_jobs validates). Owned by the caller.
  const JournalData* resume = nullptr;
  /// Progress callback, invoked as each job finishes (completion order, not
  /// index order; not invoked for restored records). Calls are serialized
  /// by the runner.
  std::function<void(const RunRecord&)> on_done;
};

struct SweepResult {
  std::vector<RunRecord> runs;  ///< runs[i] is job i -- always index order
  std::size_t completed = 0;
  std::size_t failed = 0;
  std::size_t skipped = 0;
  // Crash-resilience rollups (deterministic; serialized in "totals").
  std::size_t restored = 0;          ///< satisfied from the resume journal
  std::size_t retries = 0;           ///< executions beyond each first attempt
  std::size_t failed_timeout = 0;    ///< ErrorKind::kTimeout
  std::size_t failed_invariant = 0;  ///< ErrorKind::kInvariant
  std::size_t failed_oom_guard = 0;  ///< ErrorKind::kOomGuard
  std::size_t failed_exception = 0;  ///< ErrorKind::kException
  /// Exceptions that escaped the job wrapper into the thread pool -- always
  /// 0 unless the harness itself is buggy (debug builds abort instead).
  std::uint64_t pool_exceptions = 0;
  std::size_t jobs_used = 1;  ///< worker threads actually spawned
  double wall_ms = 0.0;       ///< whole-sweep wall clock

  [[nodiscard]] bool ok() const noexcept {
    return failed == 0 && skipped == 0;
  }
};

/// Execute `jobs` (reindexed 0..n-1 in the given order) and collect results
/// deterministically. The per-job simulation is single-threaded; parallelism
/// is across jobs only. Throws std::runtime_error when opt.resume does not
/// match the job list or opt.journal_out cannot be written.
SweepResult run_jobs(std::vector<Job> jobs, const SweepOptions& opt = {});

/// A declarative grid. Expansion order is loads-major, then schemes, then
/// seeds, then flows, then fault cells, then traffic cells -- so with a
/// single seed, flow count, fault plan and traffic cell, job index
/// `li * schemes.size() + si` is (load li, scheme si), which is what the
/// figure table printers rely on.
struct SweepSpec {
  std::string name;  ///< used for Job::group and the JSON "name" field
  core::FctExperiment base;
  std::vector<std::pair<std::string, core::Scheme>> schemes;
  std::vector<double> loads;
  std::vector<std::uint64_t> seeds;   ///< empty -> {base.seed}
  std::vector<std::size_t> flows;     ///< empty -> {base.num_flows}
  /// Fault axis: (label, plan) cells, e.g. from fault::parse_fault_grid.
  /// Empty -> one unlabelled cell running base.faults.
  std::vector<std::pair<std::string, fault::FaultPlan>> faults;
  /// Traffic axis (innermost, inside faults): (label, spec) cells, e.g.
  /// from traffic::parse_traffic_grid; the "none" cell is the closed-loop
  /// baseline. Empty -> one unlabelled cell running base.traffic.
  std::vector<std::pair<std::string, traffic::TrafficSpec>> traffics;

  [[nodiscard]] std::vector<Job> expand() const;
};

SweepResult run_sweep(const SweepSpec& spec, const SweepOptions& opt = {});

/// Number of worker threads `opt.jobs` resolves to for `num_jobs` jobs.
std::size_t effective_workers(std::size_t requested, std::size_t num_jobs);

}  // namespace tcn::runner
