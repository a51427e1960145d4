// Sweep orchestration: expand a scheme x load x seed x flows x faults x
// traffic grid
// into independent jobs, execute them on `jobs` workers (each job gets a
// fully isolated sim::Simulator/topology built inside
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
// One loop runs every sweep: the calling thread and `jobs - 1` more each
// take the next job from a shared index, run it and record it under one
// mutex. A journal append or on_done that throws stops the hand-out, and
// run_jobs rethrows that exception once the workers have joined -- the same
// way at any `jobs`.
//
// Crash resilience (the three legs, see DESIGN.md §12):
//
//  * Budgets -- per-job wall-clock / event / sim-time budgets configured on
//    the FctExperiment turn a hung or runaway simulation into a recorded
//    `timeout` RunRecord instead of a stuck worker.
//  * Failure policy -- cancel_all (first failure skips the rest) or
//    record_and_continue (every cell runs regardless). Failures carry an
//    error taxonomy (timeout / invariant-violation / oom-guard /
//    exception) and, when a flight recorder was attached, a postmortem
//    dump. A run's outcome is a function of its config, so a failed run is
//    not retried.
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
  /// 1 when the job ran, 0 when it was skipped (never ran).
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

/// What run_jobs does once a job has failed.
enum class FailurePolicy : std::uint8_t {
  /// First failure stops the sweep; jobs that have not started yet are
  /// recorded as skipped (a 2000-run sweep does not grind on after its
  /// configuration is proven broken).
  kCancelAll,
  /// Record the failure and keep going; the sweep reports every cell.
  kRecordAndContinue,
};

[[nodiscard]] std::string_view failure_policy_name(FailurePolicy p) noexcept;
[[nodiscard]] FailurePolicy failure_policy_from_name(std::string_view name);

struct SweepOptions {
  /// Worker threads; 0 means one per hardware thread.
  std::size_t jobs = 1;
  FailurePolicy failure_policy = FailurePolicy::kCancelAll;
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
  /// by the runner. An exception it throws stops the sweep and propagates
  /// out of run_jobs.
  std::function<void(const RunRecord&)> on_done;
};

struct SweepResult {
  std::vector<RunRecord> runs;  ///< runs[i] is job i -- always index order
  std::size_t completed = 0;
  std::size_t failed = 0;
  std::size_t skipped = 0;
  // Crash-resilience rollups (deterministic; serialized in "totals").
  std::size_t restored = 0;          ///< satisfied from the resume journal
  std::size_t failed_timeout = 0;    ///< ErrorKind::kTimeout
  std::size_t failed_invariant = 0;  ///< ErrorKind::kInvariant
  std::size_t failed_oom_guard = 0;  ///< ErrorKind::kOomGuard
  std::size_t failed_exception = 0;  ///< ErrorKind::kException
  std::size_t jobs_used = 1;  ///< workers used, the calling thread included
  double wall_ms = 0.0;       ///< whole-sweep wall clock

  [[nodiscard]] bool ok() const noexcept {
    return failed == 0 && skipped == 0;
  }
};

/// Execute `jobs` (reindexed 0..n-1 in the given order) and collect results
/// deterministically. The per-job simulation is single-threaded; parallelism
/// is across jobs only. Throws std::invalid_argument when opt.resume does
/// not match the job list, std::runtime_error when opt.journal_out cannot
/// be written, and whatever opt.on_done throws.
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
