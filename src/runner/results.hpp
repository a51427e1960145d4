// Structured results layer: serialize a SweepResult to the BENCH_*.json
// schema so the perf trajectory of the reproduction is machine-readable.
//
// Schema "tcn-bench-1" (key order is fixed; see runner_test.cpp golden):
//   {
//     "schema": "tcn-bench-1",
//     "name": "<sweep name>",
//     "jobs": <worker threads used>,
//     "wall_ms": <whole-sweep wall clock>,         // non-deterministic
//     "totals": { "runs", "completed", "failed", "skipped",
//                 "restored", "retries", "failed_timeout",
//                 "failed_invariant", "failed_oom_guard",
//                 "failed_exception", "pool_exceptions", "events" },
//     "runs": [ {
//        "index", "group", "label", "scheme", "sched", "topology",
//        "load", "flows", "seed", "faults", "ok", "skipped", "error",
//        "error_kind", "attempts",
//        "fct": { "count", "avg_all_us", "small_count", "avg_small_us",
//                 "p99_small_us", "large_count", "avg_large_us",
//                 "timeouts", "small_timeouts" },
//        "counters": { "switch_drops", "switch_marks", "fault_drops",
//                      "sched_drops", "pool_fresh", "pool_reused",
//                      "pool_recycled", "sim_peak_pending",
//                      "sim_calendar_resizes" },
//        "stability"?: { "channels", "ticks", "channel", "samples",
//                        "oscillation_score", "sojourn_cv",
//                        "mark_burstiness", "depth_mean_bytes", "depth_cv",
//                        "lag1_autocorr", "bimodality", "regime" },
//                                                   // sampled runs only
//        "flows_started", "flows_completed", "events", "sim_end_s",
//        "wall_ms", "events_per_sec",               // non-deterministic
//        "postmortem"?                              // failed runs only
//     } ]
//   }
//
// "error_kind" is the failure taxonomy ("", "exception", "timeout",
// "invariant-violation", "oom-guard", "cancelled"); "attempts" is 1 for a
// run that executed and 0 for one that was skipped; "postmortem" -- the
// flight-recorder tail captured at death -- appears only when non-empty.
// "retries" and "pool_exceptions" are always 0: the runner retries no run
// (a run's outcome is a function of its config) and has no task pool that
// could swallow an exception. The keys stay so that documents and journals
// keep one schema.
//
// Every field except the wall-clock ones is bit-deterministic for a given
// sweep spec, independent of --jobs (see sweep.hpp). The same run object is
// what the tcn-journal-1 checkpoint stores per completed job.
#pragma once

#include <string>

#include "obs/json.hpp"
#include "runner/sweep.hpp"

namespace tcn::runner {

/// Emit one "runs" element (a complete JSON object) for `r`. Shared by the
/// tcn-bench-1 serializer and the tcn-journal-1 writer so a journaled run
/// is byte-for-byte the run object a resumed aggregate re-emits.
void write_run_object(obs::JsonWriter& w, const RunRecord& r,
                      bool include_timing);

/// Serialize; `include_timing=false` zeroes the host-execution metadata
/// ("jobs", "wall_ms", "events_per_sec"), giving a fully deterministic
/// document (used by the determinism tests).
std::string to_json(const SweepResult& res, const std::string& name,
                    bool include_timing = true);

/// Write `to_json` to `path` ("-" writes to stdout). Throws
/// std::runtime_error on I/O failure.
void write_json_file(const SweepResult& res, const std::string& name,
                     const std::string& path);

/// Merged sweep-level tcn-metrics-1 document: one entry per run that
/// collected metrics (index/group/label + the run's counters/gauges/
/// histograms), in job-index order -- byte-identical for any --jobs since
/// SweepResult::runs is index-ordered regardless of worker scheduling.
std::string metrics_to_json(const SweepResult& res, const std::string& name);

/// Write `metrics_to_json` to `path` ("-" writes to stdout). Throws
/// std::runtime_error on I/O failure.
void write_metrics_file(const SweepResult& res, const std::string& name,
                        const std::string& path);

}  // namespace tcn::runner
