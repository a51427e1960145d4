#include "runner/results.hpp"

#include "obs/export.hpp"
#include "obs/json.hpp"

namespace tcn::runner {
namespace {

const char* topology_name(core::FctExperiment::Topology t) {
  return t == core::FctExperiment::Topology::kStarConverge ? "star"
                                                           : "leafspine";
}

}  // namespace

void write_run_object(obs::JsonWriter& w, const RunRecord& r,
                      bool include_timing) {
  const auto& cfg = r.job.cfg;
  w.begin_object();
  w.key("index").value(r.job.index);
  w.key("group").value(r.job.group);
  w.key("label").value(r.job.label);
  w.key("scheme").value(core::scheme_name(cfg.scheme));
  w.key("sched").value(core::sched_name(cfg.sched.kind));
  w.key("topology").value(topology_name(cfg.topology));
  w.key("load").value(cfg.load);
  w.key("flows").value(cfg.num_flows);
  w.key("seed").value(cfg.seed);
  w.key("faults").value(r.job.fault_label);
  // Only present when the sweep has a traffic axis or the run was open
  // loop, so closed-loop documents (and the schema golden) are unchanged.
  if (!r.job.traffic_label.empty() || r.report.traffic_open_loop) {
    w.key("traffic").value(r.job.traffic_label);
  }
  w.key("ok").value(r.ok);
  w.key("skipped").value(r.skipped);
  w.key("error").value(r.error);
  w.key("error_kind").value(error_kind_name(r.error_kind));
  w.key("attempts").value(r.attempts);

  const auto& s = r.report.summary;
  w.key("fct").begin_object();
  w.key("count").value(s.count);
  w.key("avg_all_us").value(s.avg_all_us);
  w.key("small_count").value(s.small_count);
  w.key("avg_small_us").value(s.avg_small_us);
  w.key("p99_small_us").value(s.p99_small_us);
  w.key("large_count").value(s.large_count);
  w.key("avg_large_us").value(s.avg_large_us);
  w.key("timeouts").value(s.timeouts);
  w.key("small_timeouts").value(s.small_timeouts);
  w.end_object();

  w.key("counters").begin_object();
  w.key("switch_drops").value(r.report.switch_drops);
  w.key("switch_marks").value(r.report.switch_marks);
  w.key("fault_drops").value(r.report.fault_drops);
  w.key("sched_drops").value(r.report.sched_drops);
  w.key("pool_fresh").value(r.report.pool_fresh);
  w.key("pool_reused").value(r.report.pool_reused);
  w.key("pool_recycled").value(r.report.pool_recycled);
  w.key("sim_peak_pending").value(r.report.sim_peak_pending);
  w.key("sim_calendar_resizes").value(r.report.sim_calendar_resizes);
  w.end_object();

  // Open-loop engine telemetry; absent on closed-loop runs (same conditional
  // discipline as "metrics" below).
  if (r.report.traffic_open_loop) {
    w.key("traffic_counters").begin_object();
    w.key("arrivals").value(r.report.traffic_arrivals);
    w.key("replayed").value(r.report.traffic_replayed);
    w.key("active_peak").value(r.report.traffic_active_peak);
    w.key("offered_bytes").value(r.report.traffic_offered_bytes);
    w.key("achieved_bytes").value(r.report.traffic_achieved_bytes);
    w.key("slab_fresh").value(r.report.slab_fresh);
    w.key("slab_reused").value(r.report.slab_reused);
    w.key("slab_recycled").value(r.report.slab_recycled);
    w.end_object();
  }

  // Time-series stability reduction; absent unless the run sampled, so
  // existing documents (and the schema golden) are unchanged. No timing
  // fields inside: everything is deterministic per config.
  if (r.report.stability_analyzed) {
    w.key("stability").begin_object();
    w.key("channels").value(r.report.series_channels);
    w.key("ticks").value(r.report.series_ticks);
    w.key("channel").value(r.report.stability_channel);
    obs::write_stability_object(w, r.report.stability);
    w.end_object();
  }

  w.key("flows_started").value(r.report.flows_started);
  w.key("flows_completed").value(r.report.flows_completed);
  w.key("events").value(r.report.events);
  w.key("sim_end_s").value(sim::to_seconds(r.report.sim_end));
  w.key("wall_ms").value(include_timing ? r.wall_ms : 0.0);
  w.key("events_per_sec").value(include_timing ? r.events_per_sec : 0.0);
  // Only present when the run collected metrics, so the baseline document
  // (and its golden) is byte-for-byte unchanged when observability is off.
  if (r.report.metrics_collected) {
    w.key("metrics").begin_object();
    obs::write_metrics_object(w, r.report.metrics);
    w.end_object();
  }
  // Likewise: the flight-recorder tail only appears on runs that died with
  // one attached.
  if (!r.postmortem.empty()) {
    w.key("postmortem").value(r.postmortem);
  }
  w.end_object();
}

std::string to_json(const SweepResult& res, const std::string& name,
                    bool include_timing) {
  std::uint64_t total_events = 0;
  for (const auto& r : res.runs) total_events += r.report.events;

  obs::JsonWriter w;
  w.begin_object();
  w.key("schema").value("tcn-bench-1");
  w.key("name").value(name);
  w.key("jobs").value(include_timing ? res.jobs_used : std::size_t{0});
  w.key("wall_ms").value(include_timing ? res.wall_ms : 0.0);
  w.key("totals").begin_object();
  w.key("runs").value(res.runs.size());
  w.key("completed").value(res.completed);
  w.key("failed").value(res.failed);
  w.key("skipped").value(res.skipped);
  // How the result was produced (fresh vs resumed) is host-execution
  // metadata like "jobs": zeroed under include_timing=false so a resumed
  // aggregate stays byte-identical to an uninterrupted one.
  w.key("restored").value(include_timing ? res.restored : std::size_t{0});
  w.key("retries").value(std::size_t{0});  // see results.hpp
  w.key("failed_timeout").value(res.failed_timeout);
  w.key("failed_invariant").value(res.failed_invariant);
  w.key("failed_oom_guard").value(res.failed_oom_guard);
  w.key("failed_exception").value(res.failed_exception);
  w.key("pool_exceptions").value(std::size_t{0});
  w.key("events").value(total_events);
  w.end_object();
  w.key("runs").begin_array();
  for (const auto& r : res.runs) write_run_object(w, r, include_timing);
  w.end_array();
  w.end_object();
  std::string out = w.str();
  out += '\n';
  return out;
}

void write_json_file(const SweepResult& res, const std::string& name,
                     const std::string& path) {
  obs::write_text_file(path, to_json(res, name));
}

std::string metrics_to_json(const SweepResult& res, const std::string& name) {
  obs::JsonWriter w(2);
  w.begin_object();
  w.key("schema").value("tcn-metrics-1");
  w.key("name").value(name);
  w.key("runs").begin_array();
  for (const auto& r : res.runs) {
    if (!r.report.metrics_collected) continue;
    w.begin_object();
    w.key("index").value(r.job.index);
    w.key("group").value(r.job.group);
    w.key("label").value(r.job.label);
    obs::write_metrics_object(w, r.report.metrics);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  std::string out = w.str();
  out += '\n';
  return out;
}

void write_metrics_file(const SweepResult& res, const std::string& name,
                        const std::string& path) {
  obs::write_text_file(path, metrics_to_json(res, name));
}

}  // namespace tcn::runner
