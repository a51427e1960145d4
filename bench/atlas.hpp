// Stability atlas: parameter-space maps of marking threshold x load x
// buffer for TCN vs CoDel vs RED vs PIE across packet schedulers.
//
// Each grid cell is one core::FctExperiment on the 9-host testbed star with
// time-series sampling enabled; the per-cell stability reduction
// (oscillation score, sojourn CV, mark burstiness, regime) comes straight
// from obs::StabilityAnalyzer via the sweep runner, so a cell is exactly
// one RunRecord and the whole atlas aggregates byte-identically for any
// --jobs. The emitted "tcn-atlas-1" document carries NO host-timing fields
// at all -- CI byte-compares (cmp) a jobs=1 against a jobs=4 atlas.
//
// The threshold axis is the paper's sojourn threshold T; every AQM gets T
// mapped onto its native parameter (see apply_atlas_threshold) so the axes
// are comparable across schemes: RED's byte threshold is the queue length
// that drains in T at line rate, CoDel keeps its target ~T/5 and interval
// ~4T tuning recipe, PIE derives its target/update from T.
#pragma once

#include <cstdio>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "core/cli.hpp"
#include "obs/export.hpp"

namespace tcn::bench {

struct AtlasAxes {
  std::vector<std::pair<std::string, core::SchedKind>> scheds;
  std::vector<SchemeRun> schemes;
  std::vector<double> thresholds_us;
  std::vector<double> loads;
  std::vector<std::uint64_t> buffer_bytes;

  [[nodiscard]] std::size_t cells() const noexcept {
    return scheds.size() * schemes.size() * thresholds_us.size() *
           loads.size() * buffer_bytes.size();
  }
};

/// The acceptance grid: >= 4 AQMs x >= 2 schedulers over threshold x load x
/// buffer. Thresholds bracket the testbed default T = 256us; buffers
/// bracket the 96KB testbed buffer down into the Tiny-Buffer corner.
inline AtlasAxes default_atlas_axes() {
  AtlasAxes a;
  a.scheds = {{"dwrr", core::SchedKind::kDwrr},
              {"wfq", core::SchedKind::kWfq},
              {"sp-pifo", core::SchedKind::kSpPifo},
              {"aifo", core::SchedKind::kAifo}};
  a.schemes = {{"TCN", core::Scheme::kTcn},
               {"CoDel", core::Scheme::kCodel},
               {"RED", core::Scheme::kRedPerQueue},
               {"PIE", core::Scheme::kPie}};
  a.thresholds_us = {64, 256, 1024};
  a.loads = {0.5, 0.7, 0.9};
  a.buffer_bytes = {24'000, 48'000, 96'000};
  return a;
}

/// bench/atlas's command line: the axis flags, --flows/--seed/
/// --sample-interval-us and the shared sweep rows, whose --loads is the
/// load axis. Atlas takes no fault or traffic grid.
struct AtlasArgs {
  AtlasAxes axes = default_atlas_axes();
  double interval_us = 100.0;
  std::size_t flows = 500;
  std::uint64_t seed = 1;
  runner::SweepFlags sweep;

  AtlasArgs() { sweep.loads = axes.loads; }
};

inline runner::FlagTable atlas_flags(AtlasArgs& a) {
  // A positive microsecond value a sim::Time can hold.
  const auto micros = [](const std::string& flag, const std::string& v) {
    const double us = sim::parse_double(flag, v);
    if (!(us > 0)) throw std::invalid_argument(flag + ": must be > 0");
    sim::to_time(flag, us, sim::kMicrosecond);
    return us;
  };
  const auto scheme = [](const std::string&, const std::string& name) {
    return SchemeRun{name, core::parse_scheme(name)};
  };
  const auto sched = [](const std::string&, const std::string& name) {
    return std::pair{name, core::parse_sched(name)};
  };
  runner::FlagTable table;
  table.push_back({"--schemes", "s1,s2,...",
                   "AQMs: tcn tcn-prob codel mq-ecn red red-port\n"
                   "red-dequeue pie ideal-rate none\n"
                   "(default tcn,codel,red,pie)",
                   runner::list_setter(a.axes.schemes, scheme)});
  table.push_back({"--scheds", "s1,s2,...",
                   "schedulers: fifo sp dwrr wrr wfq sp-dwrr sp-wfq\n"
                   "pifo sp-pifo aifo (default dwrr,wfq,sp-pifo,aifo)",
                   runner::list_setter(a.axes.scheds, sched)});
  table.push_back({"--thresholds-us", "t1,t2,...",
                   "marking threshold axis T in us; every AQM gets\n"
                   "T mapped to its native knob (default 64,256,1024)",
                   runner::list_setter(a.axes.thresholds_us, micros)});
  table.push_back({"--buffers", "b1,b2,...",
                   "per-port buffer bytes axis\n(default 24000,48000,96000)",
                   runner::list_setter(a.axes.buffer_bytes, sim::parse_u64)});
  table.push_back({"--sample-interval-us", "F",
                   "time-series sampling interval (default 100)",
                   [&a, micros](const std::string& flag, const std::string& v) {
                     a.interval_us = micros(flag, v);
                   }});
  table.push_back({"--flows", "N", "flows per cell (default 500)",
                   runner::number_setter(a.flows)});
  table.push_back({"--seed", "S", "base RNG seed (default 1)",
                   runner::number_setter(a.seed)});
  runner::add_sweep_flags(table, a.sweep);
  return table;
}

/// Parses argv[1..]; throws std::invalid_argument naming the flag.
inline AtlasArgs parse_atlas_args(const std::vector<std::string>& args) {
  AtlasArgs a;
  runner::parse_flags(atlas_flags(a), args);
  a.axes.loads = a.sweep.loads;
  return a;
}

/// Map the atlas threshold axis T onto every scheme's native parameter so
/// one axis sweeps all AQMs comparably.
inline void apply_atlas_threshold(core::FctExperiment& cfg, double t_us) {
  const auto t = static_cast<sim::Time>(t_us * sim::kMicrosecond);
  cfg.params.rtt_lambda = t;  // TCN threshold; PIE derives target/update
  // RED: the instantaneous byte threshold draining in T at line rate
  // (1G x 256us -> 32KB, the paper's testbed K).
  cfg.params.red_threshold_bytes = static_cast<std::uint64_t>(
      static_cast<double>(cfg.star.link_rate_bps) * t_us * 1e-6 / 8.0);
  // CoDel: the testbed tuning recipe, target ~T/5 and interval ~4T.
  cfg.params.codel_target = t / 5;
  cfg.params.codel_interval = 4 * t;
  // Probabilistic-TCN band around T (unused by the default scheme set but
  // kept consistent for --schemes tcn-prob).
  cfg.params.tcn_tmin = t / 2;
  cfg.params.tcn_tmax = 3 * t / 2;
  cfg.params.tcn_pmax = 1.0;
  // PIE target/update are derived from rtt_lambda when left 0.
  cfg.params.pie_target = 0;
  cfg.params.pie_update = 0;
}

/// Compact deterministic cell label, e.g. "TCN/dwrr/t256/l0.7/b96000":
/// a resumed journal's records are matched to their cells by this label.
inline std::string atlas_cell_label(const std::string& scheme,
                                    const std::string& sched, double t_us,
                                    double load, std::uint64_t buffer) {
  char buf[128];
  std::snprintf(buf, sizeof buf, "%s/%s/t%g/l%g/b%llu", scheme.c_str(),
                sched.c_str(), t_us, load,
                static_cast<unsigned long long>(buffer));
  return buf;
}

/// Expand the grid into runner jobs. Cell order (and so run index) is
/// sched-major, then scheme, threshold, load, buffer -- the same
/// decomposition atlas_to_json uses.
inline std::vector<runner::Job> atlas_jobs(const AtlasAxes& axes,
                                           const core::FctExperiment& base) {
  std::vector<runner::Job> jobs;
  jobs.reserve(axes.cells());
  for (const auto& [sched_name, sched_kind] : axes.scheds) {
    for (const auto& scheme : axes.schemes) {
      for (const double t_us : axes.thresholds_us) {
        for (const double load : axes.loads) {
          for (const std::uint64_t buffer : axes.buffer_bytes) {
            runner::Job j;
            j.group = "atlas";
            j.label =
                atlas_cell_label(scheme.name, sched_name, t_us, load, buffer);
            j.cfg = base;
            j.cfg.scheme = scheme.scheme;
            j.cfg.sched.kind = sched_kind;
            j.cfg.load = load;
            j.cfg.star.buffer_bytes = buffer;
            apply_atlas_threshold(j.cfg, t_us);
            jobs.push_back(std::move(j));
          }
        }
      }
    }
  }
  return jobs;
}

/// Serialize the sweep as a tcn-atlas-1 heatmap document. Deterministic by
/// construction: runs are index-ordered, every field is config or a
/// deterministic result, and nothing host-timed is emitted -- byte-identical
/// for any --jobs, so CI uses cmp (not a timing-stripping diff).
inline std::string atlas_to_json(const AtlasAxes& axes,
                                 const runner::SweepResult& res,
                                 std::size_t flows, std::uint64_t seed,
                                 double interval_us) {
  obs::JsonWriter w(2);
  w.begin_object();
  w.key("schema").value("tcn-atlas-1");
  w.key("name").value("atlas");
  w.key("flows").value(flows);
  w.key("seed").value(seed);
  w.key("sample_interval_us").value(interval_us);
  w.key("axes").begin_object();
  w.key("sched").begin_array();
  for (const auto& [name, kind] : axes.scheds) w.value(name);
  w.end_array();
  w.key("scheme").begin_array();
  for (const auto& s : axes.schemes) w.value(s.name);
  w.end_array();
  w.key("threshold_us").begin_array();
  for (const double t : axes.thresholds_us) w.value(t);
  w.end_array();
  w.key("load").begin_array();
  for (const double l : axes.loads) w.value(l);
  w.end_array();
  w.key("buffer_bytes").begin_array();
  for (const std::uint64_t b : axes.buffer_bytes) w.value(b);
  w.end_array();
  w.end_object();
  w.key("cells").begin_array();
  const std::size_t nb = axes.buffer_bytes.size();
  const std::size_t nl = axes.loads.size();
  const std::size_t nt = axes.thresholds_us.size();
  const std::size_t nsch = axes.schemes.size();
  for (const runner::RunRecord& r : res.runs) {
    std::size_t rest = r.job.index;
    const std::size_t bi = rest % nb;
    rest /= nb;
    const std::size_t li = rest % nl;
    rest /= nl;
    const std::size_t ti = rest % nt;
    rest /= nt;
    const std::size_t schi = rest % nsch;
    const std::size_t si = rest / nsch;
    w.begin_object();
    w.key("index").value(r.job.index);
    w.key("sched").value(axes.scheds[si].first);
    w.key("scheme").value(axes.schemes[schi].name);
    w.key("threshold_us").value(axes.thresholds_us[ti]);
    w.key("load").value(axes.loads[li]);
    w.key("buffer_bytes").value(axes.buffer_bytes[bi]);
    w.key("ok").value(r.ok);
    w.key("error_kind").value(runner::error_kind_name(r.error_kind));
    w.key("fct").begin_object();
    w.key("avg_all_us").value(r.report.summary.avg_all_us);
    w.key("avg_small_us").value(r.report.summary.avg_small_us);
    w.key("p99_small_us").value(r.report.summary.p99_small_us);
    w.key("avg_large_us").value(r.report.summary.avg_large_us);
    w.key("timeouts").value(r.report.summary.timeouts);
    w.end_object();
    w.key("counters").begin_object();
    w.key("switch_drops").value(r.report.switch_drops);
    w.key("switch_marks").value(r.report.switch_marks);
    w.end_object();
    w.key("stability").begin_object();
    w.key("channel").value(r.report.stability_channel);
    w.key("ticks").value(r.report.series_ticks);
    obs::write_stability_object(w, r.report.stability);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  std::string out = w.str();
  out += '\n';
  return out;
}

/// Text heatmap on stdout: one table per (sched, scheme, buffer) slice,
/// thresholds down, loads across, each cell "<regime letter><osc score>".
inline void print_atlas_summary(const AtlasAxes& axes,
                                const runner::SweepResult& res) {
  const std::size_t nb = axes.buffer_bytes.size();
  const std::size_t nl = axes.loads.size();
  const std::size_t nt = axes.thresholds_us.size();
  auto rec = [&](std::size_t si, std::size_t schi, std::size_t ti,
                 std::size_t li, std::size_t bi) -> const runner::RunRecord& {
    return res.runs[(((si * axes.schemes.size() + schi) * nt + ti) * nl + li) *
                        nb +
                    bi];
  };
  std::printf("=== stability atlas (S stable, O oscillating, X saturated, "
              "! failed; number = oscillation score) ===\n");
  for (std::size_t si = 0; si < axes.scheds.size(); ++si) {
    for (std::size_t schi = 0; schi < axes.schemes.size(); ++schi) {
      for (std::size_t bi = 0; bi < nb; ++bi) {
        std::printf("\n-- %s / %s / buffer %llu --\n",
                    axes.schemes[schi].name.c_str(),
                    axes.scheds[si].first.c_str(),
                    static_cast<unsigned long long>(axes.buffer_bytes[bi]));
        std::printf("%10s", "T(us)\\load");
        for (const double l : axes.loads) std::printf("  %8.2f", l);
        std::printf("\n");
        for (std::size_t ti = 0; ti < nt; ++ti) {
          std::printf("%10g", axes.thresholds_us[ti]);
          for (std::size_t li = 0; li < nl; ++li) {
            const runner::RunRecord& r = rec(si, schi, ti, li, bi);
            if (!r.ok) {
              std::printf("  %8s", "!");
              continue;
            }
            char mark = 'S';
            if (r.report.stability.regime == obs::Regime::kOscillating) {
              mark = 'O';
            } else if (r.report.stability.regime == obs::Regime::kSaturated) {
              mark = 'X';
            }
            std::printf("  %c %6.3f", mark,
                        r.report.stability.oscillation_score);
          }
          std::printf("\n");
        }
      }
    }
  }
  std::printf("\n");
}

}  // namespace tcn::bench
