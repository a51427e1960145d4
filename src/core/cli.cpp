#include "core/cli.hpp"

#include <cstdio>
#include <stdexcept>

#include "sim/parse.hpp"

namespace tcn::core {

void parse_sched_spec(const std::string& spec, SchedConfig& sched) {
  const std::size_t colon = spec.find(':');
  try {
    sched.kind = parse_sched(spec.substr(0, colon));
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(std::string("--sched: ") + e.what());
  }
  if (colon == std::string::npos) return;
  const std::string params = spec.substr(colon + 1);
  if (sched.kind == SchedKind::kSpPifo) {
    // sp-pifo:<levels> -- the number of strict-priority levels.
    sched.sp_pifo_levels = sim::parse_u64("--sched sp-pifo:<levels>", params);
    if (sched.sp_pifo_levels < 2) {
      throw std::invalid_argument("--sched sp-pifo: levels must be >= 2");
    }
  } else if (sched.kind == SchedKind::kAifo) {
    // aifo:<window>,<k> -- both required when parameters are given.
    const std::size_t comma = params.find(',');
    if (comma == std::string::npos) {
      throw std::invalid_argument(
          "--sched aifo: expected aifo:<window>,<k>");
    }
    sched.aifo_window =
        sim::parse_u64("--sched aifo:<window>", params.substr(0, comma));
    if (sched.aifo_window < 1) {
      throw std::invalid_argument("--sched aifo: window must be >= 1");
    }
    sched.aifo_k =
        sim::parse_double("--sched aifo:<k>", params.substr(comma + 1));
    if (!(sched.aifo_k >= 0.0 && sched.aifo_k < 1.0)) {
      throw std::invalid_argument("--sched aifo: k must be in [0, 1)");
    }
  } else {
    throw std::invalid_argument("--sched: '" + spec.substr(0, colon) +
                                "' takes no parameters");
  }
}

std::string format_report(const FctExperiment& cfg, const FctReport& r) {
  char buf[1024];
  std::snprintf(
      buf, sizeof buf,
      "scheme=%s sched=%s load=%.0f%% flows=%zu/%zu\n"
      "  avg FCT (all)      : %.1f us\n"
      "  avg FCT (<=100KB)  : %.1f us   p99: %.1f us\n"
      "  avg FCT (>10MB)    : %.1f us\n"
      "  small-flow timeouts: %llu   switch drops: %llu   marks: %llu\n"
      "  events: %llu   sim time: %.3f s\n",
      scheme_name(cfg.scheme).c_str(), sched_name(cfg.sched.kind).c_str(),
      cfg.load * 100, r.flows_completed, r.flows_started, r.summary.avg_all_us,
      r.summary.avg_small_us, r.summary.p99_small_us, r.summary.avg_large_us,
      static_cast<unsigned long long>(r.summary.small_timeouts),
      static_cast<unsigned long long>(r.switch_drops),
      static_cast<unsigned long long>(r.switch_marks),
      static_cast<unsigned long long>(r.events), sim::to_seconds(r.sim_end));
  std::string out = buf;
  if (r.traffic_open_loop) {
    const double dur_s = sim::to_seconds(r.sim_end);
    const double offered_gbps =
        dur_s > 0 ? r.traffic_offered_bytes * 8.0 / dur_s / 1e9 : 0.0;
    const double achieved_gbps =
        dur_s > 0 ? r.traffic_achieved_bytes * 8.0 / dur_s / 1e9 : 0.0;
    std::snprintf(
        buf, sizeof buf,
        "  open loop: %llu arrivals (%llu replayed)   peak active: %llu\n"
        "  offered: %.3f Gbps   achieved: %.3f Gbps\n"
        "  flow slab: %llu slots, %llu reuses, %llu recycles\n",
        static_cast<unsigned long long>(r.traffic_arrivals),
        static_cast<unsigned long long>(r.traffic_replayed),
        static_cast<unsigned long long>(r.traffic_active_peak), offered_gbps,
        achieved_gbps, static_cast<unsigned long long>(r.slab_fresh),
        static_cast<unsigned long long>(r.slab_reused),
        static_cast<unsigned long long>(r.slab_recycled));
    out += buf;
  }
  if (!cfg.faults.empty()) {
    std::snprintf(buf, sizeof buf,
                  "  faults: %zu spec(s)   fault drops: %llu (buffer drops "
                  "reported above)\n",
                  cfg.faults.size(),
                  static_cast<unsigned long long>(r.fault_drops));
    out += buf;
  }
  if (r.stability_analyzed) {
    std::snprintf(
        buf, sizeof buf,
        "  stability[%s]: regime=%s osc=%.3f sojourn_cv=%.3f "
        "mark_burst=%.2f (%llu ticks x %llu channels)\n",
        r.stability_channel.c_str(),
        std::string(obs::regime_name(r.stability.regime)).c_str(),
        r.stability.oscillation_score, r.stability.sojourn_cv,
        r.stability.mark_burstiness,
        static_cast<unsigned long long>(r.series_ticks),
        static_cast<unsigned long long>(r.series_channels));
    out += buf;
  }
  if (r.invariants_checked) {
    if (r.invariant_violations == 0) {
      std::snprintf(buf, sizeof buf, "  invariants: OK (%llu events checked)\n",
                    static_cast<unsigned long long>(r.invariant_events));
    } else {
      std::snprintf(buf, sizeof buf,
                    "  invariants: %llu VIOLATION(S) -- first: %s\n",
                    static_cast<unsigned long long>(r.invariant_violations),
                    r.invariant_message.c_str());
    }
    out += buf;
  }
  return out;
}

}  // namespace tcn::core
