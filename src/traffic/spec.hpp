// Declarative description of an open-loop traffic scenario.
//
// A TrafficSpec is what the --traffic CLI grammar parses into (parallel to
// fault::FaultPlan and --faults): a set of tenants, each with its own
// flow-size CDF, share of the offered load, arrival process (Poisson or
// bursty MMPP) and optional DSCP override; an optional diurnal load-factor
// schedule modulating every tenant's instantaneous rate; and an optional
// JSONL trace-replay source. The spec is pure data -- traffic::TrafficEngine
// turns it into scheduled arrivals against a built topology.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "workload/distributions.hpp"

namespace tcn::traffic {

/// One tenant of the traffic mix: a flow-size CDF, a share of the offered
/// load, an arrival process, and an optional DSCP class override.
struct TenantSpec {
  enum class Arrival { kPoisson, kMmpp };

  std::string name;
  workload::Kind workload = workload::Kind::kWebSearch;
  double share = 1.0;  ///< relative rate share (normalized over tenants)
  int dscp = -1;       ///< 0..63 tags every packet; -1 = scheme default

  Arrival arrival = Arrival::kPoisson;
  // MMPP parameters (ignored for Poisson). The long-run average rate always
  // equals the tenant's share of the offered load; burst_ratio scales the
  // burst-state rate above it and duty is the long-run fraction of time
  // spent bursting, so the idle-state rate is derived as
  // rate * (1 - burst_ratio * duty) / (1 - duty).
  double burst_ratio = 4.0;  ///< burst-state rate multiplier (>= 1)
  double duty = 0.25;        ///< fraction of time in the burst state, (0,1)
  double dwell_ms = 10.0;    ///< mean burst-state dwell time, ms
};

/// Periodic load-factor schedule (raised cosine): factor(t) swings between
/// min_factor (at t = 0 mod period) and peak_factor (half a period later),
/// multiplying every tenant's instantaneous arrival rate.
struct DiurnalSpec {
  double period_s = 0.0;  ///< 0 = disabled
  double min_factor = 1.0;
  double peak_factor = 1.0;

  [[nodiscard]] bool enabled() const noexcept { return period_s > 0.0; }
};

struct TrafficSpec {
  std::vector<TenantSpec> tenants;
  DiurnalSpec diurnal;
  std::string replay_path;  ///< JSONL flow trace; empty = no replay source

  /// An experiment runs open loop iff the spec has any source.
  [[nodiscard]] bool enabled() const noexcept {
    return !tenants.empty() || !replay_path.empty();
  }
};

/// Parse a ';'-separated --traffic string. Grammar (dscp "-" = scheme
/// default; trailing optional fields may be omitted):
///   poisson:<name>:<workload>:<share>[:<dscp>]
///   mmpp:<name>:<workload>:<share>[:<dscp>[:<burst>[:<duty>[:<dwell_ms>]]]]
///   diurnal:<period_s>:<min_factor>:<peak_factor>
///   replay:<path>
/// <workload> is web-search|data-mining|hadoop|cache, hyphens optional
/// (workload::from_name). At most one diurnal and one replay clause.
/// Throws std::invalid_argument on bad input.
TrafficSpec parse_traffic_spec(const std::string& spec);

/// Parse a '|'-separated --traffic-grid string into labelled sweep-axis
/// cells: each cell is a complete --traffic list and the literal cell "none"
/// (or an empty cell) is the closed-loop baseline (disabled spec). The cell
/// text itself is the label, mirroring fault::parse_fault_grid. Throws
/// std::invalid_argument on bad input or an empty grid.
std::vector<std::pair<std::string, TrafficSpec>> parse_traffic_grid(
    const std::string& grid);

}  // namespace tcn::traffic
