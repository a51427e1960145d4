// CoDel (Nichols & Jacobson, CACM 2012) in mark-only mode.
//
// The baseline the paper contrasts TCN against (Sec. 4.3): CoDel tracks
// whether the *minimum* sojourn time over a sliding `interval` stayed above
// `target`; while that persists it marks at a rate that increases with the
// inverse-sqrt control law. Per-queue state: first_above_time, drop_next,
// count, dropping -- exactly the statefulness TCN eliminates.
//
// The implementation follows the Linux sch_codel control law (as the paper's
// prototype does), with dropping replaced by CE marking since the evaluation
// configures CoDel to mark.
#pragma once

#include <cstdint>
#include <vector>

#include "aqm/marker_metrics.hpp"
#include "net/marker.hpp"
#include "sim/time.hpp"

namespace tcn::aqm {

class CodelMarker final : public net::Marker {
 public:
  /// `target`: acceptable standing sojourn time; `interval`: sliding window
  /// (testbed tuning in the paper: 51.2us / 1024us; Internet: 5ms / 100ms).
  CodelMarker(sim::Time target, sim::Time interval,
              std::uint32_t mtu_bytes = 1500);

  bool on_dequeue(const net::MarkContext& ctx, const net::Packet& p) override;

  [[nodiscard]] std::string_view name() const override { return "codel"; }

  struct QueueState {
    sim::Time first_above_time = 0;
    sim::Time drop_next = 0;
    std::uint32_t count = 0;
    std::uint32_t lastcount = 0;
    bool dropping = false;
  };

  /// Test hook: inspect per-queue control state.
  [[nodiscard]] const QueueState& state(std::size_t q) const {
    return states_.at(q);
  }

 private:
  [[nodiscard]] sim::Time control_law(sim::Time t, std::uint32_t count) const;
  bool decide(const net::MarkContext& ctx, sim::Time sojourn);

  sim::Time target_;
  sim::Time interval_;
  std::uint32_t mtu_;
  std::vector<QueueState> states_;
  MarkerMetrics metrics_;
};

}  // namespace tcn::aqm
