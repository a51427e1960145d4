// ECN marking (AQM) interface.
//
// A Marker is consulted by the egress Port at enqueue and dequeue. Returning
// true requests a CE mark; the Port applies it only to ECT packets. Markers
// never drop -- the paper's evaluation runs every AQM (including CoDel) in
// mark-only mode, and TCN is mark-only by design (Sec. 4.2).
#pragma once

#include <cstdint>
#include <string_view>

#include "net/packet.hpp"
#include "sim/time.hpp"

namespace tcn::net {

/// Snapshot of the egress state a marking decision may use.
struct MarkContext {
  sim::Time now = 0;
  std::size_t queue = 0;          ///< queue index within the port
  std::uint64_t queue_bytes = 0;  ///< occupancy of that queue (see hooks)
  std::uint64_t port_bytes = 0;   ///< total occupancy across the port
  std::uint64_t link_rate_bps = 0;
};

class Marker {
 public:
  virtual ~Marker() = default;

  /// Called right after the packet is admitted; `queue_bytes`/`port_bytes`
  /// include the packet. Return true to set CE.
  virtual bool on_enqueue(const MarkContext& /*ctx*/, const Packet& /*p*/) {
    return false;
  }

  /// Called when the packet leaves the queue for the wire; occupancies
  /// exclude the departing packet. Return true to set CE.
  virtual bool on_dequeue(const MarkContext& /*ctx*/, const Packet& /*p*/) {
    return false;
  }

  [[nodiscard]] virtual std::string_view name() const = 0;
};

/// Marker that never marks (plain drop-tail behaviour).
class NullMarker final : public Marker {
 public:
  [[nodiscard]] std::string_view name() const override { return "none"; }
};

}  // namespace tcn::net
