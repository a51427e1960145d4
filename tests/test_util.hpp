// Shared helpers for unit tests: packet factories, a capturing sink node and
// a recording port observer.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "net/node.hpp"
#include "net/packet.hpp"
#include "net/trace.hpp"

namespace tcn::test {

/// Node that records every packet it receives.
class CaptureNode final : public net::Node {
 public:
  void receive(net::PacketPtr p, std::size_t ingress) override {
    ingresses.push_back(ingress);
    packets.push_back(std::move(p));
  }
  [[nodiscard]] std::string_view name() const override { return "capture"; }

  std::vector<net::PacketPtr> packets;
  std::vector<std::size_t> ingresses;
};

/// Data packet of `size` wire bytes tagged with `dscp` and flow id.
inline net::PacketPtr make_test_packet(std::uint32_t size,
                                       std::uint8_t dscp = 0,
                                       std::uint64_t flow = 0,
                                       net::Ecn ecn = net::Ecn::kEct0) {
  auto p = net::make_packet();
  p->type = net::PacketType::kData;
  p->size = size;
  p->payload = size > net::kHeaderBytes ? size - net::kHeaderBytes : 0;
  p->dscp = dscp;
  p->flow = flow;
  p->ecn = ecn;
  return p;
}

/// Records every port event (optionally filtered), up to a cap.
class RecordingTracer final : public net::PortObserver {
 public:
  using Filter = std::function<bool(const net::TraceRecord&)>;

  explicit RecordingTracer(std::size_t max_records = 1'000'000,
                           Filter filter = nullptr)
      : max_(max_records), filter_(std::move(filter)) {}

  void on_event(const net::TraceRecord& rec) override {
    if (filter_ && !filter_(rec)) return;
    if (records_.size() < max_) {
      records_.push_back(rec);
      ++tally_[static_cast<std::size_t>(rec.event)];
    } else {
      ++overflow_;
    }
  }

  [[nodiscard]] const std::vector<net::TraceRecord>& records() const noexcept {
    return records_;
  }
  [[nodiscard]] std::uint64_t overflow() const noexcept { return overflow_; }

  /// Number of STORED records of type `e` (capped records are not counted,
  /// matching records()).
  [[nodiscard]] std::size_t count(net::TraceEvent e) const {
    return tally_[static_cast<std::size_t>(e)];
  }

 private:
  // One slot per TraceEvent enumerator (kEnqueue..kSchedDrop).
  static constexpr std::size_t kNumEvents =
      static_cast<std::size_t>(net::TraceEvent::kSchedDrop) + 1;

  std::size_t max_;
  Filter filter_;
  std::vector<net::TraceRecord> records_;
  std::uint64_t overflow_ = 0;
  std::array<std::size_t, kNumEvents> tally_{};
};

}  // namespace tcn::test
