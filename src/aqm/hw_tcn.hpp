// Hardware-model TCN (Sec. 4.2): the paper argues a 2-byte enqueue
// timestamp at 4 or 8ns resolution suffices (4ns x 2^16 ~= 262us,
// 8ns x 2^16 ~= 524us -- beyond any datacenter RTT), with an unsigned
// wrapping subtraction at dequeue.
//
// HwTcnMarker reproduces that data path bit-for-bit: timestamps are
// quantized to `resolution_ns` ticks and truncated to `bits` bits; the
// sojourn is recovered by wrapping subtraction. It matches the ideal
// TcnMarker for all sojourns below the wrap horizon (verified by tests);
// beyond the horizon the measurement aliases, exactly as real silicon would.
#pragma once

#include <cstdint>
#include <stdexcept>

#include "aqm/marker_metrics.hpp"
#include "net/marker.hpp"
#include "sim/time.hpp"

namespace tcn::aqm {

/// Fixed-width wrapping tick counter arithmetic.
class WrappingClock {
 public:
  WrappingClock(std::uint32_t resolution_ns, std::uint32_t bits)
      : resolution_(resolution_ns), bits_(bits) {
    if (resolution_ns == 0 || bits == 0 || bits > 31) {
      throw std::invalid_argument("WrappingClock: bad parameters");
    }
    mask_ = (1u << bits) - 1u;  // only after the check: a shift by 32 is UB
  }

  /// Truncated tick stamp of an absolute time.
  [[nodiscard]] std::uint32_t stamp(sim::Time t) const {
    return static_cast<std::uint32_t>(
               static_cast<std::uint64_t>(t) / resolution_) &
           mask_;
  }

  /// Elapsed time recovered by wrapping subtraction; correct while the real
  /// elapsed time is below horizon().
  [[nodiscard]] sim::Time elapsed(std::uint32_t enq_stamp,
                                  std::uint32_t deq_stamp) const {
    const std::uint32_t ticks = (deq_stamp - enq_stamp) & mask_;
    return static_cast<sim::Time>(ticks) * resolution_;
  }

  /// Maximum unambiguous measurement (262us at 4ns/16b, 524us at 8ns/16b).
  [[nodiscard]] sim::Time horizon() const {
    return static_cast<sim::Time>(mask_ + 1ull) * resolution_;
  }

  [[nodiscard]] std::uint32_t resolution_ns() const noexcept {
    return resolution_;
  }
  [[nodiscard]] std::uint32_t bits() const noexcept { return bits_; }

 private:
  std::uint32_t resolution_;
  std::uint32_t bits_;
  std::uint32_t mask_ = 0;
};

class HwTcnMarker final : public net::Marker {
 public:
  /// `threshold` is T = RTT x lambda; it must fit in the clock horizon (the
  /// paper sizes the clock so a datacenter RTT always does).
  HwTcnMarker(sim::Time threshold, std::uint32_t resolution_ns = 4,
              std::uint32_t bits = 16)
      : clock_(resolution_ns, bits),
        threshold_ticks_(static_cast<std::uint32_t>(
            static_cast<std::uint64_t>(threshold) / resolution_ns)),
        metrics_("tcn-hw", /*with_sojourn=*/true) {
    if (threshold <= 0 || threshold >= clock_.horizon()) {
      throw std::invalid_argument(
          "HwTcnMarker: threshold out of clock horizon");
    }
  }

  bool on_dequeue(const net::MarkContext& ctx, const net::Packet& p) override {
    // The metadata the chip would carry: the truncated enqueue stamp. We
    // recompute it from the per-hop enqueue_ts the Port already records.
    const std::uint32_t enq = clock_.stamp(p.enqueue_ts);
    const std::uint32_t deq = clock_.stamp(ctx.now);
    const sim::Time sojourn = clock_.elapsed(enq, deq);
    // Integer compare in ticks -- the whole dequeue-side ALU.
    const bool mark = sojourn > static_cast<sim::Time>(threshold_ticks_) *
                                    clock_.resolution_ns();
    metrics_.decision(mark, sojourn);
    return mark;
  }

  [[nodiscard]] std::string_view name() const override { return "tcn-hw"; }
  [[nodiscard]] const WrappingClock& clock() const noexcept { return clock_; }

 private:
  WrappingClock clock_;
  std::uint32_t threshold_ticks_;
  MarkerMetrics metrics_;
};

}  // namespace tcn::aqm
