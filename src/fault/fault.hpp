// Fault injection across the simulation stack.
//
// Three fault classes, all schedulable mid-run and all reachable from the
// CLI via --faults:
//
//   - link outages: a downed Port blackholes in-flight and newly submitted
//     packets into its fault_drops counter; ECMP groups steer around dead
//     members and TCP rides out the outage on its (capped) RTO backoff
//   - random per-link packet loss: independent Bernoulli loss, or bursty
//     Gilbert-Elliott two-state loss (the classic model for correlated
//     wireless/link-level corruption), seeded so runs stay reproducible
//   - transient buffer squeezes: shrink a port's shared buffer for a window,
//     modeling a neighbor hogging a shared-memory switch chip
//
// The FaultInjector owns the loss models and schedules the transitions on
// the simulator; a FaultPlan (vector of FaultSpec) is the declarative form
// the CLI parses and the experiment harness applies onto a built topology.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "net/port.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"
#include "topo/network.hpp"

namespace tcn::fault {

/// Independent per-packet loss with probability `p`.
class BernoulliLoss final : public net::LossModel {
 public:
  BernoulliLoss(double p, std::uint64_t seed);

  bool should_drop(const net::Packet& p, sim::Time now) override;
  [[nodiscard]] std::string_view name() const override { return "bernoulli"; }
  [[nodiscard]] double rate() const noexcept { return p_; }

 private:
  double p_;
  sim::Rng rng_;
};

/// Two-state Gilbert-Elliott burst loss: a Good/Bad Markov chain stepped
/// once per packet; packets drop with probability `loss_good` in Good
/// (usually 0) and `loss_bad` in Bad (often 1), so losses arrive in bursts
/// whose mean length is 1 / p_bad_to_good packets.
class GilbertElliottLoss final : public net::LossModel {
 public:
  struct Params {
    double p_good_to_bad = 0.001;
    double p_bad_to_good = 0.1;
    double loss_good = 0.0;
    double loss_bad = 1.0;
  };

  GilbertElliottLoss(Params params, std::uint64_t seed);

  /// Parameterize from an overall target loss rate and a mean burst length
  /// in packets (with loss_good = 0, loss_bad = 1): the stationary Bad-state
  /// probability equals `loss_rate`.
  static Params from_loss_rate(double loss_rate, double mean_burst_pkts);

  bool should_drop(const net::Packet& p, sim::Time now) override;
  [[nodiscard]] std::string_view name() const override {
    return "gilbert-elliott";
  }

 private:
  Params params_;
  bool bad_ = false;
  sim::Rng rng_;
};

/// One declarative fault. `target` selects ports by name glob ("leaf*",
/// "spine3.p0", "*.nic", "*" ...) or, for link faults, by the pair form
/// "leafL-spineS" / "<nodeA>-<nodeB>" which downs both directions of the
/// link between the two named nodes.
struct FaultSpec {
  enum class Kind {
    kLinkDown,        ///< start/duration window, both matched directions
    kBernoulliLoss,   ///< rate = loss probability
    kGilbertElliott,  ///< rate = overall loss, burst_pkts = mean burst
    kBufferSqueeze,   ///< buffer_bytes = squeezed shared-buffer cap
  };

  Kind kind = Kind::kLinkDown;
  std::string target;
  sim::Time start = 0;
  sim::Time duration = 0;  ///< 0 = until the end of the run
  double rate = 0.0;
  double burst_pkts = 10.0;
  std::uint64_t buffer_bytes = 0;
};

using FaultPlan = std::vector<FaultSpec>;

/// Parse a ';'-separated --faults string. Grammar (times in ms, floats ok):
///   linkdown:<target>:<start_ms>:<duration_ms>
///   loss:<target>:<p>[:<start_ms>:<duration_ms>]
///   geloss:<target>:<p>[:<burst_pkts>[:<start_ms>:<duration_ms>]]
///   squeeze:<target>:<bytes>:<start_ms>:<duration_ms>
/// Empty clauses ("a;;b", a trailing ';') are skipped; an empty field
/// ("linkdown:*::100:50") is an error. Throws std::invalid_argument with a
/// helpful message on bad input.
FaultPlan parse_fault_specs(const std::string& spec);

/// Parse a '|'-separated --fault-grid string into labelled sweep-axis cells:
/// each cell is a complete --faults list, and the literal cell "none" (or an
/// empty cell) is the fault-free plan. The cell text itself is the label, so
/// "none|loss:leaf*:0.01" yields {("none", {}), ("loss:leaf*:0.01", <plan>)}.
/// Throws std::invalid_argument on bad input or an empty grid.
std::vector<std::pair<std::string, FaultPlan>> parse_fault_grid(
    const std::string& grid);

/// `*`/`?` glob match (no character classes), anchored at both ends.
[[nodiscard]] bool glob_match(std::string_view pattern, std::string_view text);

/// Every port of `network` (switch egresses and host NICs) whose name
/// matches `target`; for the pair form "a-b", the two ports of the a<->b
/// link. Returns an empty vector when nothing matches.
std::vector<net::Port*> resolve_target(topo::Network& network,
                                       const std::string& target);

/// Schedules fault transitions on concrete ports and owns the loss models;
/// must outlive the simulation run.
class FaultInjector {
 public:
  explicit FaultInjector(sim::Simulator& sim, std::uint64_t seed = 1)
      : sim_(sim), seed_(seed) {}

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Down `port` over [start, start+duration); duration 0 downs it forever.
  void schedule_link_down(net::Port& port, sim::Time start, sim::Time duration);

  /// Attach Bernoulli loss over the window (start 0 = immediately,
  /// duration 0 = rest of the run). One loss model per port: attaching a
  /// second replaces the first at its start time.
  void add_bernoulli_loss(net::Port& port, double p, sim::Time start = 0,
                          sim::Time duration = 0);

  void add_gilbert_elliott(net::Port& port, GilbertElliottLoss::Params params,
                           sim::Time start = 0, sim::Time duration = 0);

  /// Squeeze `port`'s shared buffer to `bytes` over [start, start+duration).
  void schedule_buffer_squeeze(net::Port& port, std::uint64_t bytes,
                               sim::Time start, sim::Time duration);

  /// Resolve and apply every spec in `plan` onto `network`. Returns the
  /// number of (spec, port) applications; throws std::invalid_argument if a
  /// spec matches no port.
  std::size_t apply(topo::Network& network, const FaultPlan& plan);

  [[nodiscard]] std::size_t models_owned() const noexcept {
    return models_.size();
  }

 private:
  void attach_loss_window(net::Port& port, net::LossModel* model,
                          sim::Time start, sim::Time duration);
  std::uint64_t next_seed();

  sim::Simulator& sim_;
  std::uint64_t seed_;
  std::uint64_t models_created_ = 0;
  std::vector<std::unique_ptr<net::LossModel>> models_;
};

}  // namespace tcn::fault
