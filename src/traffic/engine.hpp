// Open-loop flow-arrival engine.
//
// The closed-loop generators in src/workload schedule a fixed flow budget
// and stop; arrival pressure adapts to completions because the budget is
// finite and small. TrafficEngine is the opposite discipline: flows arrive
// on their own clock (Poisson or MMPP per tenant, optionally modulated by a
// diurnal schedule, plus an optional trace replay) whether or not the
// network keeps up. At load factor > 1 the active-flow population grows
// without bound -- by design; the experiment harness pairs the engine with a
// sim::RunBudget pending-event guard so overload terminates as a classified
// failure instead of an OOM.
//
// Memory discipline: all per-flow transport state lives in the per-run
// FlowSlab (installed via FlowSlab::Scope), recycled at completion, so a
// run's heap footprint tracks peak *concurrent* flows while lifetime
// completions run to tens of millions. Flow ids come from the per-run
// FlowUidScope; all randomness is per-tenant seeded, so sweep results are
// byte-identical for any worker count.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "net/host.hpp"
#include "obs/metrics.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "traffic/arrival.hpp"
#include "traffic/flow_slab.hpp"
#include "traffic/spec.hpp"
#include "traffic/trace_replay.hpp"
#include "transport/flow.hpp"
#include "workload/traffic_gen.hpp"

namespace tcn::traffic {

struct EngineConfig {
  /// Offered load as a fraction of the reference capacity. Unlike the
  /// closed-loop generators, values > 1 are legal: sustained overload is
  /// exactly what open-loop experiments exist to create.
  double load = 0.5;
  /// Stop scheduling tenant arrivals after this many (0 = unlimited; trace
  /// replay always runs to the end of the trace).
  std::uint64_t max_flows = 0;
  std::uint64_t seed = 1;
  /// Star converge pattern (hosts[1..] -> hosts[0]) when true; all-to-all
  /// with uniform dst != src otherwise. Mirrors the closed-loop generators.
  bool converge = true;
};

/// Schedules open-loop arrivals against a built topology and recycles flow
/// state through the current FlowSlab. Must outlive the simulation run.
class TrafficEngine {
 public:
  using CompletionCb = std::function<void(const transport::FlowResult&)>;

  /// Requires a FlowSlab::Scope to be installed (throws std::logic_error
  /// otherwise) -- the slab is per-run state owned by the harness, reached
  /// through the scope like PacketPool. Loads the replay trace eagerly so
  /// bad traces fail before the run starts.
  TrafficEngine(sim::Simulator& sim, std::vector<net::Host*> hosts,
                TrafficSpec spec, EngineConfig cfg, workload::SpecFn spec_fn,
                CompletionCb on_complete);

  TrafficEngine(const TrafficEngine&) = delete;
  TrafficEngine& operator=(const TrafficEngine&) = delete;

  /// Schedule the first arrival of every tenant chain and the replay chain.
  void start();

  [[nodiscard]] std::uint64_t arrivals() const noexcept { return arrivals_; }
  [[nodiscard]] std::uint64_t replayed() const noexcept { return replayed_; }
  [[nodiscard]] std::uint64_t completed() const noexcept { return completed_; }
  [[nodiscard]] std::uint64_t active() const noexcept { return active_; }
  [[nodiscard]] std::uint64_t active_peak() const noexcept {
    return active_peak_;
  }
  [[nodiscard]] std::uint64_t offered_bytes() const noexcept {
    return offered_bytes_;
  }
  [[nodiscard]] std::uint64_t achieved_bytes() const noexcept {
    return achieved_bytes_;
  }

 private:
  struct Tenant {
    TenantSpec spec;
    const sim::Ecdf* sizes = nullptr;
    sim::Rng rng;
    std::optional<PoissonArrivals> poisson;
    std::optional<MmppArrivals> mmpp;
    std::uint64_t arrivals = 0;

    explicit Tenant(std::uint64_t seed) : rng(seed) {}
  };

  void schedule_tenant(std::size_t tenant);
  void tenant_arrival(std::size_t tenant);
  void schedule_replay(std::size_t index);
  void replay_arrival(std::size_t index);
  void launch(net::Host& src, net::Host& dst, std::uint32_t service,
              std::uint64_t size, int dscp_override);
  void on_flow_complete(std::uint32_t slot, sim::Time fct);
  std::uint64_t next_flow_id();

  sim::Simulator& sim_;
  std::vector<net::Host*> hosts_;
  TrafficSpec spec_;
  EngineConfig cfg_;
  workload::SpecFn spec_fn_;
  CompletionCb on_complete_;
  FlowSlab* slab_;
  DiurnalSchedule diurnal_;

  std::vector<std::unique_ptr<Tenant>> tenants_;
  std::vector<ReplayFlow> replay_;
  std::uint64_t fallback_flow_id_ = 0;  // when no FlowUidScope is installed

  std::uint64_t arrivals_ = 0;  // tenant arrivals + replayed flows
  std::uint64_t replayed_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t active_ = 0;
  std::uint64_t active_peak_ = 0;
  std::uint64_t offered_bytes_ = 0;
  std::uint64_t achieved_bytes_ = 0;

  // Null when metrics are off; the registry reads the counts above.
  obs::Gauge* obs_active_ = nullptr;
};

}  // namespace tcn::traffic
