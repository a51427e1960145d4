#include "traffic/engine.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

namespace tcn::traffic {
namespace {

/// splitmix64 finalizer: decorrelates per-tenant seeds derived from one run
/// seed (same construction the harness uses for queue/fault RNGs).
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t sample_size(const sim::Ecdf& dist, sim::Rng& rng) {
  return std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::llround(dist.sample(rng))));
}

}  // namespace

TrafficEngine::TrafficEngine(sim::Simulator& sim,
                             std::vector<net::Host*> hosts, TrafficSpec spec,
                             EngineConfig cfg, workload::SpecFn spec_fn,
                             CompletionCb on_complete)
    : sim_(sim),
      hosts_(std::move(hosts)),
      spec_(std::move(spec)),
      cfg_(cfg),
      spec_fn_(std::move(spec_fn)),
      on_complete_(std::move(on_complete)),
      slab_(FlowSlab::current()) {
  if (slab_ == nullptr) {
    throw std::logic_error(
        "TrafficEngine: no FlowSlab::Scope installed for this run");
  }
  if (hosts_.size() < 2 || !spec_fn_) {
    throw std::invalid_argument("TrafficEngine: incomplete setup");
  }
  if (!spec_.enabled()) {
    throw std::invalid_argument("TrafficEngine: spec has no flow source");
  }
  if (!spec_.tenants.empty() && !(cfg_.load > 0)) {
    throw std::invalid_argument("TrafficEngine: load must be > 0");
  }
  if (spec_.diurnal.enabled()) {
    diurnal_.period = sim::from_seconds(spec_.diurnal.period_s);
    diurnal_.min_factor = spec_.diurnal.min_factor;
    diurnal_.peak_factor = spec_.diurnal.peak_factor;
  }

  // Reference capacity, mirroring the closed-loop generators: the receiver
  // link for the converge pattern, the aggregate host capacity all-to-all.
  const double link_Bps =
      static_cast<double>(hosts_[0]->nic().config().rate_bps) / 8.0;
  const double ref_Bps =
      cfg_.converge ? link_Bps
                    : link_Bps * static_cast<double>(hosts_.size());

  double total_share = 0.0;
  for (const TenantSpec& t : spec_.tenants) total_share += t.share;
  for (std::size_t i = 0; i < spec_.tenants.size(); ++i) {
    const TenantSpec& ts = spec_.tenants[i];
    auto tenant = std::make_unique<Tenant>(mix_seed(cfg_.seed, i));
    tenant->spec = ts;
    tenant->sizes = &workload::distribution(ts.workload);
    const double flows_per_sec = (ts.share / total_share) * cfg_.load *
                                 ref_Bps / tenant->sizes->mean();
    if (ts.arrival == TenantSpec::Arrival::kMmpp) {
      MmppArrivals::Params p;
      p.flows_per_sec = flows_per_sec;
      p.burst_ratio = ts.burst_ratio;
      p.duty = ts.duty;
      p.dwell_burst_s = ts.dwell_ms / 1e3;
      tenant->mmpp.emplace(p);
    } else {
      tenant->poisson.emplace(flows_per_sec);
    }
    tenants_.push_back(std::move(tenant));
  }

  if (!spec_.replay_path.empty()) {
    replay_ = load_trace(spec_.replay_path);
    for (const ReplayFlow& f : replay_) {
      if (f.src >= hosts_.size() || f.dst >= hosts_.size()) {
        throw std::invalid_argument(
            "trace replay: host index out of range (topology has " +
            std::to_string(hosts_.size()) + " hosts)");
      }
    }
  }

  if (obs::MetricsRegistry* reg = obs::MetricsRegistry::current()) {
    reg->read_counter("traffic/arrivals", [this] { return arrivals_; });
    reg->read_counter("traffic/completed", [this] { return completed_; });
    reg->read_counter("traffic/replayed", [this] { return replayed_; });
    reg->read_counter("traffic/offered_bytes",
                      [this] { return offered_bytes_; });
    reg->read_counter("traffic/achieved_bytes",
                      [this] { return achieved_bytes_; });
    reg->read_counter("traffic/slab_reuses",
                      [slab = slab_] { return slab->reuses(); });
    obs_active_ = &reg->gauge("traffic/active_flows");
    for (const auto& tenant : tenants_) {
      reg->read_counter("traffic/arrivals." + tenant->spec.name,
                        [t = tenant.get()] { return t->arrivals; });
    }
  }
}

void TrafficEngine::start() {
  for (std::size_t i = 0; i < tenants_.size(); ++i) schedule_tenant(i);
  schedule_replay(0);
}

std::uint64_t TrafficEngine::next_flow_id() {
  if (FlowUidScope* scope = FlowUidScope::current()) return scope->next();
  return ++fallback_flow_id_;
}

void TrafficEngine::schedule_tenant(std::size_t tenant) {
  if (cfg_.max_flows != 0 && arrivals_ - replayed_ >= cfg_.max_flows) return;
  Tenant& t = *tenants_[tenant];
  const double scale = diurnal_.factor(sim_.now());
  const sim::Time at = t.poisson ? t.poisson->next(sim_.now(), scale, t.rng)
                                 : t.mmpp->next(sim_.now(), scale, t.rng);
  sim_.schedule_at(at, [this, tenant] { tenant_arrival(tenant); });
}

void TrafficEngine::tenant_arrival(std::size_t tenant) {
  // Every tenant keeps one arrival pending, so another tenant may have
  // reached the cap since this one was scheduled: drop it and stop the chain.
  if (cfg_.max_flows != 0 && arrivals_ - replayed_ >= cfg_.max_flows) return;
  Tenant& t = *tenants_[tenant];
  net::Host* src;
  net::Host* dst;
  if (cfg_.converge) {
    src = hosts_[t.rng.uniform_int(1, hosts_.size() - 1)];
    dst = hosts_[0];
  } else {
    const std::size_t s = t.rng.uniform_int(0, hosts_.size() - 1);
    std::size_t d = t.rng.uniform_int(0, hosts_.size() - 2);
    if (d >= s) ++d;
    src = hosts_[s];
    dst = hosts_[d];
  }
  const std::uint64_t size = sample_size(*t.sizes, t.rng);
  ++t.arrivals;
  launch(*src, *dst, static_cast<std::uint32_t>(tenant), size, t.spec.dscp);
  schedule_tenant(tenant);
}

void TrafficEngine::schedule_replay(std::size_t index) {
  if (index >= replay_.size()) return;
  // Clamp to now: a trace timestamp in the past (possible after the clamp
  // itself) still replays, in trace order.
  const sim::Time at = std::max(replay_[index].at, sim_.now());
  sim_.schedule_at(at, [this, index] { replay_arrival(index); });
}

void TrafficEngine::replay_arrival(std::size_t index) {
  const ReplayFlow& f = replay_[index];
  ++replayed_;
  launch(*hosts_[f.src], *hosts_[f.dst], f.service, f.size, f.dscp);
  schedule_replay(index + 1);
}

void TrafficEngine::launch(net::Host& src, net::Host& dst,
                           std::uint32_t service, std::uint64_t size,
                           int dscp_override) {
  transport::FlowSpec spec = spec_fn_(service, size);
  if (dscp_override >= 0) {
    const auto dscp = static_cast<std::uint8_t>(dscp_override);
    spec.data_dscp = transport::constant_dscp(dscp);
    spec.ack_dscp = dscp;
  }

  const std::uint32_t slot = slab_->acquire();
  FlowSlab::Slot& s = slab_->at(slot);
  s.flow_id = next_flow_id();
  s.size = size;
  s.service = service;
  s.src_addr = src.address();
  s.dst_addr = dst.address();
  s.sport = slab_->checkout_port(src);
  s.dport = slab_->checkout_port(dst);
  s.sink.emplace(dst, s.dport, spec.ack_dscp, std::move(spec.on_deliver),
                 transport::TcpSink::Options::from(spec.tcp));
  s.sender.emplace(src, dst.address(), s.sport, s.dport, s.flow_id, spec.tcp,
                   std::move(spec.data_dscp), spec.ack_dscp);

  ++arrivals_;
  ++active_;
  active_peak_ = std::max(active_peak_, active_);
  offered_bytes_ += size;
  if (obs_active_ != nullptr) obs_active_->set(static_cast<double>(active_));

  transport::TcpSender::MessageSpec msg;
  msg.size = size;
  msg.on_complete = [this, slot](sim::Time fct, std::uint32_t) {
    on_flow_complete(slot, fct);
  };
  s.sender->enqueue_message(std::move(msg));
}

void TrafficEngine::on_flow_complete(std::uint32_t slot, sim::Time fct) {
  FlowSlab::Slot& s = slab_->at(slot);
  transport::FlowResult r;
  r.flow_id = s.flow_id;
  r.size = s.size;
  r.service = s.service;
  r.start = s.sender->start_time();
  r.fct = fct;
  r.timeouts = s.sender->timeouts();

  ++completed_;
  --active_;
  achieved_bytes_ += s.size;
  if (obs_active_ != nullptr) obs_active_->set(static_cast<double>(active_));

  if (on_complete_) on_complete_(r);

  // The sender invoking this callback is still executing its ACK path;
  // destroying it here would be use-after-free. Recycle on the next event.
  FlowSlab* slab = slab_;
  sim_.schedule_in(0, [slab, slot] { slab->recycle(slot); });
}

}  // namespace tcn::traffic
