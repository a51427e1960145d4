#include "workload/traffic_gen.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace tcn::workload {
namespace {

std::uint64_t sample_size(const sim::Ecdf& dist, sim::Rng& rng) {
  return std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::llround(dist.sample(rng))));
}

}  // namespace

ConvergeGenerator::ConvergeGenerator(sim::Simulator& sim, FlowLauncher launch,
                                     std::vector<net::Host*> senders,
                                     net::Host* receiver,
                                     const sim::Ecdf* sizes, GenConfig cfg,
                                     SpecFn spec_fn)
    : sim_(sim),
      launch_(std::move(launch)),
      senders_(std::move(senders)),
      receiver_(receiver),
      sizes_(sizes),
      cfg_(cfg),
      spec_fn_(std::move(spec_fn)),
      rng_(cfg.seed) {
  if (senders_.empty() || receiver_ == nullptr || sizes_ == nullptr ||
      !spec_fn_ || !launch_) {
    throw std::invalid_argument("ConvergeGenerator: incomplete setup");
  }
  if (!(cfg_.load > 0.0 && cfg_.load <= 1.0)) {
    throw std::invalid_argument("ConvergeGenerator: load out of (0,1]");
  }
  // load x receiver link rate = mean bytes/sec of offered traffic.
  const double bytes_per_sec =
      cfg_.load *
      static_cast<double>(receiver_->nic().config().rate_bps) / 8.0;
  mean_gap_ = sim::from_seconds(sizes_->mean() / bytes_per_sec);
}

void ConvergeGenerator::start() { schedule_next(); }

void ConvergeGenerator::schedule_next() {
  if (generated_ >= cfg_.num_flows) return;
  const auto gap = static_cast<sim::Time>(
      rng_.exponential(static_cast<double>(mean_gap_)));
  sim_.schedule_in(std::max<sim::Time>(1, gap), [this]() { arrival(); });
}

void ConvergeGenerator::arrival() {
  net::Host* src = senders_[rng_.uniform_int(0, senders_.size() - 1)];
  const auto service = static_cast<std::uint32_t>(
      rng_.uniform_int(0, cfg_.num_services - 1));
  const std::uint64_t size = sample_size(*sizes_, rng_);
  launch_(*src, *receiver_, spec_fn_(service, size));
  ++generated_;
  schedule_next();
}

AllToAllGenerator::AllToAllGenerator(sim::Simulator& sim, FlowLauncher launch,
                                     std::vector<net::Host*> hosts,
                                     std::vector<const sim::Ecdf*> dists,
                                     GenConfig cfg, ServiceFn service_of,
                                     SpecFn spec_fn)
    : sim_(sim),
      launch_(std::move(launch)),
      hosts_(std::move(hosts)),
      dists_(std::move(dists)),
      cfg_(cfg),
      service_of_(std::move(service_of)),
      spec_fn_(std::move(spec_fn)),
      rng_(cfg.seed) {
  if (hosts_.size() < 2 || dists_.empty() || !service_of_ || !spec_fn_ ||
      !launch_) {
    throw std::invalid_argument("AllToAllGenerator: incomplete setup");
  }
  if (!(cfg_.load > 0.0 && cfg_.load <= 1.0)) {
    throw std::invalid_argument("AllToAllGenerator: load out of (0,1]");
  }
  for (const auto* d : dists_) {
    if (d == nullptr) {
      throw std::invalid_argument("AllToAllGenerator: null distribution");
    }
  }
  // Services are (approximately) equally likely under a uniform pair choice,
  // so the offered-load calculation uses the mean of the service means.
  double mix_mean = 0.0;
  for (const auto* d : dists_) mix_mean += d->mean();
  mix_mean /= static_cast<double>(dists_.size());

  const double per_host_Bps =
      cfg_.load * static_cast<double>(hosts_[0]->nic().config().rate_bps) /
      8.0;
  const double flows_per_sec =
      static_cast<double>(hosts_.size()) * per_host_Bps / mix_mean;
  mean_gap_ = sim::from_seconds(1.0 / flows_per_sec);
}

void AllToAllGenerator::start() { schedule_next(); }

void AllToAllGenerator::schedule_next() {
  if (generated_ >= cfg_.num_flows) return;
  const auto gap = static_cast<sim::Time>(
      rng_.exponential(static_cast<double>(mean_gap_)));
  sim_.schedule_in(std::max<sim::Time>(1, gap), [this]() { arrival(); });
}

void AllToAllGenerator::arrival() {
  const std::size_t src = rng_.uniform_int(0, hosts_.size() - 1);
  std::size_t dst = rng_.uniform_int(0, hosts_.size() - 2);
  if (dst >= src) ++dst;
  const std::uint32_t service = service_of_(src, dst) %
                                static_cast<std::uint32_t>(dists_.size());
  const std::uint64_t size = sample_size(*dists_[service], rng_);
  launch_(*hosts_[src], *hosts_[dst], spec_fn_(service, size));
  ++generated_;
  schedule_next();
}

}  // namespace tcn::workload
