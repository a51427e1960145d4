#include "fault/fault.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <utility>

#include "sim/parse.hpp"

namespace tcn::fault {

BernoulliLoss::BernoulliLoss(double p, std::uint64_t seed)
    : p_(p), rng_(seed) {
  if (p < 0.0 || p >= 1.0) {
    throw std::invalid_argument("BernoulliLoss: p must be in [0, 1)");
  }
}

bool BernoulliLoss::should_drop(const net::Packet&, sim::Time) {
  return rng_.bernoulli(p_);
}

GilbertElliottLoss::GilbertElliottLoss(Params params, std::uint64_t seed)
    : params_(params), rng_(seed) {
  for (const double p : {params.p_good_to_bad, params.p_bad_to_good,
                         params.loss_good, params.loss_bad}) {
    if (p < 0.0 || p > 1.0) {
      throw std::invalid_argument(
          "GilbertElliottLoss: probabilities must be in [0, 1]");
    }
  }
}

GilbertElliottLoss::Params GilbertElliottLoss::from_loss_rate(
    double loss_rate, double mean_burst_pkts) {
  if (loss_rate < 0.0 || loss_rate >= 1.0) {
    throw std::invalid_argument(
        "GilbertElliottLoss: loss rate must be in [0, 1)");
  }
  if (mean_burst_pkts < 1.0) {
    throw std::invalid_argument(
        "GilbertElliottLoss: mean burst length must be >= 1 packet");
  }
  // With loss_good = 0 and loss_bad = 1 the overall loss rate equals the
  // stationary Bad probability p_gb / (p_gb + p_bg), and the mean Bad dwell
  // time is 1 / p_bg packets.
  Params p;
  p.p_bad_to_good = 1.0 / mean_burst_pkts;
  p.p_good_to_bad = loss_rate == 0.0
                        ? 0.0
                        : p.p_bad_to_good * loss_rate / (1.0 - loss_rate);
  p.loss_good = 0.0;
  p.loss_bad = 1.0;
  return p;
}

bool GilbertElliottLoss::should_drop(const net::Packet&, sim::Time) {
  // Step the chain, then sample the state's loss probability.
  if (bad_) {
    if (rng_.bernoulli(params_.p_bad_to_good)) bad_ = false;
  } else {
    if (rng_.bernoulli(params_.p_good_to_bad)) bad_ = true;
  }
  return rng_.bernoulli(bad_ ? params_.loss_bad : params_.loss_good);
}

bool glob_match(std::string_view pattern, std::string_view text) {
  std::size_t p = 0, t = 0;
  std::size_t star = std::string_view::npos, mark = 0;
  while (t < text.size()) {
    if (p < pattern.size() &&
        (pattern[p] == '?' || pattern[p] == text[t])) {
      ++p;
      ++t;
    } else if (p < pattern.size() && pattern[p] == '*') {
      star = p++;
      mark = t;
    } else if (star != std::string_view::npos) {
      p = star + 1;
      t = ++mark;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '*') ++p;
  return p == pattern.size();
}

namespace {

/// Owner prefix of a port name ("leaf0.p14" -> "leaf0").
std::string_view owner_of(std::string_view port_name) {
  const auto dot = port_name.rfind('.');
  return dot == std::string_view::npos ? port_name : port_name.substr(0, dot);
}

void collect_ports(topo::Network& network,
                   const std::function<void(net::Port&)>& visit) {
  for (std::size_t s = 0; s < network.num_switches(); ++s) {
    net::Switch& sw = network.switch_at(s);
    for (std::size_t p = 0; p < sw.num_ports(); ++p) visit(sw.port(p));
  }
  for (std::size_t h = 0; h < network.num_hosts(); ++h) {
    visit(network.host(h).nic());
  }
}

}  // namespace

std::vector<net::Port*> resolve_target(topo::Network& network,
                                       const std::string& target) {
  std::vector<net::Port*> out;
  const auto dash = target.find('-');
  if (dash != std::string::npos) {
    // Pair form "a-b": both directions of the link between nodes a and b.
    const std::string a = target.substr(0, dash);
    const std::string b = target.substr(dash + 1);
    collect_ports(network, [&](net::Port& port) {
      if (port.peer() == nullptr) return;
      const std::string_view owner = owner_of(port.name());
      const std::string_view peer = port.peer()->name();
      if ((owner == a && peer == b) || (owner == b && peer == a)) {
        out.push_back(&port);
      }
    });
    return out;
  }
  collect_ports(network, [&](net::Port& port) {
    if (glob_match(target, port.name())) out.push_back(&port);
  });
  return out;
}

namespace {

/// A --faults time field in milliseconds.
sim::Time ms_to_time(const std::string& what, const std::string& v) {
  const double ms = sim::parse_double("--faults " + what, v);
  if (ms < 0) {
    throw std::invalid_argument("--faults " + what + ": negative time");
  }
  return sim::to_time("--faults " + what, ms, sim::kMillisecond);
}

}  // namespace

FaultPlan parse_fault_specs(const std::string& spec) {
  FaultPlan plan;
  for (const std::string& one : sim::split(spec, ';')) {
    if (one.empty()) continue;  // tolerate "a;;b" and a trailing ';'
    const std::vector<std::string> f = sim::split(one, ':');
    if (std::find(f.begin(), f.end(), "") != f.end()) {
      throw std::invalid_argument("--faults: empty field in '" + one + "'");
    }
    if (f.size() < 2) {
      throw std::invalid_argument("--faults: '" + one +
                                  "' needs at least kind:target");
    }
    FaultSpec fs;
    fs.target = f[1];
    const std::string& kind = f[0];
    if (kind == "linkdown") {
      if (f.size() != 4) {
        throw std::invalid_argument(
            "--faults: linkdown:<target>:<start_ms>:<duration_ms>");
      }
      fs.kind = FaultSpec::Kind::kLinkDown;
      fs.start = ms_to_time("linkdown start", f[2]);
      fs.duration = ms_to_time("linkdown duration", f[3]);
    } else if (kind == "loss") {
      if (f.size() != 3 && f.size() != 5) {
        throw std::invalid_argument(
            "--faults: loss:<target>:<p>[:<start_ms>:<duration_ms>]");
      }
      fs.kind = FaultSpec::Kind::kBernoulliLoss;
      fs.rate = sim::parse_double("--faults loss p", f[2]);
      if (f.size() == 5) {
        fs.start = ms_to_time("loss start", f[3]);
        fs.duration = ms_to_time("loss duration", f[4]);
      }
    } else if (kind == "geloss") {
      if (f.size() < 3 || f.size() > 6 || f.size() == 5) {
        throw std::invalid_argument(
            "--faults: "
            "geloss:<target>:<p>[:<burst_pkts>[:<start_ms>:<duration_ms>]]");
      }
      fs.kind = FaultSpec::Kind::kGilbertElliott;
      fs.rate = sim::parse_double("--faults geloss p", f[2]);
      if (f.size() >= 4) {
        fs.burst_pkts = sim::parse_double("--faults geloss burst", f[3]);
      }
      if (f.size() == 6) {
        fs.start = ms_to_time("geloss start", f[4]);
        fs.duration = ms_to_time("geloss duration", f[5]);
      }
    } else if (kind == "squeeze") {
      if (f.size() != 5) {
        throw std::invalid_argument(
            "--faults: squeeze:<target>:<bytes>:<start_ms>:<duration_ms>");
      }
      fs.kind = FaultSpec::Kind::kBufferSqueeze;
      fs.buffer_bytes = sim::parse_u64("--faults squeeze bytes", f[2]);
      if (fs.buffer_bytes < 1) {
        throw std::invalid_argument("--faults squeeze: bytes must be >= 1");
      }
      fs.start = ms_to_time("squeeze start", f[3]);
      fs.duration = ms_to_time("squeeze duration", f[4]);
    } else {
      throw std::invalid_argument(
          "--faults: unknown kind '" + kind +
          "' (linkdown, loss, geloss, squeeze)");
    }
    plan.push_back(std::move(fs));
  }
  if (plan.empty()) {
    throw std::invalid_argument("--faults: empty spec");
  }
  return plan;
}

std::vector<std::pair<std::string, FaultPlan>> parse_fault_grid(
    const std::string& grid) {
  if (grid.empty()) {
    throw std::invalid_argument("--fault-grid: empty grid");
  }
  std::vector<std::pair<std::string, FaultPlan>> cells;
  for (const std::string& cell : sim::split(grid, '|')) {
    if (cell.empty() || cell == "none") {
      cells.emplace_back("none", FaultPlan{});
    } else {
      cells.emplace_back(cell, parse_fault_specs(cell));
    }
  }
  return cells;
}

std::uint64_t FaultInjector::next_seed() {
  // splitmix64 step keeps per-model streams decorrelated.
  std::uint64_t x = seed_ + 0x9e3779b97f4a7c15ULL * ++models_created_;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

void FaultInjector::schedule_link_down(net::Port& port, sim::Time start,
                                       sim::Time duration) {
  net::Port* p = &port;
  if (start <= sim_.now()) {
    p->set_link_up(false);
  } else {
    sim_.schedule_at(start, [p]() { p->set_link_up(false); });
  }
  if (duration > 0) {
    sim_.schedule_at(start + duration, [p]() { p->set_link_up(true); });
  }
}

void FaultInjector::attach_loss_window(net::Port& port, net::LossModel* model,
                                       sim::Time start, sim::Time duration) {
  net::Port* p = &port;
  if (start <= sim_.now()) {
    p->set_loss_model(model);
  } else {
    sim_.schedule_at(start, [p, model]() { p->set_loss_model(model); });
  }
  if (duration > 0) {
    sim_.schedule_at(start + duration,
                     [p]() { p->set_loss_model(nullptr); });
  }
}

void FaultInjector::add_bernoulli_loss(net::Port& port, double p,
                                       sim::Time start, sim::Time duration) {
  models_.push_back(std::make_unique<BernoulliLoss>(p, next_seed()));
  attach_loss_window(port, models_.back().get(), start, duration);
}

void FaultInjector::add_gilbert_elliott(net::Port& port,
                                        GilbertElliottLoss::Params params,
                                        sim::Time start, sim::Time duration) {
  models_.push_back(std::make_unique<GilbertElliottLoss>(params, next_seed()));
  attach_loss_window(port, models_.back().get(), start, duration);
}

void FaultInjector::schedule_buffer_squeeze(net::Port& port,
                                            std::uint64_t bytes,
                                            sim::Time start,
                                            sim::Time duration) {
  net::Port* p = &port;
  if (start <= sim_.now()) {
    p->set_buffer_limit(bytes);
  } else {
    sim_.schedule_at(start, [p, bytes]() { p->set_buffer_limit(bytes); });
  }
  if (duration > 0) {
    sim_.schedule_at(start + duration, [p]() { p->reset_buffer_limit(); });
  }
}

std::size_t FaultInjector::apply(topo::Network& network,
                                 const FaultPlan& plan) {
  std::size_t applications = 0;
  for (const FaultSpec& spec : plan) {
    const std::vector<net::Port*> ports =
        resolve_target(network, spec.target);
    if (ports.empty()) {
      throw std::invalid_argument("--faults: target '" + spec.target +
                                  "' matches no port");
    }
    for (net::Port* port : ports) {
      switch (spec.kind) {
        case FaultSpec::Kind::kLinkDown:
          schedule_link_down(*port, spec.start, spec.duration);
          break;
        case FaultSpec::Kind::kBernoulliLoss:
          add_bernoulli_loss(*port, spec.rate, spec.start, spec.duration);
          break;
        case FaultSpec::Kind::kGilbertElliott:
          add_gilbert_elliott(
              *port,
              GilbertElliottLoss::from_loss_rate(spec.rate, spec.burst_pkts),
              spec.start, spec.duration);
          break;
        case FaultSpec::Kind::kBufferSqueeze:
          schedule_buffer_squeeze(*port, spec.buffer_bytes, spec.start,
                                  spec.duration);
          break;
      }
      ++applications;
    }
  }
  return applications;
}

}  // namespace tcn::fault
