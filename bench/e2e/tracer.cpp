#include "tracer.hpp"

#include <map>

namespace tcn::e2e {

void Tracer::time_empty_span() {
  span(Span::kCal, [] {});
}

LayerTimes Tracer::totals() const {
  const auto per = [](std::int64_t ns, std::uint64_t n) {
    return n == 0 ? 0.0 : static_cast<double>(ns) / static_cast<double>(n);
  };
  const Kind& cal = kinds_[static_cast<std::size_t>(Span::kCal)];
  const double empty_top = per(cal.top_ns, cal.top_timed);
  const double empty_nested =
      cal.nested_timed == 0 ? empty_top : per(cal.nested_ns, cal.nested_timed);

  LayerTimes out;
  out.clock_ns = empty_top;
  const Kind& net = kinds_[0];
  const double net_scale = per(static_cast<std::int64_t>(net.calls),
                               net.top_timed);
  // Every span timed inside a timed net span, kCal included, is a child.
  double children_ns = 0.0;
  double children = 0.0;
  for (std::size_t i = 1; i < kinds_.size(); ++i) {
    children_ns += static_cast<double>(kinds_[i].nested_ns);
    children += static_cast<double>(kinds_[i].nested_timed);
  }
  for (std::size_t i = 1; i < kNumSpans; ++i) {
    const Kind& k = kinds_[i];
    const double top_ns =
        k.top_timed == 0
            ? 0.0
            : (static_cast<double>(k.top_ns) -
               empty_top * static_cast<double>(k.top_timed)) *
                  static_cast<double>(k.top_calls) /
                  static_cast<double>(k.top_timed);
    const double nested_ns = (static_cast<double>(k.nested_ns) -
                              empty_nested *
                                  static_cast<double>(k.nested_timed)) *
                             net_scale;
    out.self_s[i] = (top_ns + nested_ns) * 1e-9;
    out.calls[i] = k.calls;
  }
  out.self_s[0] =
      (static_cast<double>(net.top_ns) - children_ns -
       empty_top * (static_cast<double>(net.top_timed) + children)) *
      net_scale * 1e-9;
  out.calls[0] = net.calls;
  out.unexpected_nesting = unexpected_nesting_;
  return out;
}

topo::SchedulerFactory timed_factory(topo::SchedulerFactory f,
                                     Tracer& tracer) {
  return [f = std::move(f), &tracer]() -> std::unique_ptr<net::Scheduler> {
    return std::make_unique<TimedScheduler>(f(), tracer);
  };
}

topo::MarkerFactory timed_factory(topo::MarkerFactory f, Tracer& tracer) {
  return [f = std::move(f), &tracer](net::Scheduler& s,
                                     const net::PortConfig& cfg)
             -> std::unique_ptr<net::Marker> {
    auto* timed = dynamic_cast<TimedScheduler*>(&s);
    net::Scheduler& inner = timed != nullptr ? timed->inner() : s;
    return std::make_unique<TimedMarker>(f(inner, cfg), tracer);
  };
}

void wrap_switches(topo::Network& network, Tracer& tracer,
                   std::vector<std::unique_ptr<TimedNode>>& nodes) {
  std::map<const net::Node*, TimedNode*> front;
  for (std::size_t s = 0; s < network.num_switches(); ++s) {
    net::Switch& sw = network.switch_at(s);
    nodes.push_back(std::make_unique<TimedNode>(sw, tracer));
    front[&sw] = nodes.back().get();
  }
  // Switch::receive ignores its ingress index (node.hpp: diagnostics only),
  // and Port does not expose the one it was connected with, so 0 is passed.
  const auto reconnect = [&](net::Port& port) {
    const auto it = front.find(port.peer());
    if (it != front.end()) port.connect(it->second, 0);
  };
  for (std::size_t s = 0; s < network.num_switches(); ++s) {
    net::Switch& sw = network.switch_at(s);
    for (std::size_t p = 0; p < sw.num_ports(); ++p) reconnect(sw.port(p));
  }
  for (std::size_t h = 0; h < network.num_hosts(); ++h) {
    reconnect(network.host(h).nic());
  }
}

}  // namespace tcn::e2e
