// PortObserver fan-out: one port observer slot feeding several observers.
#pragma once

#include <utility>
#include <vector>

#include "net/trace.hpp"

namespace tcn::stats {

/// Fan-out helper: forward one port's events to several observers.
class TeeObserver final : public net::PortObserver {
 public:
  explicit TeeObserver(std::vector<net::PortObserver*> sinks)
      : sinks_(std::move(sinks)) {}

  void on_event(const net::TraceRecord& rec) override {
    for (auto* s : sinks_) s->on_event(rec);
  }

 private:
  std::vector<net::PortObserver*> sinks_;
};

}  // namespace tcn::stats
