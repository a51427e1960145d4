// Incast (partition/aggregate) workload: the bursty pattern behind the
// paper's burst-tolerance claims (Sec. 4.3: TCN's instantaneous marking
// reacts faster than CoDel's windowed minimum; Sec. 6.1: fewer timeouts).
//
// A query fans out to `fanout` servers simultaneously; each responds with
// `response_bytes`; the query completes when every response has been
// delivered. Query completion time (QCT) is the metric, and a single lost
// tail packet inflates it by a full RTOmin -- the classic incast collapse.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "net/host.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "transport/flow.hpp"
#include "workload/traffic_gen.hpp"

namespace tcn::workload {

struct IncastConfig {
  std::uint32_t fanout = 8;             ///< servers per query
  std::uint64_t response_bytes = 64'000;  ///< per-server response
  std::size_t num_queries = 100;
  sim::Time interval = 10 * sim::kMillisecond;  ///< query inter-arrival
  std::uint64_t seed = 1;
};

struct QueryResult {
  std::uint64_t query_id = 0;
  sim::Time start = 0;
  sim::Time qct = 0;           ///< completion of the slowest response
  std::uint32_t timeouts = 0;  ///< TCP timeouts across the fan-in
};

/// Drives synchronized fan-in queries from `servers` to `client`.
class IncastGenerator {
 public:
  using QueryCb = std::function<void(const QueryResult&)>;

  /// `spec_fn(server_index)` builds the per-response FlowSpec (TCP config and
  /// DSCP); the generator overrides size and completion tracking.
  IncastGenerator(sim::Simulator& sim, FlowLauncher launch,
                  std::vector<net::Host*> servers, net::Host* client,
                  IncastConfig cfg, SpecFn spec_fn, QueryCb on_query_done);

  void start();

  [[nodiscard]] const std::vector<QueryResult>& results() const noexcept {
    return results_;
  }

 private:
  struct PendingQuery {
    QueryResult result;
    std::uint32_t outstanding = 0;
  };

  void issue_query();

  sim::Simulator& sim_;
  FlowLauncher launch_;
  std::vector<net::Host*> servers_;
  net::Host* client_;
  IncastConfig cfg_;
  SpecFn spec_fn_;
  QueryCb on_query_done_;
  sim::Rng rng_;
  std::size_t issued_ = 0;
  std::uint64_t next_query_id_ = 1;
  std::vector<std::unique_ptr<PendingQuery>> pending_;
  std::vector<QueryResult> results_;
};

}  // namespace tcn::workload
