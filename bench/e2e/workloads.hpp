// The e2e benchmark's five workloads and the simulations that run them.
//
// A workload runs either on the product path (core::run_fct_experiment, or
// for incast the bench-side composition bench/ablation_incast.cpp uses) or
// as a traced rebuild of the same run from public pieces with every layer
// boundary wrapped (tracer.hpp). Both paths report the same SimStats, and the
// traced run must reproduce them exactly.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "stats/fct.hpp"
#include "tracer.hpp"

namespace tcn::e2e {

/// kFull is what the benchmark measures; kTiny is the smoke-test size.
enum class Size : std::uint8_t { kFull, kTiny };

enum class Mode : std::uint8_t {
  kMeasure,     ///< the workload as defined
  kSetupOnly,   ///< the same configuration stopped at 1 ns: build, arm,
                ///< tear down
  kObsToggled,  ///< metrics collection and time-series sampling flipped
};

struct Workload {
  std::string_view name;
  std::string_view why;
};

/// The workloads in benchmark order.
const std::vector<Workload>& workloads();
/// nullptr for an unknown name.
const Workload* find_workload(std::string_view name);

/// Every simulated statistic one run reports. Deterministic per input and
/// mode: repetitions and the traced rebuild must match exactly.
struct SimStats {
  std::uint64_t events = 0;
  std::int64_t sim_end_ns = 0;
  std::uint64_t flows_started = 0;
  std::uint64_t flows_completed = 0;
  std::uint64_t switch_drops = 0;
  std::uint64_t switch_marks = 0;
  std::uint64_t sched_drops = 0;
  std::uint64_t pool_fresh = 0;
  std::uint64_t pool_reused = 0;
  std::uint64_t pool_recycled = 0;
  std::uint64_t peak_pending = 0;
  std::uint64_t calendar_resizes = 0;
  stats::FctSummary fct;
  std::uint64_t traffic_arrivals = 0;
  std::uint64_t traffic_active_peak = 0;
  std::uint64_t slab_fresh = 0;
  std::uint64_t slab_reused = 0;
  std::uint64_t series_ticks = 0;
  std::uint64_t instruments = 0;  ///< metrics registry size; 0 when obs off
  /// FNV-1a of the tcn-metrics-1 snapshot; 0 when obs is off.
  std::uint64_t metrics_digest = 0;
};

/// "name: a vs b" for the first field where the two differ, "" if none.
std::string first_difference(const SimStats& a, const SimStats& b);

struct RunOutput {
  SimStats stats;
  /// TCP connections opened. Not in the public report, so only the bench's
  /// own compositions (traced runs, incast) fill it.
  std::uint64_t connections = 0;
  /// The topo::build_* call; traced runs only.
  double build_s = 0.0;
};

/// The generated inputs of one workload: everything a run needs, derived
/// from the seed alone. The leaf-spine workload's flow list is written to a
/// JSONL replay file next to the running binary, removed again when the
/// Input is destroyed.
class Input {
 public:
  /// Throws std::invalid_argument for an unknown workload.
  Input(std::string_view workload, std::uint64_t seed, Size size);
  ~Input();

  Input(const Input&) = delete;
  Input& operator=(const Input&) = delete;

  /// One simulation. With `tracer` null it takes the product path;
  /// otherwise the traced rebuild, reporting its spans to `tracer`. Throws
  /// on any simulation failure, budget trips included.
  [[nodiscard]] RunOutput run(Mode mode, Tracer* tracer) const;

 private:
  std::string workload_;
  std::uint64_t seed_;
  Size size_;
  std::string trace_path_;  ///< leaf-spine flow list; empty otherwise
};

/// Seed of the k-th input a benchmark run draws from `seed`.
std::uint64_t input_seed(std::uint64_t seed, std::uint64_t k);

}  // namespace tcn::e2e
