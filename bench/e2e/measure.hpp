// One benchmark invocation on one workload: the untimed-set-up, repeated,
// checked simulations behind the end-to-end metrics, or the traced pass
// behind the per-layer metrics.
#pragma once

#include <cstdint>

#include "report.hpp"
#include "workloads.hpp"

namespace tcn::e2e {

struct Options {
  std::uint64_t seed = 1;
  Size size = Size::kFull;
  /// Timed repetitions run at least this many times...
  std::size_t min_reps = 3;
  /// ...and keep running while another one still fits in this many seconds
  /// of measurement.
  double seconds = 0.0;
  /// Report the per-layer metrics from a traced pass instead of the
  /// end-to-end ones.
  bool trace = false;
  /// Set-up-only runs behind setup_s, at least: a batch follows every
  /// repetition, and the last batch tops the count up to this.
  std::size_t setup_reps = 51;
};

/// Never throws for a failing simulation: failures are counted in the
/// result and their messages kept in `errors`.
WorkloadResult run_workload(const Workload& workload, const Options& opt);

/// Every time the benchmark reports is scaled to a nominal host speed. A
/// fixed sort-and-hash-table kernel that shares no code with the simulator
/// is timed just before each measurement, and the measurement is multiplied
/// by kReferenceNominalS / the kernel's time. On a shared machine the host's
/// speed drifts by tens of percent over minutes, and the kernel tracks most
/// of that drift. The kernel takes about kReferenceNominalS on a quiet
/// 4-core x86 box.
inline constexpr double kReferenceNominalS = 0.014;

}  // namespace tcn::e2e
