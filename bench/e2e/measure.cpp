#include "measure.hpp"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <fstream>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <unordered_map>

namespace tcn::e2e {
namespace {

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(clock_ns() - start_ns) * 1e-9;
}

/// Return free heap memory to the OS and restart the kernel's peak-RSS
/// mark (Linux /proc/self/clear_refs), so the next peak_rss_mb() reports
/// what ran in between on top of the live process, not what the reference
/// kernel or earlier runs left behind. Where the mark cannot be reset,
/// peak_rss_mb() reports the process-lifetime peak.
void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Output checks on one measured run. The FCT workloads stop at a fixed
/// simulated time with the flows then in flight unfinished; a transport that
/// stalls leaves far more than half of them behind. Incast stops after its
/// last query drains, so every response must have been delivered.
void check_outputs(std::string_view workload, const SimStats& s) {
  if (s.events == 0 || s.flows_started == 0) {
    throw std::runtime_error("run simulated no traffic");
  }
  const bool drained = workload == "incast_fifo_tcn";
  if (drained ? s.flows_completed != s.flows_started
              : 2 * s.flows_completed < s.flows_started) {
    throw std::runtime_error(
        "only " + std::to_string(s.flows_completed) + " of " +
        std::to_string(s.flows_started) + " flows completed");
  }
}

class Attempts {
 public:
  explicit Attempts(WorkloadResult& r) : r_(r) {}

  /// Run f as one attempted operation; false (and the error recorded) when
  /// it throws.
  template <typename F>
  bool operator()(const char* what, F&& f) {
    ++r_.attempted;
    try {
      f();
      return true;
    } catch (const std::exception& e) {
      ++r_.failed;
      r_.errors.push_back(std::string(what) + ": " + e.what());
      return false;
    }
  }

 private:
  WorkloadResult& r_;
};

/// Set-up-only runs after each timed repetition. Spreading them over the
/// whole run, rather than bunching them at its start, samples the host's
/// speed over the same span as the repetitions.
constexpr std::size_t kSetupsPerRep = 8;

volatile std::uint64_t reference_sink = 0;

/// The host-speed reference kernel (measure.hpp): the faster of two runs
/// of a fixed sort-and-hash-table workload, so a transient stall during one
/// of them does not pass for a slow host. Returns seconds.
double reference_kernel_s() {
  double best = 0.0;
  for (int run = 0; run < 2; ++run) {
    const std::int64_t t0 = clock_ns();
    std::mt19937_64 gen(42);
    std::vector<std::uint64_t> keys(1u << 17);
    for (std::uint64_t& k : keys) k = gen();
    std::sort(keys.begin(), keys.end());
    std::unordered_map<std::uint64_t, std::uint64_t> table;
    for (std::size_t i = 0; i < 50'000; ++i) {
      table[keys[(i * 7919) % keys.size()]] += i;
    }
    std::uint64_t sum = 0;
    for (const auto& [k, v] : table) sum += k ^ v;
    reference_sink = sum;  // keeps the work from being optimized away
    const double elapsed = seconds_since(t0);
    best = run == 0 ? elapsed : std::min(best, elapsed);
  }
  return best;
}

/// The factor that scales a time measured now to nominal host speed.
double host_scale() { return kReferenceNominalS / reference_kernel_s(); }

/// Repetition k runs the k-th input drawn from the seed, so a run's medians
/// pool several inputs as well as several timings: per-input cost and
/// footprint vary with how many flows overlap, most on the leaf-spine.
/// Input 0 runs once more at the end, and must reproduce its first run
/// exactly. Every timing is scaled by host_scale() taken just before it.
void measure_end_to_end(const Workload& w, const Options& opt,
                        WorkloadResult& res) {
  Attempts attempt(res);
  std::optional<Input> first_input;
  if (!attempt("inputs", [&] {
        first_input.emplace(w.name, input_seed(opt.seed, 0), opt.size);
      })) {
    return;
  }

  std::vector<double> setup;
  const auto run_setups = [&](std::size_t n) {
    const double scale = host_scale();
    res.reference_s.push_back(kReferenceNominalS / scale);
    for (std::size_t i = 0; i < n; ++i) {
      const bool ok = attempt("setup", [&] {
        const std::int64_t t0 = clock_ns();
        (void)first_input->run(Mode::kSetupOnly, nullptr);
        setup.push_back(seconds_since(t0) * scale);
      });
      if (!ok) return false;
    }
    return true;
  };

  std::vector<double> ns_per_event;
  std::vector<double> rss_mb;
  SimStats first_stats;
  double last_wall = 0.0;  // unscaled: what the next repetition will cost
  const std::size_t min_reps = std::max<std::size_t>(opt.min_reps, 1);
  const std::int64_t start = clock_ns();
  while (ns_per_event.size() < min_reps ||
         seconds_since(start) + last_wall <= opt.seconds) {
    const std::uint64_t k = ns_per_event.size();
    const bool ok = attempt("run", [&] {
      std::optional<Input> fresh;
      if (k > 0) fresh.emplace(w.name, input_seed(opt.seed, k), opt.size);
      const Input& input = k > 0 ? *fresh : *first_input;
      const double scale = host_scale();
      res.reference_s.push_back(kReferenceNominalS / scale);
      reset_peak_rss();
      const std::int64_t t0 = clock_ns();
      const RunOutput out = input.run(Mode::kMeasure, nullptr);
      last_wall = seconds_since(t0);
      rss_mb.push_back(peak_rss_mb());
      check_outputs(w.name, out.stats);
      if (k == 0) first_stats = out.stats;
      ns_per_event.push_back(last_wall * scale * 1e9 /
                             static_cast<double>(out.stats.events));
    });
    if (!ok || !run_setups(kSetupsPerRep)) break;
  }
  if (ns_per_event.empty() || setup.empty()) return;
  if (setup.size() < opt.setup_reps) {
    run_setups(opt.setup_reps - setup.size());
  }
  attempt("repeat of input 0", [&] {
    const std::string diff = first_difference(
        first_stats, first_input->run(Mode::kMeasure, nullptr).stats);
    if (!diff.empty()) throw std::runtime_error("runs disagree: " + diff);
  });
  res.add("ns_per_event", median(ns_per_event), ns_per_event);
  res.add("peak_rss_mb", median(rss_mb), rss_mb);
  res.add("setup_s", median(setup), setup);
}

/// Repeats a triple on input 0: an untraced run, a traced run and a run with
/// obs flipped, while another triple fits in the time budget (at least
/// opt.min_reps). Every traced run must reproduce the untraced one exactly.
/// The overhead ratios are medians over the triples of back-to-back raw
/// times, with the triple's order reversed every other time so drift in the
/// host's speed cancels. Layer times are the tracer's totals over all traced
/// runs divided by their number, so with sim.self_s as the remainder they
/// add up to the mean traced wall time; absolute times are scaled by the
/// pass's median reference time.
void measure_layers(const Workload& w, const Options& opt,
                    WorkloadResult& res) {
  Attempts attempt(res);
  std::optional<Input> input;
  if (!attempt("inputs", [&] {
        input.emplace(w.name, input_seed(opt.seed, 0), opt.size);
      })) {
    return;
  }
  const auto timed_run = [&](Mode mode, Tracer* tracer, RunOutput& out) {
    const std::int64_t t0 = clock_ns();
    out = input->run(mode, tracer);
    return seconds_since(t0);
  };

  Tracer tracer;
  RunOutput base;
  RunOutput traced;
  RunOutput toggled;
  std::vector<double> base_walls;
  double traced_total_s = 0.0;
  std::vector<double> trace_ratio;
  std::vector<double> obs_ratio;
  std::string diff;
  const std::size_t min_reps = std::max<std::size_t>(opt.min_reps, 1);
  const std::int64_t start = clock_ns();
  double last_triple = 0.0;
  while (base_walls.size() < min_reps ||
         seconds_since(start) + last_triple <= opt.seconds) {
    const std::int64_t triple_start = clock_ns();
    res.reference_s.push_back(reference_kernel_s());
    double b = 0.0;
    double t = 0.0;
    double o = 0.0;
    const auto run_base = [&] {
      return attempt("untraced run", [&] {
        b = timed_run(Mode::kMeasure, nullptr, base);
        check_outputs(w.name, base.stats);
      });
    };
    const auto run_traced = [&] {
      return attempt("traced run", [&] {
        t = timed_run(Mode::kMeasure, &tracer, traced);
        const std::string d = first_difference(base.stats, traced.stats);
        if (!d.empty()) {
          diff = d;
          throw std::runtime_error(
              "traced run differs from the untraced run: " + d);
        }
      });
    };
    const auto run_toggled = [&] {
      return attempt("obs-toggled run", [&] {
        o = timed_run(Mode::kObsToggled, nullptr, toggled);
      });
    };
    // The traced run is checked against the untraced one, so it always
    // follows it; reversing moves the obs-toggled run from last to first.
    const bool ok = base_walls.size() % 2 == 0
                        ? run_base() && run_traced() && run_toggled()
                        : run_toggled() && run_base() && run_traced();
    if (!ok) break;
    const bool base_has_obs = base.stats.instruments > 0;
    base_walls.push_back(b);
    traced_total_s += t;
    trace_ratio.push_back(t / b);
    obs_ratio.push_back(base_has_obs ? b / o : o / b);
    last_triple = seconds_since(triple_start);
  }
  if (base_walls.empty()) return;
  const LayerTimes lt = tracer.totals();
  if (lt.unexpected_nesting != 0) {
    ++res.failed;
    res.errors.push_back(std::to_string(lt.unexpected_nesting) +
                         " spans nested where attribution assumes none");
  }

  const double runs = static_cast<double>(base_walls.size());
  const double scale = kReferenceNominalS / median(res.reference_s);
  const SimStats& obs_on =
      base.stats.instruments > 0 ? base.stats : toggled.stats;
  const auto self = [&](Span s) {
    return lt.self_s[static_cast<std::size_t>(s)] * scale / runs;
  };
  const auto calls = [&](Span s) {
    return static_cast<double>(lt.calls[static_cast<std::size_t>(s)]) / runs;
  };
  const auto per_call_ns = [&](Span s) {
    return calls(s) == 0 ? 0.0 : self(s) * 1e9 / calls(s);
  };
  const double build_s = traced.build_s * scale;
  const double traced_wall = traced_total_s * scale / runs;
  double attributed = build_s;
  for (std::size_t i = 0; i < kNumSpans; ++i) {
    attributed += self(static_cast<Span>(i));
  }
  const double base_wall = median(base_walls) * scale;

  const SimStats& s = base.stats;
  const auto u = [](std::uint64_t v) { return static_cast<double>(v); };
  res.add("sim.events", u(s.events));
  res.add("sim.events_per_s", u(s.events) / base_wall);
  res.add("sim.sim_s_per_wall_s",
          static_cast<double>(s.sim_end_ns) * 1e-9 / base_wall);
  res.add("sim.peak_pending", u(s.peak_pending));
  res.add("sim.calendar_resizes", u(s.calendar_resizes));
  res.add("sim.self_s", traced_wall - attributed);
  res.add("net.switch_rx", calls(Span::kNet));
  res.add("net.self_s", self(Span::kNet));
  res.add("net.ns_per_rx", per_call_ns(Span::kNet));
  res.add("net.pool_fresh", u(s.pool_fresh));
  res.add("net.pool_reused", u(s.pool_reused));
  res.add("net.switch_drops", u(s.switch_drops));
  res.add("net.switch_marks", u(s.switch_marks));
  res.add("sched.calls", calls(Span::kSched));
  res.add("sched.self_s", self(Span::kSched));
  res.add("sched.ns_per_call", per_call_ns(Span::kSched));
  res.add("sched.drops", u(s.sched_drops));
  res.add("aqm.calls", calls(Span::kAqm));
  res.add("aqm.self_s", self(Span::kAqm));
  res.add("aqm.ns_per_call", per_call_ns(Span::kAqm));
  res.add("aqm.mark_ratio", calls(Span::kAqm) == 0
                                ? 0.0
                                : u(tracer.marks()) / runs / calls(Span::kAqm));
  res.add("transport.flow_starts", calls(Span::kStart));
  res.add("transport.start_s", self(Span::kStart));
  res.add("transport.connections", u(traced.connections));
  res.add("transport.timeouts", u(s.fct.timeouts));
  res.add("traffic.arrivals", u(s.traffic_arrivals));
  res.add("traffic.active_peak", u(s.traffic_active_peak));
  res.add("traffic.slab_fresh", u(s.slab_fresh));
  res.add("traffic.slab_reused", u(s.slab_reused));
  res.add("stats.calls", calls(Span::kStats));
  res.add("stats.self_s", self(Span::kStats));
  res.add("topo.build_s", build_s);
  res.add("obs.overhead_frac", median(obs_ratio) - 1.0, obs_ratio);
  res.add("obs.series_ticks", u(obs_on.series_ticks));
  res.add("obs.instruments", u(obs_on.instruments));
  res.add("trace.overhead_frac", median(trace_ratio) - 1.0, trace_ratio);
  res.add("trace.agrees", diff.empty() ? 1.0 : 0.0);
  res.add("trace.clock_ns", lt.clock_ns);
}

}  // namespace

WorkloadResult run_workload(const Workload& workload, const Options& opt) {
  // The first kernel runs in a process pay for page faults and cold code,
  // and the allocator settles its mmap threshold after the first.
  (void)reference_kernel_s();
  (void)reference_kernel_s();
  WorkloadResult res;
  res.workload = std::string(workload.name);
  res.seed = opt.seed;
  if (opt.trace) {
    measure_layers(workload, opt, res);
  } else {
    measure_end_to_end(workload, opt, res);
  }
  return res;
}

}  // namespace tcn::e2e
