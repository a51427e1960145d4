// tcnsim: run any TCN paper experiment from the command line.
//
//   tcnsim --scheme tcn --sched wfq --load 0.8 --flows 2000
//   tcnsim --topology leafspine --scheme red --sched sp-dwrr --pias
//          --transport ecnstar --load 0.9
//   tcnsim --loads 0.3,0.5,0.7,0.9 --seeds 1,2,3,4 --jobs 4
//          --json BENCH_tcnsim.json
//
// With --loads/--seeds the cross product runs as a parallel sweep on
// --jobs worker threads (src/runner); per-run reports print in grid order
// -- byte-identical for any job count -- and --json writes the structured
// results (schema tcn-bench-1). See tcnsim --help for every flag.
//
// Exit status: 0 when every run succeeded; 2 when the input was rejected
// (a flag, a clause, a replay or journal line, a --resume journal from
// another sweep); 1 when something failed after that (a run, or reading or
// writing a file).
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "runner/journal.hpp"
#include "runner/results.hpp"
#include "runner/sweep.hpp"
#include "tcnsim_args.hpp"

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  if (tcn::runner::wants_help(args)) {
    tcn::tools::TcnsimArgs defaults;
    std::printf("tcnsim -- run a TCN paper experiment from the command line\n"
                "\nusage: tcnsim [flags]   (--help: this text)\n\n%s",
                tcn::runner::flags_usage(tcn::tools::tcnsim_flags(defaults))
                    .c_str());
    return 0;
  }
  try {
    const auto cli = tcn::tools::parse_tcnsim_args(args);
    const auto& [flags, seeds, cfg] = std::tie(cli.sweep, cli.seeds, cli.cfg);
    const auto& loads = flags.loads;

    const bool single = loads.size() <= 1 && seeds.size() <= 1 &&
                        flags.json.empty() && flags.fault_grid.empty() &&
                        flags.traffic_grid.empty() && flags.journal.empty() &&
                        flags.resume.empty();
    if (single) {
      auto one = cfg;
      if (!loads.empty()) one.load = loads[0];
      if (!seeds.empty()) one.seed = seeds[0];
      const auto report = tcn::core::run_fct_experiment(one);
      std::fputs(tcn::core::format_report(one, report).c_str(), stdout);
      return 0;
    }

    if (!cfg.trace_out.empty()) {
      throw std::invalid_argument(
          "--trace-out: single-run only (a sweep would interleave every "
          "run's events into one file); drop --loads/--seeds/--json");
    }
    if (!cfg.series_out.empty()) {
      throw std::invalid_argument(
          "--series-out: single-run only (every run would overwrite the "
          "same file); drop --loads/--seeds/--json, or use "
          "--sample-interval-us alone -- the stability reduction rides the "
          "sweep JSON per run");
    }

    tcn::runner::SweepSpec spec;
    spec.name = "tcnsim";
    spec.base = cfg;
    // In a sweep the per-run metrics_out path would be clobbered by every
    // worker; collect in-memory per run instead and write one merged
    // document (job-index order, byte-identical for any --jobs) at the end.
    const std::string metrics_path = cfg.metrics_out;
    spec.base.metrics_out.clear();
    if (!metrics_path.empty()) spec.base.collect_metrics = true;
    spec.schemes = {{tcn::core::scheme_name(cfg.scheme), cfg.scheme}};
    spec.loads = loads.empty() ? std::vector<double>{cfg.load} : loads;
    if (!seeds.empty()) spec.seeds = seeds;
    spec.faults = flags.fault_grid;
    spec.traffics = flags.traffic_grid;

    tcn::runner::JournalData journal;
    auto opt = tcn::runner::sweep_options(flags, spec.name, journal);
    opt.on_done = [](const tcn::runner::RunRecord& r) {
      if (r.skipped) return;
      std::fprintf(stderr, "  [load=%.0f%% seed=%llu] %s (%.0f ms)\n",
                   r.job.cfg.load * 100,
                   static_cast<unsigned long long>(r.job.cfg.seed),
                   r.ok ? "done" : r.error.c_str(), r.wall_ms);
    };
    const auto res = tcn::runner::run_sweep(spec, opt);

    for (const auto& r : res.runs) {
      std::string head;
      char buf[64];
      std::snprintf(buf, sizeof(buf), "== load=%.0f%% seed=%llu",
                    r.job.cfg.load * 100,
                    static_cast<unsigned long long>(r.job.cfg.seed));
      head = buf;
      if (!r.job.fault_label.empty()) {
        head += " faults=" + r.job.fault_label;
      }
      if (!r.job.traffic_label.empty()) {
        head += " traffic=" + r.job.traffic_label;
      }
      std::printf("%s ==\n", head.c_str());
      if (r.ok) {
        std::fputs(tcn::core::format_report(r.job.cfg, r.report).c_str(),
                   stdout);
      } else {
        std::printf("  %s: %s\n", r.skipped ? "skipped" : "FAILED",
                    r.error.c_str());
      }
    }
    if (!flags.json.empty()) {
      tcn::runner::write_json_file(res, "tcnsim", flags.json);
    }
    if (!metrics_path.empty()) {
      tcn::runner::write_metrics_file(res, "tcnsim", metrics_path);
    }
    return res.ok() ? 0 : 1;
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "tcnsim: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tcnsim: %s\n", e.what());
    return 1;
  }
}
