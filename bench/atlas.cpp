// bench/atlas: the stability atlas. Sweeps marking threshold x load x
// buffer for TCN vs CoDel vs RED vs PIE across schedulers on the 9-host
// testbed star with time-series sampling on, prints a regime heatmap per
// (scheme, sched, buffer) slice, and writes the tcn-atlas-1 JSON document.
//
//   atlas --flows 500 --jobs 4 --json ATLAS.json
//   atlas --thresholds-us 64,256 --loads 0.5,0.9 --buffers 24000,96000
//         --schemes tcn,codel --scheds dwrr --flows 200 --jobs 2
//
// The JSON carries no host-timing fields, so two runs with different
// --jobs are byte-identical files (CI cmp's jobs=1 against jobs=4).
// Journaling/resume work exactly as in the figure benches.
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>
#include <vector>

#include "atlas.hpp"

using namespace tcn;

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  if (runner::wants_help(args)) {
    bench::AtlasArgs defaults;
    std::printf("usage: %s [flags]\n%s", argv[0],
                runner::flags_usage(bench::atlas_flags(defaults)).c_str());
    return 0;
  }
  try {
    const bench::AtlasArgs cli = bench::parse_atlas_args(args);
    const bench::AtlasAxes& axes = cli.axes;

    core::FctExperiment base = bench::testbed_base();
    base.num_flows = cli.flows;
    base.seed = cli.seed;
    base.timeseries.interval =
        static_cast<sim::Time>(cli.interval_us * sim::kMicrosecond);

    auto jobs_vec = bench::atlas_jobs(axes, base);
    std::fprintf(stderr, "atlas: %zu cells (%zu sched x %zu scheme x %zu "
                 "threshold x %zu load x %zu buffer), %zu flows/cell\n",
                 jobs_vec.size(), axes.scheds.size(), axes.schemes.size(),
                 axes.thresholds_us.size(), axes.loads.size(),
                 axes.buffer_bytes.size(), cli.flows);

    runner::JournalData journal;
    auto opt = runner::sweep_options(cli.sweep, "atlas", journal);
    opt.on_done = [](const runner::RunRecord& r) {
      if (r.skipped) return;
      if (!r.ok) {
        std::fprintf(stderr, "  [%s] FAILED: %s\n", r.job.label.c_str(),
                     r.error.c_str());
        return;
      }
      std::fprintf(stderr, "  [%s] %s osc=%.3f (%.0f ms)\n",
                   r.job.label.c_str(),
                   std::string(obs::regime_name(r.report.stability.regime))
                       .c_str(),
                   r.report.stability.oscillation_score, r.wall_ms);
    };

    const auto res = runner::run_jobs(std::move(jobs_vec), opt);
    bench::print_atlas_summary(axes, res);
    if (res.failed > 0 || res.skipped > 0) {
      std::fprintf(stderr, "atlas: %zu cell(s) failed, %zu skipped\n",
                   res.failed, res.skipped);
    }
    if (!cli.sweep.json.empty()) {
      obs::write_text_file(cli.sweep.json,
                           bench::atlas_to_json(axes, res, cli.flows,
                                                cli.seed, cli.interval_us));
    }
    return res.ok() ? 0 : 1;
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "atlas: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "atlas: %s\n", e.what());
    return 1;
  }
}
