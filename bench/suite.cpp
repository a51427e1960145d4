// suite: the whole figure-reproduction suite (Figs. 6-13) as one parallel
// sweep. Every (figure x scheme x load) cell is an independent
// core::FctExperiment, so the full evaluation is a single runner job list
// executed across --jobs worker threads; tables print per figure in paper
// order and the combined structured results land in BENCH_suite.json
// (schema tcn-bench-1), which CI uploads so the perf trajectory accumulates.
//
//   suite                         # per-figure default grids, all cores
//   suite --jobs 4                # pin the worker count
//   suite --flows 150 --loads 0.7 # smoke grid (CI), overrides every figure
//
// Determinism: aggregation is by job index, so stdout tables and the JSON
// (minus wall-clock fields) are byte-identical for any --jobs value.
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "figures.hpp"

using namespace tcn;

namespace {

struct Slice {
  bench::FigureDef def;
  bench::Args args;       // figure defaults merged with CLI overrides
  std::size_t first = 0;  // index of the slice's first job in the suite list
};

}  // namespace

int main(int argc, char** argv) {
  // flows=0 / empty loads are sentinels: keep each figure's own defaults
  // unless the user overrides them (the CI smoke grid does).
  bench::Args defaults;
  defaults.flows = 0;
  defaults.sweep.loads.clear();
  defaults.sweep.json = "BENCH_suite.json";
  const auto cli = bench::Args::parse(argc, argv, defaults);

  std::vector<Slice> slices;
  std::vector<runner::Job> jobs;
  for (auto& def : bench::figure_suite()) {
    Slice slice;
    slice.args = def.defaults;
    if (cli.flows > 0) slice.args.flows = cli.flows;
    if (!cli.sweep.loads.empty()) slice.args.sweep.loads = cli.sweep.loads;
    slice.args.seed = cli.seed;
    slice.args.metrics_out = cli.metrics_out;
    slice.args.sweep.fault_grid = cli.sweep.fault_grid;
    slice.args.sweep.traffic_grid = cli.sweep.traffic_grid;
    slice.first = jobs.size();
    const auto spec = bench::fct_sweep_spec(def.name, def.base, def.schemes,
                                            slice.args);
    for (auto& job : spec.expand()) jobs.push_back(std::move(job));
    slice.def = std::move(def);
    slices.push_back(std::move(slice));
  }

  std::fprintf(stderr, "suite: %zu runs across %zu figures\n", jobs.size(),
               slices.size());
  const auto res = bench::run_jobs(std::move(jobs), cli, "suite");

  if (!res.ok()) {
    std::fprintf(stderr, "suite: %zu run(s) failed, %zu skipped\n",
                 res.failed, res.skipped);
    for (const auto& r : res.runs) {
      if (!r.ok && !r.skipped) {
        std::fprintf(stderr, "  %s/%s load=%.0f%%: %s [%.*s]\n",
                     r.job.group.c_str(), r.job.label.c_str(),
                     r.job.cfg.load * 100, r.error.c_str(),
                     static_cast<int>(
                         runner::error_kind_name(r.error_kind).size()),
                     runner::error_kind_name(r.error_kind).data());
      }
    }
    // Still write the JSON: a failed sweep's partial trajectory is evidence.
    runner::write_json_file(res, "suite", cli.sweep.json);
    return 1;
  }

  // A fault or traffic axis changes the grid layout the table printers
  // assume (load-major then scheme); the structured JSON carries those
  // cells.
  if (cli.sweep.fault_grid.empty() && cli.sweep.traffic_grid.empty()) {
    for (const auto& slice : slices) {
      bench::print_fct_tables(slice.def.title, slice.def.schemes,
                              slice.args.sweep.loads, res.runs, slice.first,
                              slice.args.flows, slice.args.seed);
    }
  }
  std::fprintf(stderr,
               "suite: %zu runs ok in %.1f s (%zu workers), json -> %s\n",
               res.runs.size(), res.wall_ms / 1000.0, res.jobs_used,
               cli.sweep.json.c_str());
  runner::write_json_file(res, "suite", cli.sweep.json);
  if (!cli.metrics_out.empty()) {
    runner::write_metrics_file(res, "suite", cli.metrics_out);
  }
  return 0;
}
