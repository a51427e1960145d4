// suite: the figure-reproduction suite (Figs. 6-13, then the SP-PIFO and
// AIFO re-runs of Figs. 6-9) as one parallel sweep. Every (figure x scheme
// x load) cell is an independent core::FctExperiment, so the evaluation is
// a single runner job list executed across --jobs worker threads; tables
// print per figure in suite order and the combined structured results of a
// full run land in BENCH_suite.json (schema tcn-bench-1), which CI uploads
// so the perf trajectory accumulates. A --figure run writes a results file
// only where --json names one, so it never overwrites a full run's.
//
//   suite                          # every figure on its own grid, all cores
//   suite --figure fig10,fig06     # Figs. 6 and 10 only, in suite order
//   suite --jobs 4                 # pin the worker count
//   suite --flows 150 --loads 0.7  # smoke grid (CI), overrides every figure
//
// Determinism: aggregation is by job index, so stdout tables and the JSON
// (minus wall-clock fields) are byte-identical for any --jobs value.
#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "figures.hpp"

using namespace tcn;

int main(int argc, char** argv) {
  std::vector<bench::FigureDef> figures = bench::figure_suite();
  std::string valid;
  for (const auto& def : figures) {
    valid += (valid.empty() ? "" : ", ") + def.name;
  }
  const auto known = [&](const std::string& name) {
    return std::any_of(figures.begin(), figures.end(),
                       [&](const auto& def) { return def.name == name; });
  };

  std::vector<std::string> picked;
  bench::Args args;
  runner::FlagTable table = bench::Args::flags(args);
  for (runner::Flag& row : table) {
    if (row.name == "--json") {
      row.help = "write the results document (\"-\" = stdout;\n"
                 "default BENCH_suite.json without --figure)";
    }
  }
  table.insert(table.begin(),
               {"--figure", "NAME[,NAME...]",
                "run only these figures, in suite order:\n"
                "fig06 ... fig13, or fig06 ... fig09 with an\n"
                "-sp-pifo or -aifo suffix (default: all); each\n"
                "runs its own grid unless --flows or --loads\n"
                "is given: 2000 flows at loads 0.3,0.5,0.7,0.9\n"
                "(fig10 ... fig13: 0.6,0.9)",
                [&](const std::string& flag, const std::string& value) {
                  picked = sim::list_elements(flag, value);
                  for (const std::string& name : picked) {
                    if (!known(name)) {
                      throw std::invalid_argument(
                          flag + ": unknown figure '" + name + "' (valid: " +
                          valid + ")");
                    }
                  }
                }});
  bench::parse_or_exit(argc, argv, table);

  if (picked.empty()) {
    if (args.sweep.json.empty()) args.sweep.json = "BENCH_suite.json";
  } else {
    std::erase_if(figures, [&](const bench::FigureDef& def) {
      return std::find(picked.begin(), picked.end(), def.name) ==
             picked.end();
    });
  }
  return bench::run_figures("suite", figures, args);
}
