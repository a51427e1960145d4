// tcnsim's command line: the shared sweep rows (runner/flags.hpp) plus
// --seeds; every other flag goes to core::parse_cli. A header so that the
// flag tests parse exactly what the tool parses.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/cli.hpp"
#include "runner/flags.hpp"

namespace tcn::tools {

struct TcnsimArgs {
  runner::SweepFlags sweep;
  std::vector<std::uint64_t> seeds;
  core::FctExperiment cfg;  ///< the forwarded flags, via core::parse_cli

  TcnsimArgs() { sweep.jobs = 1; }
};

inline runner::FlagTable tcnsim_flags(TcnsimArgs& a) {
  runner::FlagTable table;
  runner::add_sweep_flags(table, a.sweep);
  table.push_back({"--seeds", "s1,s2,...",
                   "run a seed sweep (cross product with --loads)",
                   runner::list_setter(a.seeds, sim::parse_u64)});
  runner::add_grid_flags(table, a.sweep);
  return table;
}

/// Parses argv[1..]; throws std::invalid_argument naming the flag.
inline TcnsimArgs parse_tcnsim_args(const std::vector<std::string>& args) {
  TcnsimArgs a;
  std::vector<std::string> rest;
  runner::parse_flags(tcnsim_flags(a), args, &rest);
  a.cfg = core::parse_cli(rest);
  return a;
}

}  // namespace tcn::tools
