// Command-line front end for the experiment harness: turns flags into an
// FctExperiment so users can run any paper scenario without writing C++
// (the `tcnsim` tool). The parser lives in the library so it is unit-tested.
#pragma once

#include <string>
#include <vector>

#include "core/experiment.hpp"

namespace tcn::core {

/// Parse `args` (argv[1..]) into an experiment configuration.
/// Throws std::invalid_argument naming the offending flag on bad input.
FctExperiment parse_cli(const std::vector<std::string>& args);

/// The --help text for the experiment flags (tcnsim appends its sweep
/// rows, runner/flags.hpp).
std::string cli_usage();

/// Parse helpers exposed for reuse/testing.
Scheme parse_scheme(const std::string& name);
SchedKind parse_sched(const std::string& name);
/// Full --sched grammar: a scheduler name with optional parameters --
/// `sp-pifo[:levels]` and `aifo[:window,k]`; every other name takes none.
/// Fills `sched` (kind + parameters) or throws std::invalid_argument.
void parse_sched_spec(const std::string& spec, SchedConfig& sched);
workload::Kind parse_workload(const std::string& name);

/// Render a report the way the tool prints it.
std::string format_report(const FctExperiment& cfg, const FctReport& report);

}  // namespace tcn::core
