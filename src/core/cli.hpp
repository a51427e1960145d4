// The command-line names of the experiment harness's schemes and
// schedulers, and the report `tcnsim` prints for a run. tcnsim's flag rows
// (tools/tcnsim_args.hpp) and bench/atlas parse with these.
#pragma once

#include <string>

#include "core/experiment.hpp"

namespace tcn::core {

/// The scheme or scheduler a name selects; throws std::invalid_argument
/// listing the names.
Scheme parse_scheme(const std::string& name);
SchedKind parse_sched(const std::string& name);
/// Full --sched grammar: a scheduler name with optional parameters --
/// `sp-pifo[:levels]` and `aifo[:window,k]`; every other name takes none.
/// Fills `sched` (kind + parameters) or throws std::invalid_argument.
void parse_sched_spec(const std::string& spec, SchedConfig& sched);

/// Render a report the way the tool prints it.
std::string format_report(const FctExperiment& cfg, const FctReport& report);

}  // namespace tcn::core
