// The --sched grammar and the report `tcnsim` prints for a run. The scheme
// and scheduler names themselves are rows of core/schemes.
#pragma once

#include <string>

#include "core/experiment.hpp"

namespace tcn::core {

/// Full --sched grammar: a scheduler name with optional parameters --
/// `sp-pifo[:levels]` and `aifo[:window,k]`; every other name takes none.
/// Fills `sched` (kind + parameters) or throws std::invalid_argument.
void parse_sched_spec(const std::string& spec, SchedConfig& sched);

/// Render a report the way the tool prints it.
std::string format_report(const FctExperiment& cfg, const FctReport& report);

}  // namespace tcn::core
