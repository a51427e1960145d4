// The four production flow-size distributions of Fig. 4.
//
// Web search (DCTCP, Alizadeh et al.) and data mining (VL2, Greenberg et al.)
// are the standard published CDFs used verbatim across the PIAS / MQ-ECN /
// TCN line of work. Hadoop and cache (Roy et al., "Inside the Social
// Network's (Datacenter) Network") are reconstructed heavy-tailed
// approximations with the byte/flow split the paper describes -- the original
// CDF files were distributed from the paper's (now offline) project page; see
// DESIGN.md "Substitutions".
//
// All distributions are flow-size CDFs in bytes with linear interpolation
// between points (the ns-2 generator convention).
#pragma once

#include <string>
#include <vector>

#include "sim/ecdf.hpp"

namespace tcn::workload {

enum class Kind { kWebSearch, kDataMining, kHadoop, kCache };

/// All four kinds, in the order the paper lists them.
const std::vector<Kind>& all_kinds();

/// Flow-size distribution for a workload (bytes). The returned reference is
/// to a function-local static; it lives for the program duration.
const sim::Ecdf& distribution(Kind k);

std::string name(Kind k);

/// The kind `text` names: its name() ("web-search") or that name without
/// hyphens ("websearch"). Throws std::invalid_argument listing the names.
Kind from_name(const std::string& text);

}  // namespace tcn::workload
