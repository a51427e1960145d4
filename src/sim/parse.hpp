// Checked values for the hand-written grammars: command-line flags
// (runner::FlagTable rows) and the --faults / --traffic / --sched
// clauses. The whole of `value` must be the number: no leading blank, no
// trailing text, no sign on an unsigned value (std::stoull wraps "-5" to
// 2^64 - 5), nothing non-finite for a double ("nan" passes range guards
// written as `x <= 0 || x > 1`). Each throws std::invalid_argument naming
// `what`.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/time.hpp"

namespace tcn::sim {

std::uint64_t parse_u64(std::string_view what, std::string_view value);
double parse_double(std::string_view what, std::string_view value);

/// `amount` in units of `unit` nanoseconds as a Time; a product the
/// conversion cannot represent is an error, not undefined behaviour.
Time to_time(std::string_view what, double amount, Time unit);

/// The elements of a comma-separated list; an empty list or an empty
/// element ("0.5,,0.7") is an error.
std::vector<std::string> list_elements(std::string_view what,
                                       std::string_view value);

}  // namespace tcn::sim
