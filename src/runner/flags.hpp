// One flag table per front end: tcnsim (tools/tcnsim_args.hpp), bench/suite
// and the other benches (bench/bench_util.hpp), bench/atlas and
// bench/micro_core. A row is a flag's name, value placeholder, help text
// and setter; parse_flags applies argv to the rows and flags_usage prints
// them, so each flag is declared once for both. A row with an empty
// metavar is a switch that takes no value; a row with an empty name is a
// --help section heading and matches no token.
//
// The rules are the same in every front end. A reject is a
// std::invalid_argument whose message names the flag: a missing value, an
// unknown flag, a malformed number (sim::parse_u64 / parse_double), an
// empty list, an empty list element or an empty path.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "fault/fault.hpp"
#include "runner/sweep.hpp"
#include "sim/parse.hpp"
#include "traffic/spec.hpp"

namespace tcn::runner {

/// Parses one flag value into its target; throws std::invalid_argument.
using FlagSetter =
    std::function<void(const std::string& flag, const std::string& value)>;

struct Flag {
  std::string name;     ///< e.g. "--jobs"; empty = a section heading
  std::string metavar;  ///< the value's placeholder, e.g. "N"; empty = switch
  std::string help;     ///< '\n' starts a continuation line
  FlagSetter set;       ///< a switch's setter gets an empty value
};

/// The setters below keep a reference to their target, so a table must
/// not outlive the struct its rows write into.
using FlagTable = std::vector<Flag>;

/// Applies `args` (argv[1..]) to the rows in order; a token with no row is
/// rejected.
void parse_flags(const FlagTable& table, const std::vector<std::string>& args);

/// The rows' --help lines, in row order.
[[nodiscard]] std::string flags_usage(const FlagTable& table);

/// True when `args` holds --help or -h, which wins over every other flag.
[[nodiscard]] bool wants_help(const std::vector<std::string>& args);

/// Setter for an unsigned integer or a floating-point value.
template <class T>
FlagSetter number_setter(T& out) {
  static_assert(std::is_unsigned_v<T> || std::is_floating_point_v<T>);
  return [&out](const std::string& flag, const std::string& value) {
    if constexpr (std::is_floating_point_v<T>) {
      out = sim::parse_double(flag, value);
    } else {
      out = sim::parse_u64(flag, value);
    }
  };
}

/// Setter replacing `out` with the comma-separated list's elements, each
/// parsed by `parse_one(flag, element)`.
template <class T, class ParseOne>
FlagSetter list_setter(std::vector<T>& out, ParseOne parse_one) {
  return [&out, parse_one](const std::string& flag, const std::string& value) {
    std::vector<T> parsed;
    for (const std::string& e : sim::list_elements(flag, value)) {
      parsed.push_back(parse_one(flag, e));
    }
    out = std::move(parsed);
  };
}

/// Setter for a file path; rejects an empty one.
FlagSetter path_setter(std::string& out);

/// Setter for a switch row (empty metavar): sets `out`.
FlagSetter switch_setter(bool& out);

/// What the shared rows fill. Each front end sets its defaults before
/// adding the rows.
struct SweepFlags {
  std::size_t jobs = 0;       ///< --jobs; 0 = one worker per core
  std::string json;           ///< --json; "-" = stdout, empty = none
  std::vector<double> loads;  ///< --loads
  FailurePolicy on_failure = FailurePolicy::kCancelAll;  ///< --on-failure
  std::string journal;  ///< --journal
  std::string resume;   ///< --resume
  std::vector<std::pair<std::string, fault::FaultPlan>> fault_grid;
  std::vector<std::pair<std::string, traffic::TrafficSpec>> traffic_grid;
};

/// The six rows every front end shares: --jobs --json --loads
/// --on-failure --journal --resume.
void add_sweep_flags(FlagTable& table, SweepFlags& flags);

/// --fault-grid and --traffic-grid (tcnsim and the figure benches).
void add_grid_flags(FlagTable& table, SweepFlags& flags);

/// The SweepOptions `flags` ask for; `name` heads a fresh journal. Loads
/// the --resume journal into `resume`, which must outlive the sweep, and
/// reports it on stderr. Throws, naming --resume, std::invalid_argument
/// when the journal is rejected and std::runtime_error when it cannot be
/// read.
SweepOptions sweep_options(const SweepFlags& flags, const std::string& name,
                           JournalData& resume);

}  // namespace tcn::runner
