#include "runner/flags.hpp"

#include <algorithm>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string_view>

#include "runner/journal.hpp"

namespace tcn::runner {
namespace {

// Help text starts in this column.
constexpr std::size_t kHelpColumn = 30;

}  // namespace

void parse_flags(const FlagTable& table,
                 const std::vector<std::string>& args) {
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& name = args[i];
    const auto row =
        std::find_if(table.begin(), table.end(), [&](const Flag& f) {
          return !f.name.empty() && f.name == name;
        });
    if (row == table.end()) {
      throw std::invalid_argument("unknown flag '" + name + "' (see --help)");
    }
    const bool is_switch = row->metavar.empty();
    if (!is_switch && i + 1 >= args.size()) {
      throw std::invalid_argument(name + ": missing value");
    }
    try {
      row->set(name, is_switch ? std::string() : args[++i]);
    } catch (const std::invalid_argument& e) {
      if (std::string_view(e.what()).find(name) != std::string_view::npos) {
        throw;
      }
      throw std::invalid_argument(name + ": " + e.what());
    }
  }
}

std::string flags_usage(const FlagTable& table) {
  std::string out;
  for (const Flag& row : table) {
    if (row.name.empty()) {
      out += row.help + '\n';
      continue;
    }
    std::string line = "  " + row.name;
    if (!row.metavar.empty()) line += " " + row.metavar;
    for (std::size_t begin = 0; begin <= row.help.size();) {
      const std::size_t end = std::min(row.help.find('\n', begin),
                                       row.help.size());
      if (line.size() >= kHelpColumn) {
        out += line + '\n';
        line.clear();
      }
      line.resize(kHelpColumn, ' ');
      out += line + row.help.substr(begin, end - begin) + '\n';
      line.clear();
      begin = end + 1;
    }
  }
  return out;
}

bool wants_help(const std::vector<std::string>& args) {
  return std::any_of(args.begin(), args.end(), [](const std::string& a) {
    return a == "--help" || a == "-h";
  });
}

FlagSetter path_setter(std::string& out) {
  return [&out](const std::string& flag, const std::string& value) {
    if (value.empty()) throw std::invalid_argument(flag + ": empty path");
    out = value;
  };
}

FlagSetter switch_setter(bool& out) {
  return [&out](const std::string&, const std::string&) { out = true; };
}

void add_sweep_flags(FlagTable& table, SweepFlags& f) {
  // The help shows each front end's own defaults.
  std::string loads;
  for (const double load : f.loads) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%s%g", loads.empty() ? "" : ",", load);
    loads += buf;
  }
  table.push_back({"--loads", "l1,l2,...",
                   "offered loads to sweep" +
                       (loads.empty() ? "" : " (default " + loads + ")"),
                   list_setter(f.loads, sim::parse_double)});
  table.push_back({"--jobs", "N",
                   "sweep workers (default " + std::to_string(f.jobs) +
                       ", 0 = one per core);\noutput is byte-identical for "
                       "any N",
                   number_setter(f.jobs)});
  table.push_back({"--json", "PATH",
                   "write the results document (\"-\" = stdout" +
                       (f.json.empty() ? "" : ";\ndefault " + f.json) + ")",
                   path_setter(f.json)});
  table.push_back({"--on-failure", "P",
                   "cancel_all (default: skip the rest after a\n"
                   "failure) | record_and_continue",
                   [&f](const std::string&, const std::string& value) {
                     f.on_failure = failure_policy_from_name(value);
                   }});
  table.push_back({"--journal", "PATH",
                   "append a fsync'd tcn-journal-1 line per run",
                   path_setter(f.journal)});
  table.push_back({"--resume", "PATH",
                   "restore completed runs from a journal and run\n"
                   "only the rest; extends PATH in place unless\n"
                   "--journal names a different file",
                   path_setter(f.resume)});
}

void add_grid_flags(FlagTable& table, SweepFlags& f) {
  table.push_back({"--fault-grid", "c1|c2|...",
                   "sweep a fault axis: each '|'-separated cell is\n"
                   "a --faults list (\"none\" = fault-free)",
                   [&f](const std::string&, const std::string& value) {
                     f.fault_grid = fault::parse_fault_grid(value);
                   }});
  table.push_back({"--traffic-grid", "c1|c2|...",
                   "sweep a traffic axis (innermost): each cell is a\n"
                   "--traffic list (\"none\" = the closed loop)",
                   [&f](const std::string&, const std::string& value) {
                     f.traffic_grid = traffic::parse_traffic_grid(value);
                   }});
}

SweepOptions sweep_options(const SweepFlags& f, const std::string& name,
                           JournalData& resume) {
  SweepOptions opt;
  opt.jobs = f.jobs;
  opt.failure_policy = f.on_failure;
  opt.journal_name = name;
  // --resume with no --journal extends the same journal in place, so a
  // sweep can be killed and resumed any number of times.
  opt.journal_out = f.journal.empty() ? f.resume : f.journal;
  if (f.resume.empty()) return opt;
  try {
    resume = load_journal(f.resume);
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(std::string("--resume: ") + e.what());
  } catch (const std::runtime_error& e) {
    throw std::runtime_error(std::string("--resume: ") + e.what());
  }
  opt.resume = &resume;
  std::fprintf(stderr,
               "%s: resuming from %s, %zu of %zu run(s) journaled%s\n",
               name.c_str(), f.resume.c_str(), resume.entries.size(),
               resume.total_jobs,
               resume.torn_tail ? " (torn tail dropped)" : "");
  return opt;
}

}  // namespace tcn::runner
