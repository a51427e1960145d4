// tcnsim: run any TCN paper experiment from the command line.
//
//   tcnsim --scheme tcn --sched wfq --load 0.8 --flows 2000
//   tcnsim --topology leafspine --scheme red --sched sp-dwrr --pias
//          --transport ecnstar --load 0.9
//   tcnsim --loads 0.3,0.5,0.7,0.9 --seeds 1,2,3,4 --jobs 4
//          --json BENCH_tcnsim.json
//
// With --loads/--seeds the cross product runs as a parallel sweep on
// --jobs worker threads (src/runner); per-run reports print in grid order
// -- byte-identical for any job count -- and --json writes the structured
// results (schema tcn-bench-1). See tcnsim --help for every flag.
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/cli.hpp"
#include "fault/fault.hpp"
#include "runner/journal.hpp"
#include "runner/results.hpp"
#include "runner/sweep.hpp"
#include "traffic/spec.hpp"

namespace {

std::vector<std::string> split_list(const std::string& list) {
  std::vector<std::string> out;
  std::string token;
  for (std::size_t pos = 0; pos <= list.size(); ++pos) {
    if (pos == list.size() || list[pos] == ',') {
      if (!token.empty()) out.push_back(token);
      token.clear();
    } else {
      token += list[pos];
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  for (const auto& a : args) {
    if (a == "--help" || a == "-h") {
      std::fputs(tcn::core::cli_usage().c_str(), stdout);
      return 0;
    }
  }
  try {
    // Sweep-level flags are handled here; everything else configures the
    // experiment via the library parser.
    std::size_t jobs = 1;
    std::string json_path;
    std::vector<double> loads;
    std::vector<std::uint64_t> seeds;
    std::vector<std::pair<std::string, tcn::fault::FaultPlan>> fault_grid;
    std::vector<std::pair<std::string, tcn::traffic::TrafficSpec>>
        traffic_grid;
    tcn::runner::SweepOptions opt;
    std::string resume_path;
    bool on_failure_set = false;
    std::vector<std::string> rest;
    for (std::size_t i = 0; i < args.size(); ++i) {
      const std::string& flag = args[i];
      auto value = [&]() -> const std::string& {
        if (i + 1 >= args.size()) {
          throw std::invalid_argument(flag + ": missing value");
        }
        return args[++i];
      };
      if (flag == "--jobs") {
        jobs = tcn::core::parse_u64(flag, value());
      } else if (flag == "--json") {
        json_path = value();
      } else if (flag == "--loads") {
        for (const auto& t : split_list(value())) {
          loads.push_back(tcn::core::parse_double(flag, t));
        }
        if (loads.empty()) throw std::invalid_argument("--loads: empty list");
      } else if (flag == "--seeds") {
        for (const auto& t : split_list(value())) {
          seeds.push_back(tcn::core::parse_u64(flag, t));
        }
        if (seeds.empty()) throw std::invalid_argument("--seeds: empty list");
      } else if (flag == "--fault-grid") {
        fault_grid = tcn::fault::parse_fault_grid(value());
      } else if (flag == "--traffic-grid") {
        traffic_grid = tcn::traffic::parse_traffic_grid(value());
      } else if (flag == "--on-failure") {
        opt.failure_policy = tcn::runner::failure_policy_from_name(value());
        on_failure_set = true;
      } else if (flag == "--retries") {
        opt.retry.max_attempts = tcn::core::parse_u64(flag, value());
        if (opt.retry.max_attempts == 0) {
          throw std::invalid_argument("--retries: must be >= 1");
        }
        if (!on_failure_set) {
          opt.failure_policy = tcn::runner::FailurePolicy::kRetry;
        }
      } else if (flag == "--journal") {
        opt.journal_out = value();
        if (opt.journal_out.empty()) {
          throw std::invalid_argument("--journal: empty path");
        }
      } else if (flag == "--resume") {
        resume_path = value();
        if (resume_path.empty()) {
          throw std::invalid_argument("--resume: empty path");
        }
      } else {
        rest.push_back(flag);
      }
    }

    const auto cfg = tcn::core::parse_cli(rest);

    const bool single = loads.size() <= 1 && seeds.size() <= 1 &&
                        json_path.empty() && fault_grid.empty() &&
                        traffic_grid.empty() && opt.journal_out.empty() &&
                        resume_path.empty();
    if (single) {
      auto one = cfg;
      if (!loads.empty()) one.load = loads[0];
      if (!seeds.empty()) one.seed = seeds[0];
      const auto report = tcn::core::run_fct_experiment(one);
      std::fputs(tcn::core::format_report(one, report).c_str(), stdout);
      return 0;
    }

    if (!cfg.trace_out.empty()) {
      throw std::invalid_argument(
          "--trace-out: single-run only (a sweep would interleave every "
          "run's events into one file); drop --loads/--seeds/--json");
    }
    if (!cfg.series_out.empty()) {
      throw std::invalid_argument(
          "--series-out: single-run only (every run would overwrite the "
          "same file); drop --loads/--seeds/--json, or use "
          "--sample-interval-us alone -- the stability reduction rides the "
          "sweep JSON per run");
    }

    tcn::runner::SweepSpec spec;
    spec.name = "tcnsim";
    spec.base = cfg;
    // In a sweep the per-run metrics_out path would be clobbered by every
    // worker; collect in-memory per run instead and write one merged
    // document (job-index order, byte-identical for any --jobs) at the end.
    const std::string metrics_path = cfg.metrics_out;
    spec.base.metrics_out.clear();
    if (!metrics_path.empty()) spec.base.collect_metrics = true;
    spec.schemes = {{tcn::core::scheme_name(cfg.scheme), cfg.scheme}};
    spec.loads = loads.empty() ? std::vector<double>{cfg.load} : loads;
    if (!seeds.empty()) spec.seeds = seeds;
    spec.faults = std::move(fault_grid);
    spec.traffics = std::move(traffic_grid);

    opt.jobs = jobs;
    opt.journal_name = spec.name;
    // --resume with no --journal extends the same journal in place, so a
    // sweep can be killed and resumed any number of times.
    if (!resume_path.empty() && opt.journal_out.empty()) {
      opt.journal_out = resume_path;
    }
    tcn::runner::JournalData journal_data;
    if (!resume_path.empty()) {
      journal_data = tcn::runner::load_journal(resume_path);
      opt.resume = &journal_data;
      std::fprintf(stderr,
                   "resuming from %s: %zu of %zu run(s) journaled%s\n",
                   resume_path.c_str(), journal_data.entries.size(),
                   journal_data.total_jobs,
                   journal_data.torn_tail ? " (torn tail dropped)" : "");
    }
    opt.on_done = [](const tcn::runner::RunRecord& r) {
      if (r.skipped) return;
      std::fprintf(stderr, "  [load=%.0f%% seed=%llu] %s (%.0f ms)\n",
                   r.job.cfg.load * 100,
                   static_cast<unsigned long long>(r.job.cfg.seed),
                   r.ok ? "done" : r.error.c_str(), r.wall_ms);
    };
    const auto res = tcn::runner::run_sweep(spec, opt);

    for (const auto& r : res.runs) {
      std::string head;
      char buf[64];
      std::snprintf(buf, sizeof(buf), "== load=%.0f%% seed=%llu",
                    r.job.cfg.load * 100,
                    static_cast<unsigned long long>(r.job.cfg.seed));
      head = buf;
      if (!r.job.fault_label.empty()) {
        head += " faults=" + r.job.fault_label;
      }
      if (!r.job.traffic_label.empty()) {
        head += " traffic=" + r.job.traffic_label;
      }
      std::printf("%s ==\n", head.c_str());
      if (r.ok) {
        std::fputs(tcn::core::format_report(r.job.cfg, r.report).c_str(),
                   stdout);
      } else {
        std::printf("  %s: %s\n", r.skipped ? "skipped" : "FAILED",
                    r.error.c_str());
      }
    }
    if (!json_path.empty()) {
      tcn::runner::write_json_file(res, "tcnsim", json_path);
    }
    if (!metrics_path.empty()) {
      tcn::runner::write_metrics_file(res, "tcnsim", metrics_path);
    }
    return res.ok() ? 0 : 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tcnsim: %s\n", e.what());
    return 2;
  }
}
