// The flag table (runner/flags.hpp) and the front ends built on it: tcnsim
// (tools/tcnsim_args.hpp), the figure benches and bench/suite
// (bench/bench_util.hpp), bench/atlas (bench/atlas.hpp) and
// bench/micro_core. Covers the shared reject rules, the SweepOptions
// mapping, each front end's flag set and defaults, and -- by running the
// built binaries -- that every malformed command exits 2 at once with a
// message naming the flag.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <chrono>
#include <cstdio>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "atlas.hpp"
#include "bench_util.hpp"
#include "runner/flags.hpp"
#include "runner/journal.hpp"
#include "tcnsim_args.hpp"

namespace tcn {
namespace {

using Argv = std::vector<std::string>;

bench::Args parse_bench(const Argv& args) {
  bench::Args a;
  runner::parse_flags(bench::Args::flags(a), args);
  return a;
}

/// The flags of `table`, without its section headings.
std::set<std::string> row_names(const runner::FlagTable& table) {
  std::set<std::string> out;
  for (const auto& row : table) {
    if (!row.name.empty()) out.insert(row.name);
  }
  return out;
}

// ------------------------------------------------------------ reject rules

struct Reject {
  const char* front_end;  // "bench", "atlas" or "tcnsim"
  Argv args;
  const char* names;  // a substring the message must contain
};

TEST(SweepFlags, EveryRejectNamesTheFlag) {
  const std::vector<Reject> cases = {
      // A flag with no value, an unknown flag, a malformed number.
      {"bench", {"--jobs"}, "--jobs: missing value"},
      {"bench", {"--bogus", "1"}, "unknown flag '--bogus'"},
      {"bench", {"--flows", "-5"}, "--flows"},
      {"bench", {"--seed", "1x"}, "--seed"},
      {"bench", {"--jobs", "-1"}, "--jobs"},
      {"bench", {"--loads", "0.5,abc"}, "--loads"},
      {"bench", {"--loads", "nan"}, "--loads"},
      // An empty list, an empty element, an empty path.
      {"bench", {"--loads", ""}, "--loads: empty list"},
      {"bench", {"--loads", "0.5,,0.7"}, "--loads: empty element"},
      {"bench", {"--loads", "0.5,"}, "--loads: empty element"},
      {"bench", {"--json", ""}, "--json: empty path"},
      {"bench", {"--metrics-out", ""}, "--metrics-out: empty path"},
      {"bench", {"--journal", ""}, "--journal: empty path"},
      {"bench", {"--resume", ""}, "--resume: empty path"},
      {"bench", {"--on-failure", "sometimes"}, "--on-failure"},
      {"bench", {"--retries", "0"}, "--retries: must be >= 1"},
      {"bench", {"--fault-grid", "loss:x:nan"}, "--fault-grid"},
      {"bench", {"--traffic-grid", "poisson:w:cache:inf"}, "--traffic-grid"},
      // --retries N needs the retry policy, whichever flag comes first.
      {"bench",
       {"--retries", "2", "--on-failure", "record_and_continue"},
       "--on-failure"},
      {"bench",
       {"--on-failure", "record_and_continue", "--retries", "2"},
       "--retries"},
      {"atlas", {"--buffers", "-1"}, "--buffers"},
      {"atlas", {"--loads", "nan"}, "--loads"},
      {"atlas", {"--thresholds-us", "abc"}, "--thresholds-us"},
      {"atlas", {"--thresholds-us", "0"}, "--thresholds-us: must be > 0"},
      {"atlas", {"--thresholds-us", "1e300"}, "--thresholds-us"},
      {"atlas", {"--sample-interval-us", "nan"}, "--sample-interval-us"},
      {"atlas", {"--sample-interval-us", "1e300"}, "--sample-interval-us"},
      {"atlas", {"--sample-interval-us", "-2"}, "--sample-interval-us"},
      {"atlas", {"--schemes", "tcn,nosuch"}, "--schemes"},
      {"atlas", {"--scheds", "dwrr,"}, "--scheds"},
      {"atlas", {"--fault-grid", "none"}, "unknown flag '--fault-grid'"},
      {"tcnsim", {"--loads", "0.5,,0.7"}, "--loads"},
      {"tcnsim", {"--json", ""}, "--json"},
      {"tcnsim", {"--seeds", "1,x"}, "--seeds"},
      {"tcnsim", {"--seeds", ""}, "--seeds"},
      {"tcnsim",
       {"--on-failure", "cancel_all", "--retries", "3"},
       "--on-failure"},
      // The experiment rows name their flag too, including the rejects
      // of the name lookups that do not know it.
      {"tcnsim", {"--scheme", "nosuch"}, "--scheme"},
      {"tcnsim", {"--sched", "nosuch"}, "--sched"},
      {"tcnsim", {"--workload", "nosuch"}, "--workload"},
      {"tcnsim", {"--faults", "linkdown:sw0.p0:nan:20"}, "--faults"},
      {"tcnsim", {"--faults", "squeeze:sw0.p0:inf:0:10"}, "--faults"},
      {"tcnsim", {"--traffic", "poisson:web:websearch:nan"}, "--traffic"},
      {"tcnsim", {"--bogus"}, "unknown flag '--bogus'"},
      {"tcnsim", {"--load"}, "--load: missing value"},
      {"tcnsim", {"--services", "0"}, "--services"},
      {"tcnsim", {"--services", "4294967297"}, "--services"},
      // A switch takes no value, so the next token is a flag of its own.
      {"tcnsim", {"--pias", "1"}, "unknown flag '1'"},
      {"tcnsim", {""}, "unknown flag ''"},
  };
  for (const Reject& c : cases) {
    std::string what;
    try {
      const std::string fe = c.front_end;
      if (fe == "bench") {
        parse_bench(c.args);
      } else if (fe == "atlas") {
        bench::parse_atlas_args(c.args);
      } else {
        tools::parse_tcnsim_args(c.args);
      }
    } catch (const std::invalid_argument& e) {
      what = e.what();
    }
    std::string line = c.front_end;
    for (const auto& a : c.args) line += " '" + a + "'";
    EXPECT_NE(what.find(c.names), std::string::npos)
        << line << " -> " << (what.empty() ? "accepted" : what);
  }
}

TEST(SweepFlags, AcceptedValuesLandInTheirFields) {
  const auto a = parse_bench(
      {"--flows", "100", "--loads", "0.5,0.7", "--seed", "3", "--jobs", "2",
       "--json", "-", "--metrics-out", "m.json", "--fault-grid",
       "none|loss:sw0.p0:0.01", "--traffic-grid", "none|poisson:w:cache:1",
       "--on-failure", "retry", "--retries", "4", "--journal", "j.jsonl",
       "--resume", "r.jsonl"});
  EXPECT_EQ(a.flows, 100u);
  EXPECT_EQ(a.sweep.loads, (std::vector<double>{0.5, 0.7}));
  EXPECT_EQ(a.seed, 3u);
  EXPECT_EQ(a.sweep.jobs, 2u);
  EXPECT_EQ(a.sweep.json, "-");
  EXPECT_EQ(a.metrics_out, "m.json");
  ASSERT_EQ(a.sweep.fault_grid.size(), 2u);
  EXPECT_EQ(a.sweep.fault_grid[1].first, "loss:sw0.p0:0.01");
  ASSERT_EQ(a.sweep.traffic_grid.size(), 2u);
  EXPECT_EQ(a.sweep.on_failure, runner::FailurePolicy::kRetry);
  EXPECT_EQ(a.sweep.retries, 4u);
  EXPECT_EQ(a.sweep.journal, "j.jsonl");
  EXPECT_EQ(a.sweep.resume, "r.jsonl");
  // A repeated flag replaces the earlier value.
  EXPECT_EQ(parse_bench({"--loads", "0.1", "--loads", "0.2"}).sweep.loads,
            (std::vector<double>{0.2}));
}

TEST(SweepFlags, OptionsFollowThePolicyRules) {
  const auto options = [](const Argv& args) {
    runner::JournalData journal;
    return runner::sweep_options(parse_bench(args).sweep, "t", journal);
  };
  EXPECT_EQ(options({}).failure_policy, runner::FailurePolicy::kCancelAll);
  const auto retries = options({"--retries", "2"});
  EXPECT_EQ(retries.failure_policy, runner::FailurePolicy::kRetry);
  EXPECT_EQ(retries.retry.max_attempts, 2u);
  const auto policy_only = options({"--on-failure", "retry"});
  EXPECT_EQ(policy_only.failure_policy, runner::FailurePolicy::kRetry);
  EXPECT_EQ(policy_only.retry.max_attempts,
            runner::RetryPolicy{}.max_attempts);
  EXPECT_EQ(options({"--on-failure", "record_and_continue"}).failure_policy,
            runner::FailurePolicy::kRecordAndContinue);
  const auto jobs = options({"--jobs", "3", "--journal", "j.jsonl"});
  EXPECT_EQ(jobs.jobs, 3u);
  EXPECT_EQ(jobs.journal_out, "j.jsonl");
  EXPECT_EQ(jobs.journal_name, "t");
  EXPECT_EQ(jobs.resume, nullptr);
}

TEST(SweepFlags, ResumeLoadsTheJournalAndExtendsItInPlace) {
  const std::string path = ::testing::TempDir() + "flags_resume.jsonl";
  runner::SweepSpec spec;
  spec.name = "flags";
  spec.base = bench::testbed_base();
  spec.base.num_flows = 20;
  spec.schemes = {{"TCN", core::Scheme::kTcn}};
  spec.loads = {0.5};
  runner::SweepOptions first;
  first.journal_out = path;
  ASSERT_TRUE(runner::run_sweep(spec, first).ok());

  runner::JournalData journal;
  const auto opt = runner::sweep_options(
      parse_bench({"--resume", path}).sweep, "flags", journal);
  EXPECT_EQ(opt.resume, &journal);
  EXPECT_EQ(opt.journal_out, path);  // no --journal: extend in place
  EXPECT_EQ(journal.entries.size(), 1u);
  EXPECT_EQ(runner::run_sweep(spec, opt).restored, 1u);

  const auto elsewhere = runner::sweep_options(
      parse_bench({"--resume", path, "--journal", path + ".2"}).sweep,
      "flags", journal);
  EXPECT_EQ(elsewhere.journal_out, path + ".2");

  try {
    runner::sweep_options(parse_bench({"--resume", path + ".missing"}).sweep,
                          "flags", journal);
    ADD_FAILURE() << "a missing journal was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--resume"), std::string::npos)
        << e.what();
  }
}

TEST(SweepFlags, TcnsimParsesExperimentAndSweepFlagsInOneTable) {
  const auto a = tools::parse_tcnsim_args(
      {"--scheme", "codel", "--loads", "0.5,0.7", "--pias", "--seeds", "1,2",
       "--flows", "50", "--sack", "--jobs", "3"});
  EXPECT_EQ(a.cfg.scheme, core::Scheme::kCodel);
  EXPECT_TRUE(a.cfg.pias);
  EXPECT_TRUE(a.cfg.tcp.sack);
  EXPECT_EQ(a.cfg.num_flows, 50u);
  EXPECT_EQ(a.sweep.loads, (std::vector<double>{0.5, 0.7}));
  EXPECT_EQ(a.seeds, (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(a.sweep.jobs, 3u);
}

TEST(FlagTable, UsagePutsHelpInOneColumn) {
  std::string sink;
  runner::FlagTable table;
  table.push_back({"", "", "section:", {}});
  table.push_back({"--a", "N", "first\nsecond", runner::path_setter(sink)});
  table.push_back({"--a-very-long-flag-name", "VALUE", "help",
                   runner::path_setter(sink)});
  table.push_back({"--switch", "", "no value", {}});
  EXPECT_EQ(runner::flags_usage(table),
            "section:\n"
            "  --a N                       first\n"
            "                              second\n"
            "  --a-very-long-flag-name VALUE\n"
            "                              help\n"
            "  --switch                    no value\n");
}

// A row with an empty metavar is a switch: its setter runs with an empty
// value and the next token is parsed as a flag. A heading matches no token.
TEST(FlagTable, SwitchesTakeNoValueAndHeadingsMatchNoToken) {
  int flips = 0;
  std::string path;
  runner::FlagTable table;
  table.push_back({"", "", "section:", {}});
  table.push_back({"--flip", "", "a switch",
                   [&flips](const std::string& flag, const std::string& v) {
                     EXPECT_EQ(flag, "--flip");
                     EXPECT_EQ(v, "");
                     ++flips;
                   }});
  table.push_back({"--path", "PATH", "a value", runner::path_setter(path)});
  runner::parse_flags(table, {"--flip", "--path", "p", "--flip"});
  EXPECT_EQ(flips, 2);
  EXPECT_EQ(path, "p");
  runner::parse_flags(table, {"--path", "--flip"});  // a value, not a flag
  EXPECT_EQ(path, "--flip");
  EXPECT_EQ(flips, 2);
  EXPECT_THROW(runner::parse_flags(table, {""}), std::invalid_argument);
  EXPECT_THROW(runner::parse_flags(table, {"--flip", "x"}),
               std::invalid_argument);
}

// ------------------------------------------------- flag sets and defaults

// Each front end's rows are exactly the flags it accepted before the table
// existed, and its --help text names every row.
TEST(FrontEnds, AcceptTheSameFlagsAndDefaults) {
  const std::set<std::string> sweep = {"--jobs",    "--json",
                                       "--loads",   "--on-failure",
                                       "--retries", "--journal",
                                       "--resume"};
  const auto with = [&](std::set<std::string> extra) {
    extra.insert(sweep.begin(), sweep.end());
    return extra;
  };

  // tcnsim: its 32 experiment flags, --seeds and the sweep and grid rows,
  // each once; moving the experiment flags onto the table added none.
  tools::TcnsimArgs tcnsim;
  const auto tcnsim_table = tools::tcnsim_flags(tcnsim);
  const std::set<std::string> experiment = {
      "--topology", "--hosts", "--scheme", "--sched", "--rtt-lambda-us",
      "--red-k-bytes", "--load", "--flows", "--services", "--workload",
      "--pias", "--per-flow-connections", "--persistent-connections",
      "--transport", "--sack", "--delayed-ack", "--rto-min-us", "--faults",
      "--traffic", "--check-invariants", "--fail-on-invariant",
      "--wall-budget-ms", "--event-budget", "--sim-time-budget-s",
      "--pending-budget", "--time-limit-s", "--metrics-out", "--trace-out",
      "--sample-interval-us", "--sample-ring", "--series-out", "--seed"};
  ASSERT_EQ(experiment.size(), 32u);
  auto tcnsim_rows = with({"--seeds", "--fault-grid", "--traffic-grid"});
  tcnsim_rows.insert(experiment.begin(), experiment.end());
  EXPECT_EQ(row_names(tcnsim_table), tcnsim_rows);
  EXPECT_EQ(tcnsim_rows.size(), 42u);
  EXPECT_EQ(tcnsim.sweep.jobs, 1u);
  EXPECT_TRUE(tcnsim.sweep.loads.empty());
  // Each flag has one row, and the switches are the rows with no metavar.
  std::size_t named = 0;
  std::set<std::string> switches;
  for (const auto& row : tcnsim_table) {
    if (row.name.empty()) continue;
    ++named;
    if (row.metavar.empty()) switches.insert(row.name);
  }
  EXPECT_EQ(named, 42u);
  EXPECT_EQ(switches,
            (std::set<std::string>{"--pias", "--per-flow-connections",
                                   "--persistent-connections", "--sack",
                                   "--delayed-ack", "--check-invariants",
                                   "--fail-on-invariant"}));
  // The --sched metavar advertises the parameterized rank schedulers.
  const std::string tcnsim_help = runner::flags_usage(tcnsim_table);
  EXPECT_NE(tcnsim_help.find("sp-pifo[:levels]"), std::string::npos);
  EXPECT_NE(tcnsim_help.find("aifo[:window,k]"), std::string::npos);

  bench::Args bench_args;
  const auto bench_table = bench::Args::flags(bench_args);
  EXPECT_EQ(row_names(bench_table),
            with({"--flows", "--seed", "--metrics-out", "--fault-grid",
                  "--traffic-grid"}));
  EXPECT_EQ(bench_args.sweep.jobs, 0u);
  EXPECT_EQ(bench_args.flows, 2000u);
  EXPECT_EQ(bench_args.seed, 1u);
  EXPECT_EQ(bench_args.sweep.loads,
            (std::vector<double>{0.3, 0.5, 0.7, 0.9}));

  bench::AtlasArgs atlas;
  const auto atlas_table = bench::atlas_flags(atlas);
  EXPECT_EQ(row_names(atlas_table),
            with({"--schemes", "--scheds", "--thresholds-us", "--buffers",
                  "--sample-interval-us", "--flows", "--seed"}));
  EXPECT_EQ(atlas.sweep.jobs, 0u);
  EXPECT_EQ(atlas.flows, 500u);
  EXPECT_EQ(atlas.interval_us, 100.0);
  EXPECT_EQ(atlas.sweep.loads, bench::default_atlas_axes().loads);
  const auto parsed = bench::parse_atlas_args({"--loads", "0.4"});
  EXPECT_EQ(parsed.axes.loads, (std::vector<double>{0.4}));

  for (const auto* table : {&tcnsim_table, &bench_table, &atlas_table}) {
    const std::string help = runner::flags_usage(*table);
    for (const auto& name : row_names(*table)) {
      EXPECT_NE(help.find("  " + name + " "), std::string::npos) << name;
    }
  }
}

// ------------------------------------------------------ the real binaries

struct Exit {
  int status = -1;  // exit code; -1 when killed by a signal
  std::string output;
  double ms = 0.0;
};

/// Runs `binary args...` under `timeout 10` through the shell, keeping
/// stdout (`keep_stdout`) or stderr.
Exit run(const std::string& binary, const Argv& args, bool keep_stdout) {
  std::string cmd = "timeout 10 " + binary;
  for (const auto& a : args) cmd += " '" + a + "'";
  cmd += keep_stdout ? " 2>/dev/null" : " 2>&1 >/dev/null";
  const auto t0 = std::chrono::steady_clock::now();
  std::FILE* pipe = popen(cmd.c_str(), "r");
  Exit e;
  if (pipe == nullptr) return e;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, pipe)) > 0) {
    e.output.append(buf, n);
  }
  const int status = pclose(pipe);
  e.ms = std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
             .count();
  if (WIFEXITED(status)) e.status = WEXITSTATUS(status);
  return e;
}

// Each of these was accepted, hung or aborted before the flag table: the
// fig06 ones ran a full sweep, hung (--flows -5) or aborted on an uncaught
// SweepSpec error (--loads ""); the atlas ones printed a cell; the tcnsim
// faults cast NaN/inf into sim::Time or uint64_t, and --services cast
// 4294967297 to one service.
TEST(Binaries, MalformedFlagsExitTwoAtOnceNamingTheFlag) {
  const std::vector<std::pair<std::string, std::vector<Argv>>> cases = {
      {FIG06_BIN,
       {{"--flows", "-5"},
        {"--loads", ""},
        {"--loads", "0.5,abc"},
        {"--jobs", "-1"},
        {"--retries", "2", "--on-failure", "record_and_continue"}}},
      {ATLAS_BIN,
       {{"--buffers", "-1"},
        {"--loads", "nan"},
        {"--thresholds-us", "abc"},
        {"--sample-interval-us", "nan"}}},
      {TCNSIM_BIN,
       {{"--loads", "0.5,,0.7"},
        {"--json", ""},
        {"--faults", "linkdown:sw0.p0:nan:20"},
        {"--faults", "squeeze:sw0.p0:inf:0:10"},
        {"--traffic", "poisson:web:websearch:nan"},
        {"--services", "4294967297"},
        {"--services", "0"}}},
      // micro_core ran --min-time inf forever and --min-time abc as 0.
      {MICRO_CORE_BIN,
       {{"--min-time", "inf"},
        {"--min-time", "abc"},
        {"--min-time", "0"},
        {"--min-time", "-1"},
        {"--json", ""}}},
  };
  for (const auto& [binary, commands] : cases) {
    for (const Argv& args : commands) {
      const Exit e = run(binary, args, /*keep_stdout=*/false);
      EXPECT_EQ(e.status, 2) << binary << " " << args[0] << " " << args[1]
                             << ": " << e.output;
      EXPECT_LT(e.ms, 1000.0) << binary << " " << args[0];
      // The message names the flag (for --faults/--traffic, the clause).
      const std::string& named =
          args[0] == "--retries" ? args[2] : args[0];
      EXPECT_NE(e.output.find(named), std::string::npos)
          << binary << ": " << e.output;
    }
  }
}

// micro_core printed "wrote /dev/full" and exited 0 when the write failed.
TEST(Binaries, MicroCoreFailsWhenTheJsonWriteFails) {
  const Exit e = run(MICRO_CORE_BIN,
                     {"--min-time", "0.001", "--json", "/dev/full"},
                     /*keep_stdout=*/false);
  EXPECT_EQ(e.status, 1) << e.output;
  EXPECT_NE(e.output.find("write failed for '/dev/full'"), std::string::npos)
      << e.output;
}

TEST(Binaries, HelpNamesEveryFlag) {
  const std::vector<std::string> sweep = {"--jobs",   "--json",
                                          "--loads",  "--on-failure",
                                          "--retries", "--journal",
                                          "--resume"};
  const std::vector<std::pair<std::string, std::vector<std::string>>> bins =
      {{TCNSIM_BIN, {"--seeds", "--fault-grid", "--traffic-grid", "--scheme",
                     "--faults", "--traffic", "--seed"}},
       {FIG06_BIN, {"--flows", "--seed", "--metrics-out", "--fault-grid",
                    "--traffic-grid"}},
       {SUITE_BIN, {"--flows", "--seed", "--metrics-out", "--fault-grid",
                    "--traffic-grid", "default BENCH_suite.json"}},
       {ATLAS_BIN, {"--schemes", "--scheds", "--thresholds-us", "--buffers",
                    "--sample-interval-us", "--flows", "--seed"}}};
  for (const auto& [binary, own] : bins) {
    const Exit e = run(binary, {"--help"}, /*keep_stdout=*/true);
    EXPECT_EQ(e.status, 0) << binary;
    for (const auto* names : {&sweep, &own}) {
      for (const auto& name : *names) {
        EXPECT_NE(e.output.find(name), std::string::npos)
            << binary << " --help lacks " << name;
      }
    }
  }
  const Exit micro = run(MICRO_CORE_BIN, {"--help"}, /*keep_stdout=*/true);
  EXPECT_EQ(micro.status, 0);
  for (const char* name : {"--json", "--min-time", "--gate"}) {
    EXPECT_NE(micro.output.find(name), std::string::npos)
        << "micro_core --help lacks " << name;
  }
}

}  // namespace
}  // namespace tcn
