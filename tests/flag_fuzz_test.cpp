// Seeded mutation fuzz over every hand-written flag and spec grammar: the
// three sweep front ends' flag tables (tcnsim's experiment, switch and
// sweep rows, the figure benches and bench/suite, bench/atlas),
// fault::parse_fault_specs/_grid, traffic::parse_traffic_spec/_grid and
// core::parse_sched_spec.
//
// Property: every input is either accepted or rejected with a
// std::invalid_argument whose message names the flag (or --faults /
// --traffic / --sched for the spec grammars); any other exception fails
// the test, and under ASan/UBSan nothing may crash or hit undefined
// behaviour. Accepted fault and traffic specs carry only finite numbers
// and non-negative times. The seed is fixed and the iteration count
// bounded, so a run is deterministic and takes well under a second.
#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "atlas.hpp"
#include "bench_util.hpp"
#include "core/cli.hpp"
#include "fault/fault.hpp"
#include "tcnsim_args.hpp"
#include "traffic/spec.hpp"

namespace tcn {
namespace {

using Argv = std::vector<std::string>;

// The command lines in .github/workflows/ci.yml, README.md, EXPERIMENTS.md
// and the front ends' header comments, flags only, by front end.
const std::vector<Argv> kTcnsimCorpus = {
    {"--topology", "leafspine", "--flows", "200", "--faults",
     "geloss:leaf*:0.01;linkdown:leaf0-spine0:100:50", "--check-invariants"},
    {"--topology", "leafspine", "--flows", "200", "--sample-interval-us",
     "50", "--sample-ring", "16", "--series-out", "series.jsonl",
     "--check-invariants"},
    {"--flows", "500", "--load", "0.6", "--traffic",
     "poisson:web:websearch:0.7:3;mmpp:batch:datamining:0.3:-:4:0.25:10;"
     "diurnal:1:0.5:1.5",
     "--check-invariants", "--event-budget", "50000000", "--pending-budget",
     "2000000"},
    {"--flows", "150", "--loads", "0.5,0.7", "--jobs", "4",
     "--traffic-grid", "none|poisson:web:websearch:1", "--json",
     "OPENLOOP_j4.json"},
    {"--topology", "leafspine", "--flows", "1000", "--faults",
     "geloss:leaf*:0.01;linkdown:leaf0-spine0:100:50", "--check-invariants"},
    {"--flows", "150", "--loads", "0.5,0.7", "--jobs", "8",
     "--traffic-grid", "none|poisson:web:websearch:1", "--json",
     "grid.json"},
    {"--topology", "leafspine", "--scheme", "tcn", "--sched", "sp-dwrr",
     "--pias", "--load", "0.9", "--flows", "2000"},
    {"--scheme", "tcn", "--sched", "sp-pifo:8", "--flows", "2000"},
    {"--scheme", "tcn", "--sched", "aifo:128,0.1", "--flows", "2000"},
    {"--scheme", "tcn", "--sched", "dwrr", "--flows", "2000", "--loads",
     "0.3,0.5,0.7,0.9", "--seeds", "1,2,3", "--jobs", "4", "--json",
     "BENCH_tcnsim.json"},
    {"--sample-interval-us", "100", "--series-out", "SERIES.jsonl"},
    {"--loads", "0.7,0.9", "--seeds", "1,2,3", "--jobs", "4",
     "--wall-budget-ms", "60000", "--event-budget", "500000000", "--json",
     "sweep.json"},
    {"--on-failure", "cancel_all"},
    {"--on-failure", "record_and_continue"},
    {"--retries", "3"},
    {"--flows", "50000", "--load", "0.8", "--traffic",
     "poisson:web:websearch:0.7:3;mmpp:batch:datamining:0.3:-:4:0.25:10;"
     "diurnal:60:0.5:1.5",
     "--metrics-out", "-"},
    {"--traffic", "replay:flows.jsonl;poisson:bg:cache:1", "--flows",
     "10000"},
    {"--traffic", "poisson:web:websearch:1", "--flows", "0", "--loads",
     "0.9,1.1,1.5", "--on-failure", "record_and_continue", "--json",
     "over.json"},
    {"--workload", "cache", "--flows", "10100000", "--load", "0.8",
     "--time-limit-s", "30000", "--traffic", "poisson:web:cache:1"},
    {"--scheme", "codel", "--sched", "dwrr", "--flows", "500", "--load",
     "0.9", "--sample-interval-us", "100", "--series-out", "SERIES.jsonl",
     "--trace-out", "trace.jsonl"},
};

const std::vector<Argv> kBenchCorpus = {
    {"--flows", "150", "--loads", "0.7", "--jobs", "4", "--json",
     "BENCH_suite.json", "--metrics-out", "BENCH_suite_metrics.json"},
    {"--flows", "150", "--loads", "0.7", "--jobs", "1", "--journal",
     "suite.journal", "--json", "BENCH_resumed.json"},
    {"--flows", "150", "--loads", "0.7", "--jobs", "1", "--resume",
     "suite.journal", "--json", "BENCH_resumed.json"},
    {"--flows", "5000", "--loads", "0.9", "--seed", "7"},
    {"--jobs", "0", "--json", "BENCH_suite.json"},
    {"--jobs", "4", "--json", "BENCH_fig06.json"},
    {"--flows", "150", "--loads", "0.7", "--jobs", "4", "--fault-grid",
     "none|loss:leaf*:0.001|linkdown:leaf0-spine0:100:50", "--on-failure",
     "record_and_continue", "--json", "faults.json"},
    {"--traffic-grid", "none|poisson:web:websearch:1", "--retries", "2"},
};

const std::vector<Argv> kAtlasCorpus = {
    {"--flows", "100", "--jobs", "4", "--thresholds-us", "64,256",
     "--loads", "0.5,0.9", "--buffers", "24000,96000", "--json",
     "ATLAS.json"},
    {"--schemes", "tcn", "--scheds", "dwrr", "--journal", "atlas.journal"},
    {"--resume", "atlas.journal", "--on-failure", "record_and_continue",
     "--sample-interval-us", "100", "--seed", "3"},
    {"--thresholds-us", "64,256", "--loads", "0.5,0.9", "--buffers",
     "24000,96000", "--schemes", "tcn,codel", "--scheds", "dwrr", "--flows",
     "200", "--jobs", "2"},
};

// The spec grammars: the corpus above plus the schedulers the goldens pin.
const std::vector<std::string> kFaultSpecs = {
    "geloss:leaf*:0.01;linkdown:leaf0-spine0:100:50", "loss:leaf*:0.001",
    "linkdown:sw0.p0:5:20", "squeeze:sw0.p0:6000:0:100",
    "geloss:*:0.02:25:1.5:3"};
const std::vector<std::string> kTrafficSpecs = {
    "poisson:web:websearch:0.7:3;mmpp:batch:datamining:0.3:-:4:0.25:10;"
    "diurnal:60:0.5:1.5",
    "replay:flows.jsonl;poisson:bg:cache:1", "poisson:web:cache:1",
    "mmpp:b:hadoop:0.5:12:6:0.1:25"};
const std::vector<std::string> kSchedSpecs = {"sp-dwrr", "sp-pifo:4",
                                              "aifo:4,0", "aifo:128,0.1",
                                              "dwrr"};

const std::vector<std::string> kBadNumbers = {
    "nan", "inf", "-1", "+3", "1e300", "", "0x10", "18446744073709551616"};
const std::string kSeparators = ",;:|";

class Mutator {
 public:
  explicit Mutator(std::uint64_t seed) : rng_(seed) {}

  std::size_t below(std::size_t n) { return n == 0 ? 0 : rng_() % n; }

  /// One mutation inside a string: swap a separator for another, or
  /// replace a number with a hostile one.
  std::string mutate(std::string s) {
    std::vector<std::size_t> seps;
    std::vector<std::pair<std::size_t, std::size_t>> numbers;
    for (std::size_t i = 0; i < s.size(); ++i) {
      if (kSeparators.find(s[i]) != std::string::npos) seps.push_back(i);
      if (std::isdigit(static_cast<unsigned char>(s[i])) != 0) {
        std::size_t end = i;
        while (end < s.size() &&
               (std::isdigit(static_cast<unsigned char>(s[end])) != 0 ||
                s[end] == '.')) {
          ++end;
        }
        numbers.emplace_back(i, end - i);
        i = end - 1;
      }
    }
    if (!seps.empty() && (numbers.empty() || below(2) == 0)) {
      s[seps[below(seps.size())]] = kSeparators[below(kSeparators.size())];
    } else if (!numbers.empty()) {
      const auto [at, len] = numbers[below(numbers.size())];
      s.replace(at, len, kBadNumbers[below(kBadNumbers.size())]);
    } else {
      s = kBadNumbers[below(kBadNumbers.size())];
    }
    return s;
  }

  /// One to three mutations of a token list: drop, duplicate or swap
  /// tokens, or mutate inside one.
  Argv mutate(Argv args) {
    for (std::size_t n = 1 + below(3); n > 0 && !args.empty(); --n) {
      const std::size_t i = below(args.size());
      switch (below(4)) {
        case 0:
          args.erase(args.begin() + static_cast<std::ptrdiff_t>(i));
          break;
        case 1:
          args.insert(args.begin() + static_cast<std::ptrdiff_t>(i), args[i]);
          break;
        case 2:
          std::swap(args[i], args[below(args.size())]);
          break;
        default:
          args[i] = mutate(args[i]);
          break;
      }
    }
    return args;
  }

 private:
  std::mt19937_64 rng_;
};

std::string join(const Argv& args) {
  std::string out;
  for (const auto& a : args) out += " '" + a + "'";
  return out;
}

struct Tally {
  int accepted = 0;
  int rejected = 0;
};

/// Runs `parse`; a reject must name one of `names`.
void check(const std::function<void()>& parse,
           const std::vector<std::string>& names, const std::string& input,
           Tally& tally) {
  try {
    parse();
    ++tally.accepted;
  } catch (const std::invalid_argument& e) {
    ++tally.rejected;
    const std::string msg = e.what();
    bool named = false;
    for (const auto& n : names) {
      named = named || msg.find(n) != std::string::npos;
    }
    EXPECT_TRUE(named) << input << " -> " << msg;
  }
}

/// A front end's reject names a flag token of its input, or the token it
/// did not know.
std::vector<std::string> flag_names(const Argv& args) {
  std::vector<std::string> out;
  for (const auto& a : args) {
    if (a.starts_with("--")) out.push_back(a);
    out.push_back("unknown flag '" + a + "'");
  }
  return out;
}

void expect_finite(const fault::FaultPlan& plan, const std::string& input) {
  for (const auto& f : plan) {
    EXPECT_TRUE(std::isfinite(f.rate) && std::isfinite(f.burst_pkts) &&
                f.start >= 0 && f.duration >= 0)
        << input;
  }
}

void expect_finite(const traffic::TrafficSpec& spec,
                   const std::string& input) {
  for (const auto& t : spec.tenants) {
    EXPECT_TRUE(std::isfinite(t.share) && std::isfinite(t.burst_ratio) &&
                std::isfinite(t.duty) && std::isfinite(t.dwell_ms))
        << input;
  }
  EXPECT_TRUE(std::isfinite(spec.diurnal.period_s) &&
              std::isfinite(spec.diurnal.min_factor) &&
              std::isfinite(spec.diurnal.peak_factor))
      << input;
}

constexpr int kIterations = 1500;

TEST(FlagFuzz, FrontEndTablesAcceptOrNameTheFlag) {
  Mutator m(0x5eed'f1a9ULL);
  struct FrontEnd {
    const std::vector<Argv>* corpus;
    std::function<void(const Argv&)> parse;
  };
  const std::vector<FrontEnd> front_ends = {
      {&kTcnsimCorpus, [](const Argv& a) { tools::parse_tcnsim_args(a); }},
      {&kBenchCorpus,
       [](const Argv& a) {
         bench::Args args;
         runner::parse_flags(bench::Args::flags(args), a);
       }},
      {&kAtlasCorpus, [](const Argv& a) { bench::parse_atlas_args(a); }},
  };
  for (const auto& fe : front_ends) {
    Tally tally;
    for (const auto& args : *fe.corpus) {
      check([&] { fe.parse(args); }, {}, join(args), tally);
    }
    EXPECT_EQ(tally.rejected, 0) << "the unmutated corpus must parse";
    for (int i = 0; i < kIterations; ++i) {
      const Argv args = m.mutate((*fe.corpus)[m.below(fe.corpus->size())]);
      check([&] { fe.parse(args); }, flag_names(args), join(args), tally);
    }
    // Neither side is vacuous.
    EXPECT_GT(tally.accepted, kIterations / 50);
    EXPECT_GT(tally.rejected, kIterations / 50);
  }
}

TEST(FlagFuzz, SpecGrammarsAcceptOrNameTheirFlag) {
  Mutator m(0x5eed'5bec5ULL);
  Tally faults;
  Tally traffic;
  Tally sched;
  for (int i = 0; i < kIterations; ++i) {
    // A spec, or a two-cell grid of specs, with one to three mutations.
    const auto pick = [&](const std::vector<std::string>& corpus) {
      std::string s = corpus[m.below(corpus.size())];
      const bool grid = m.below(2) == 0;
      if (grid) s = "none|" + s;
      for (std::size_t n = 1 + m.below(3); n > 0; --n) s = m.mutate(s);
      return std::pair{s, grid};
    };
    const auto fault_case = pick(kFaultSpecs);
    const std::string& f = fault_case.first;
    const bool f_grid = fault_case.second;
    check(
        [&] {
          if (f_grid) {
            for (const auto& cell : fault::parse_fault_grid(f)) {
              expect_finite(cell.second, f);
            }
          } else {
            expect_finite(fault::parse_fault_specs(f), f);
          }
        },
        {"--faults", "--fault-grid"}, f, faults);
    const auto traffic_case = pick(kTrafficSpecs);
    const std::string& t = traffic_case.first;
    const bool t_grid = traffic_case.second;
    check(
        [&] {
          if (t_grid) {
            for (const auto& cell : traffic::parse_traffic_grid(t)) {
              expect_finite(cell.second, t);
            }
          } else {
            expect_finite(traffic::parse_traffic_spec(t), t);
          }
        },
        {"--traffic"}, t, traffic);
    std::string s = kSchedSpecs[m.below(kSchedSpecs.size())];
    for (std::size_t n = 1 + m.below(2); n > 0; --n) s = m.mutate(s);
    check(
        [&] {
          core::SchedConfig cfg;
          core::parse_sched_spec(s, cfg);
        },
        {"--sched"}, s, sched);
  }
  for (const Tally* t : {&faults, &traffic, &sched}) {
    EXPECT_GT(t->accepted, 0);
    EXPECT_GT(t->rejected, kIterations / 20);
  }
}

}  // namespace
}  // namespace tcn
