// Seeded mutation fuzz over every hand-written grammar: the three sweep
// front ends' flag tables (tcnsim's experiment, switch and sweep rows, the
// figure benches and bench/suite, bench/atlas),
// fault::parse_fault_specs/_grid, traffic::parse_traffic_spec/_grid,
// core::parse_sched_spec, and the three file grammars: the tcn-journal-1
// loader (runner::load_journal), replay JSONL (traffic::load_trace) and
// obs::JsonValue::parse.
//
// Property: every input is either accepted or rejected with a
// std::invalid_argument whose message names the flag (or --faults /
// --traffic / --sched for the spec grammars); a file is accepted or
// rejected with its location: `journal '<path>' line N:`, `trace
// <path>:N:` or, for a JSON document, the byte offset. Any other exception
// fails the test, and under ASan/UBSan nothing may crash or hit undefined
// behaviour. Accepted fault and traffic specs carry only finite numbers
// and non-negative times. The seed is fixed and the iteration count
// bounded, so a run is deterministic and takes well under a second.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "atlas.hpp"
#include "bench_util.hpp"
#include "core/cli.hpp"
#include "fault/fault.hpp"
#include "obs/json_value.hpp"
#include "runner/journal.hpp"
#include "tcnsim_args.hpp"
#include "traffic/spec.hpp"
#include "traffic/trace_replay.hpp"

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
    {"--traffic-grid", "none|poisson:web:websearch:1"},
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

  /// One to three mutations of a file's text: a separator or number
  /// mutation as above, or drop, repeat or insert a few bytes.
  std::string mutate_text(std::string s) {
    static const std::string kJsonBytes = "{}[]\",:\\\n -0e.";
    for (std::size_t n = 1 + below(3); n > 0; --n) {
      const std::size_t at = below(s.size() + 1);
      switch (below(4)) {
        case 0:
          s = mutate(std::move(s));
          break;
        case 1:
          s.erase(at, 1 + below(8));
          break;
        case 2:
          s.insert(at, s.substr(at, 1 + below(16)));
          break;
        default:
          s.insert(at, 1, kJsonBytes[below(kJsonBytes.size())]);
          break;
      }
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

// ------------------------------------------------------- file grammars

/// True when `msg` is `head`, a decimal number, then `tail`.
bool located(const std::string& msg, const std::string& head,
             const std::string& tail) {
  if (!msg.starts_with(head)) return false;
  std::size_t i = head.size();
  while (i < msg.size() && std::isdigit(static_cast<unsigned char>(msg[i]))) {
    ++i;
  }
  return i > head.size() && msg.compare(i, tail.size(), tail) == 0;
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream(path, std::ios::binary) << text;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// Feeds `kIterations` mutants of `corpus` to `parse`. A reject must be an
/// `E` whose message `is_located` accepts; any other exception fails.
template <class E>
Tally fuzz_file_grammar(
    std::uint64_t seed, const std::vector<std::string>& corpus,
    const std::function<void(const std::string&)>& parse,
    const std::function<bool(const std::string& text, const std::string&)>&
        is_located) {
  Mutator m(seed);
  Tally tally;
  for (int i = 0; i < kIterations; ++i) {
    const std::string text = m.mutate_text(corpus[m.below(corpus.size())]);
    try {
      parse(text);
      ++tally.accepted;
    } catch (const E& e) {
      ++tally.rejected;
      EXPECT_TRUE(is_located(text, e.what())) << e.what() << "\n" << text;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "unexpected exception: " << e.what() << "\n" << text;
    }
  }
  return tally;
}

// A journal from a 2-cell sweep: one cell collects metrics, one samples
// its queues, so the journal carries both optional run objects.
TEST(FileFuzz, JournalLinesParseOrNameTheFileAndLine) {
  const std::string corpus_path = ::testing::TempDir() + "fuzz_corpus.jsonl";
  std::vector<runner::Job> jobs(2);
  for (runner::Job& job : jobs) {
    job.group = "fuzz";
    job.label = "TCN";
    job.cfg = bench::testbed_base();
    job.cfg.star.num_hosts = 3;
    job.cfg.num_services = 1;
    job.cfg.num_flows = 10;
    job.cfg.load = 0.5;
  }
  jobs[0].cfg.collect_metrics = true;
  jobs[1].cfg.timeseries.interval = 100 * sim::kMicrosecond;
  runner::SweepOptions opt;
  opt.journal_out = corpus_path;
  ASSERT_TRUE(runner::run_jobs(std::move(jobs), opt).ok());
  const std::string journal = read_file(corpus_path);
  ASSERT_NE(journal.find("\"metrics\""), std::string::npos);
  ASSERT_NE(journal.find("\"stability\""), std::string::npos);

  const std::string path = ::testing::TempDir() + "fuzz_journal.jsonl";
  const Tally tally = fuzz_file_grammar<std::invalid_argument>(
      0x5eed'10a1ULL, {journal},
      [&](const std::string& text) {
        write_file(path, text);
        (void)runner::load_journal(path);
      },
      [&](const std::string& text, const std::string& msg) {
        if (text.find_first_not_of('\n') == std::string::npos) {
          return msg == "journal '" + path + "' has no header line";
        }
        return located(msg, "journal '" + path + "' line ", ": ");
      });
  EXPECT_GT(tally.accepted, kIterations / 50);
  EXPECT_GT(tally.rejected, kIterations / 20);
  std::remove(corpus_path.c_str());
  std::remove(path.c_str());
}

TEST(FileFuzz, ReplayLinesParseOrNameTheFileAndLine) {
  const std::string trace =
      "{\"t_s\":0,\"src\":1,\"dst\":0,\"size\":1000}\n"
      "{\"t_s\":0.001,\"src\":2,\"dst\":0,\"size\":20000,\"service\":1}\n"
      "\n"
      "{\"t_s\":0.0025,\"src\":3,\"dst\":1,\"size\":150000,\"dscp\":2}\n";
  const std::string path = ::testing::TempDir() + "fuzz_trace.jsonl";
  const Tally tally = fuzz_file_grammar<std::invalid_argument>(
      0x5eed'7ace5ULL, {trace},
      [&](const std::string& text) {
        write_file(path, text);
        (void)traffic::load_trace(path);
      },
      [&](const std::string&, const std::string& msg) {
        return located(msg, "trace " + path + ":", ": ");
      });
  EXPECT_GT(tally.accepted, kIterations / 50);
  EXPECT_GT(tally.rejected, kIterations / 20);
  std::remove(path.c_str());
}

TEST(FileFuzz, JsonDocumentsParseOrNameTheByteOffset) {
  std::vector<std::filesystem::path> paths;  // sorted: the same corpus order
  for (const auto& entry : std::filesystem::directory_iterator(GOLDEN_DIR)) {
    if (entry.path().extension() == ".json") paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());
  ASSERT_GE(paths.size(), 5u);
  std::vector<std::string> goldens;
  for (const auto& path : paths) goldens.push_back(read_file(path.string()));
  const Tally tally = fuzz_file_grammar<obs::JsonParseError>(
      0x5eed'd0c5ULL, goldens,
      [](const std::string& text) { (void)obs::JsonValue::parse(text); },
      [](const std::string&, const std::string& msg) {
        return located(msg, "JSON parse error at byte ", ": ");
      });
  EXPECT_GT(tally.accepted, kIterations / 50);
  EXPECT_GT(tally.rejected, kIterations / 20);
}

}  // namespace
}  // namespace tcn
