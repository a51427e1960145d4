// e2e: end-to-end and per-layer benchmark of the simulator over five paper
// workloads. See README.md for the workloads, metrics and how to compare
// two builds.
//
//   e2e --workload NAME [--seed S] [--reps N] [--seconds T] [--trace [0|1]]
//       [--json PATH]
//   e2e --workload all [same flags]          (default --json BENCH_e2e.json)
//   e2e --compare A.json... -- B.json... [--json PATH]
//
// One workload runs single-threaded in this process and prints its metrics,
// then one JSON result object as the last line of standard output. "all"
// runs every workload in a child process of its own, one after another.
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <algorithm>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "measure.hpp"
#include "obs/export.hpp"
#include "obs/json.hpp"
#include "report.hpp"

extern char** environ;

using namespace tcn;
using namespace tcn::e2e;

namespace {

struct Cli {
  std::string workload;
  Options opt;
  std::string json;
  std::vector<std::string> parent_files;
  std::vector<std::string> change_files;
  bool compare = false;
};

[[noreturn]] void usage_error(const std::string& msg) {
  std::fprintf(stderr, "e2e: %s (see --help)\n", msg.c_str());
  std::exit(2);
}

void print_help() {
  std::printf(
      "usage: e2e --workload NAME|all [--seed S] [--reps N] [--seconds T]\n"
      "           [--trace [0|1]] [--json PATH]\n"
      "       e2e --compare A.json... -- B.json... [--json PATH]\n"
      "  --workload   one of:");
  for (const Workload& w : workloads()) {
    std::printf(" %.*s", static_cast<int>(w.name.size()), w.name.data());
  }
  std::printf(
      "\n"
      "               or all (each in its own child process)\n"
      "  --seed S     workload seed (default 1)\n"
      "  --reps N     timed repetitions, at least (default 3)\n"
      "  --seconds T  keep repeating while another repetition fits in T\n"
      "               seconds (default 0: exactly --reps)\n"
      "  --trace      report per-layer metrics from a traced pass instead\n"
      "               of the end-to-end ones; with all, report both\n"
      "  --json PATH  write a tcn-e2e-1 result document (all: default\n"
      "               BENCH_e2e.json)\n"
      "  --compare    judge change runs B against parent runs A, pairwise\n"
      "               in the order given, per workload and end-to-end\n"
      "               metric: improved, unchanged, regressed, unresolved\n");
}

std::uint64_t parse_u64(const std::string& flag, const char* text) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (*text == '\0' || *text == '-' || *end != '\0' || errno != 0) {
    usage_error(flag + ": expected a non-negative integer, got '" + text +
                "'");
  }
  return v;
}

double parse_seconds(const std::string& flag, const char* text) {
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (*text == '\0' || *end != '\0' || !(v >= 0.0)) {
    usage_error(flag + ": expected a non-negative number, got '" + text +
                "'");
  }
  return v;
}

Cli parse(int argc, char** argv) {
  Cli cli;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage_error("missing value for " + flag);
      return argv[++i];
    };
    if (flag == "--help" || flag == "-h") {
      print_help();
      std::exit(0);
    } else if (flag == "--workload") {
      cli.workload = next();
    } else if (flag == "--seed") {
      cli.opt.seed = parse_u64(flag, next());
    } else if (flag == "--reps") {
      cli.opt.min_reps = parse_u64(flag, next());
      if (cli.opt.min_reps == 0) usage_error("--reps: must be >= 1");
    } else if (flag == "--seconds") {
      cli.opt.seconds = parse_seconds(flag, next());
    } else if (flag == "--trace") {
      cli.opt.trace = true;
      if (i + 1 < argc && (std::strcmp(argv[i + 1], "0") == 0 ||
                           std::strcmp(argv[i + 1], "1") == 0)) {
        cli.opt.trace = argv[++i][0] == '1';
      }
    } else if (flag == "--json") {
      cli.json = next();
    } else if (flag == "--compare") {
      cli.compare = true;
      bool change_side = false;
      while (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
        cli.parent_files.push_back(argv[++i]);
      }
      if (i + 1 < argc && std::strcmp(argv[i + 1], "--") == 0) {
        ++i;
        change_side = true;
        while (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
          cli.change_files.push_back(argv[++i]);
        }
      }
      if (!change_side || cli.parent_files.empty() ||
          cli.change_files.empty()) {
        usage_error("--compare needs A.json... -- B.json...");
      }
    } else {
      usage_error("unknown flag " + flag);
    }
  }
  if (!cli.compare && cli.workload.empty()) usage_error("--workload is required");
  if (!cli.compare && cli.workload != "all" &&
      find_workload(cli.workload) == nullptr) {
    usage_error("unknown workload '" + cli.workload + "'");
  }
  return cli;
}

void print_result(const WorkloadResult& r) {
  std::printf("%s (seed %llu): %llu run(s), %llu failed\n",
              r.workload.c_str(), static_cast<unsigned long long>(r.seed),
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (const Metric& m : r.metrics) {
    std::printf("  %-24s %14.6g %s", m.name.c_str(), m.value, m.unit.c_str());
    if (m.samples.size() > 1) {
      std::printf("   (median of %zu)", m.samples.size());
    }
    std::printf("\n");
  }
  if (!r.reference_s.empty()) {
    std::printf("  times are at nominal host speed: reference kernel %.1f ms "
                "(median of %zu), nominal %.1f ms\n",
                1e3 * median(r.reference_s), r.reference_s.size(),
                1e3 * kReferenceNominalS);
  }
  for (const std::string& e : r.errors) {
    std::fprintf(stderr, "e2e: %s: %s\n", r.workload.c_str(), e.c_str());
  }
}

int run_single(const Cli& cli) {
  const WorkloadResult r = run_workload(*find_workload(cli.workload), cli.opt);
  print_result(r);
  if (!cli.json.empty()) obs::write_text_file(cli.json, results_json({r}));
  std::printf("%s\n", result_line(r).c_str());
  return r.correct() ? 0 : 1;
}

/// Run this binary on one workload in a child process and read back the
/// result document it writes. A child that dies without one yields a
/// failed record.
WorkloadResult run_child(const Cli& cli, const Workload& w, bool trace,
                         const std::string& part) {
  const std::vector<std::string> args = {
      "e2e",
      "--workload", std::string(w.name),
      "--seed", std::to_string(cli.opt.seed),
      "--reps", std::to_string(cli.opt.min_reps),
      "--seconds", std::to_string(cli.opt.seconds),
      "--trace", trace ? "1" : "0",
      "--json", part};
  std::vector<char*> argv;
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  // The child's report goes to our stderr; stdout stays the summary.
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, STDERR_FILENO, STDOUT_FILENO);
  std::filesystem::remove(part);
  pid_t pid = 0;
  const int rc = posix_spawn(&pid, "/proc/self/exe", &actions, nullptr,
                             argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  WorkloadResult failed;
  failed.workload = std::string(w.name);
  failed.seed = cli.opt.seed;
  failed.attempted = 1;
  failed.failed = 1;
  if (rc != 0) {
    failed.errors.push_back(std::string("spawn failed: ") + std::strerror(rc));
    return failed;
  }
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  try {
    std::vector<WorkloadResult> got = read_results(part);
    std::filesystem::remove(part);
    if (got.size() != 1) throw std::runtime_error("expected one record");
    return got.front();
  } catch (const std::exception& e) {
    failed.errors.push_back(std::string("child wrote no result: ") + e.what());
    return failed;
  }
}

int run_all(const Cli& cli) {
  const std::string json = cli.json.empty() ? "BENCH_e2e.json" : cli.json;
  std::vector<WorkloadResult> results;
  for (const Workload& w : workloads()) {
    WorkloadResult r = run_child(cli, w, false, json + ".part");
    if (cli.opt.trace) r.merge(run_child(cli, w, true, json + ".part"));
    results.push_back(std::move(r));
  }
  bool ok = true;
  for (const WorkloadResult& r : results) {
    print_result(r);
    const double fail_frac = r.attempted == 0
                                 ? 1.0
                                 : static_cast<double>(r.failed) /
                                       static_cast<double>(r.attempted);
    std::printf("  %-24s %14.6g ratio\n", "fail_frac", fail_frac);
    ok = ok && r.correct();
  }
  obs::write_text_file(json, results_json(results));
  std::printf("wrote %s\n", json.c_str());
  return ok ? 0 : 1;
}

/// Per file, workload -> metric -> value.
using Runs = std::vector<std::map<std::string, std::map<std::string, double>>>;

Runs load_runs(const std::vector<std::string>& files) {
  Runs runs;
  for (const std::string& f : files) {
    auto& by_workload = runs.emplace_back();
    for (const WorkloadResult& r : read_results(f)) {
      for (const Metric& m : r.metrics) by_workload[r.workload][m.name] = m.value;
    }
  }
  return runs;
}

/// The i-th value of each side, for every i where both files of pair i
/// report `metric` on `workload`; a run that failed leaves its pair out.
std::pair<std::vector<double>, std::vector<double>> pairs(
    const Runs& parent, const Runs& change, const std::string& workload,
    std::string_view metric) {
  const auto value = [&](const auto& by_workload) -> const double* {
    const auto w = by_workload.find(workload);
    if (w == by_workload.end()) return nullptr;
    const auto m = w->second.find(std::string(metric));
    return m == w->second.end() ? nullptr : &m->second;
  };
  std::pair<std::vector<double>, std::vector<double>> out;
  for (std::size_t i = 0; i < std::min(parent.size(), change.size()); ++i) {
    const double* a = value(parent[i]);
    const double* b = value(change[i]);
    if (a == nullptr || b == nullptr) continue;
    out.first.push_back(*a);
    out.second.push_back(*b);
  }
  return out;
}

void write_quartiles(obs::JsonWriter& w, const char* key, const Quartiles& q) {
  w.key(key).begin_object();
  w.key("median").value(q.median);
  w.key("q1").value(q.q1);
  w.key("q3").value(q.q3);
  w.end_object();
}

int run_compare(const Cli& cli) {
  const Runs parent = load_runs(cli.parent_files);
  const Runs change = load_runs(cli.change_files);
  obs::JsonWriter w(2);
  w.begin_object();
  w.key("schema").value("tcn-e2e-compare-1");
  w.key("nproc").value(
      static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  w.key("compiler").value(compiler_id());
  w.key("parent_runs").value(static_cast<std::uint64_t>(parent.size()));
  w.key("change_runs").value(static_cast<std::uint64_t>(change.size()));
  w.key("rows").begin_array();
  std::printf("%-22s %-12s %-30s %-30s %8s %6s  %s\n", "workload", "metric",
              "parent median [q1, q3]", "change median [q1, q3]", "diff",
              "wins", "verdict");
  bool regressed = false;
  for (const Workload& wl : workloads()) {
    const std::string name(wl.name);
    for (const MetricDef& def : end_to_end_metrics()) {
      const auto [a, b] = pairs(parent, change, name, def.name);
      if (a.empty()) continue;
      const Comparison c = compare(def, a, b);
      regressed = regressed || c.verdict == Verdict::kRegressed;
      char pa[64];
      char pb[64];
      std::snprintf(pa, sizeof pa, "%.4g [%.4g, %.4g]", c.parent.median,
                    c.parent.q1, c.parent.q3);
      std::snprintf(pb, sizeof pb, "%.4g [%.4g, %.4g]", c.change.median,
                    c.change.q1, c.change.q3);
      std::printf("%-22s %-12.*s %-30s %-30s %+7.2f%% %3zu/%-3zu %.*s (%s)\n",
                  name.c_str(), static_cast<int>(def.name.size()),
                  def.name.data(), pa, pb, 100.0 * c.median_diff, c.wins,
                  c.pairs, static_cast<int>(verdict_name(c.verdict).size()),
                  verdict_name(c.verdict).data(), c.reason.c_str());
      w.begin_object();
      w.key("workload").value(name);
      w.key("metric").value(def.name);
      w.key("unit").value(def.unit);
      w.key("bound").value(def.bound);
      write_quartiles(w, "parent", c.parent);
      write_quartiles(w, "change", c.change);
      w.key("median_diff").value(c.median_diff);
      w.key("within_bound").value(std::abs(c.median_diff) < def.bound);
      w.key("spread").value(c.spread);
      w.key("pairs").value(static_cast<std::uint64_t>(c.pairs));
      w.key("wins").value(static_cast<std::uint64_t>(c.wins));
      w.key("losses").value(static_cast<std::uint64_t>(c.losses));
      w.key("verdict").value(verdict_name(c.verdict));
      w.key("reason").value(c.reason);
      w.end_object();
    }
  }
  w.end_array();
  w.end_object();
  if (!cli.json.empty()) obs::write_text_file(cli.json, w.str() + "\n");
  return regressed ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli = parse(argc, argv);
  try {
    if (cli.compare) return run_compare(cli);
    if (cli.workload == "all") return run_all(cli);
    return run_single(cli);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e: %s\n", e.what());
    return 2;
  }
}
