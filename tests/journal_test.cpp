// Tests for journaled resume (src/runner/journal): the obs::JsonValue
// parser underneath it, jobs_digest stability, journal write -> load round
// trips, torn-tail tolerance, corruption rejection, and the headline
// crash-resilience guarantee -- a sweep killed mid-run and resumed from its
// journal produces a tcn-bench-1 document byte-identical to an
// uninterrupted run.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "obs/json_value.hpp"
#include "runner/journal.hpp"
#include "runner/results.hpp"
#include "runner/sweep.hpp"
#include "sim/time.hpp"
#include "tcnsim_args.hpp"
#include "topo/network.hpp"

namespace tcn {
namespace {

using obs::JsonValue;

// ----------------------------------------------------------- JSON parser ----

TEST(JsonValue, ParsesScalarsExactly) {
  EXPECT_TRUE(JsonValue::parse("null").is_null());
  EXPECT_EQ(JsonValue::parse("true").as_bool(), true);
  EXPECT_EQ(JsonValue::parse("false").as_bool(), false);
  // Integers never round-trip through a double.
  EXPECT_EQ(JsonValue::parse("18446744073709551615").as_u64(),
            18446744073709551615ULL);
  EXPECT_EQ(JsonValue::parse("-9223372036854775808").as_i64(),
            std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(JsonValue::parse("0.5").as_double(), 0.5);
  EXPECT_EQ(JsonValue::parse("1e3").as_double(), 1000.0);
  EXPECT_EQ(JsonValue::parse("\"a\\\"b\\nc\"").as_string(), "a\"b\nc");
}

TEST(JsonValue, PreservesObjectKeyOrder) {
  const auto doc = JsonValue::parse(R"({"z":1,"a":[2,3],"m":{"k":null}})");
  const auto& obj = doc.as_object();
  ASSERT_EQ(obj.size(), 3u);
  EXPECT_EQ(obj[0].first, "z");
  EXPECT_EQ(obj[1].first, "a");
  EXPECT_EQ(obj[2].first, "m");
  EXPECT_EQ(doc.at("a").as_array()[1].as_u64(), 3u);
  EXPECT_EQ(doc.find("missing"), nullptr);
  EXPECT_THROW((void)doc.at("missing"), obs::JsonParseError);
}

TEST(JsonValue, RejectsMalformedInput) {
  EXPECT_THROW(JsonValue::parse(""), obs::JsonParseError);
  EXPECT_THROW(JsonValue::parse("{"), obs::JsonParseError);
  EXPECT_THROW(JsonValue::parse("{\"a\":1,}"), obs::JsonParseError);
  EXPECT_THROW(JsonValue::parse("[1 2]"), obs::JsonParseError);
  EXPECT_THROW(JsonValue::parse("{} trailing"), obs::JsonParseError);
  EXPECT_THROW(JsonValue::parse("\"unterminated"), obs::JsonParseError);
  EXPECT_THROW((void)JsonValue::parse("1").as_string(), obs::JsonParseError);
  EXPECT_THROW((void)JsonValue::parse("-1").as_u64(), obs::JsonParseError);
}

/// The message of the JsonParseError `text` raises, or "" when it parses.
std::string parse_error(const std::string& text) {
  try {
    (void)JsonValue::parse(text);
  } catch (const obs::JsonParseError& e) {
    return e.what();
  }
  return "";
}

TEST(JsonValue, BoundsNestingDepth) {
  // Seven levels is the deepest the writers emit; far more still parses.
  EXPECT_EQ(JsonValue::parse(std::string(64, '[') + std::string(64, ']'))
                .as_array()
                .size(),
            1u);
  EXPECT_NO_THROW((void)JsonValue::parse(R"({"a":[{"b":[[1,2]]}]})"));
  // Past the limit: an error naming the byte offset, not a stack overflow.
  const std::string deep = parse_error(std::string(100'000, '['));
  EXPECT_NE(deep.find("at byte 64:"), std::string::npos) << deep;
  EXPECT_NE(deep.find("nesting"), std::string::npos) << deep;
  // Objects count toward the same depth.
  const auto objects = [](int depth) {
    std::string doc;
    for (int i = 0; i < depth; ++i) doc += R"({"k":)";
    return doc + "1" + std::string(static_cast<std::size_t>(depth), '}');
  };
  EXPECT_EQ(parse_error(objects(64)), "");
  EXPECT_NE(parse_error(objects(65)).find("nesting"), std::string::npos);
}

TEST(JsonValue, RejectsNumbersBeyondDoubleRange) {
  // The writer emits non-finite doubles as null, so an infinite number is
  // never a round trip.
  const std::string inf = parse_error(R"({"t_s":1e999})");
  EXPECT_NE(inf.find("at byte 7:"), std::string::npos) << inf;
  EXPECT_NE(parse_error("-1e999"), "");
  EXPECT_NE(parse_error("[1e400]"), "");
  EXPECT_EQ(JsonValue::parse("1e308").as_double(), 1e308);
  EXPECT_EQ(JsonValue::parse("1e-400").as_double(), 0.0);  // underflow is 0
  // An integer past 64 bits still falls back to a (finite) double.
  EXPECT_EQ(JsonValue::parse("99999999999999999999").as_double(), 1e20);
}

// ------------------------------------------------------------- fixtures ----

core::FctExperiment small_cfg() {
  core::FctExperiment cfg;
  cfg.scheme = core::Scheme::kTcn;
  cfg.params.rtt_lambda = 250 * sim::kMicrosecond;
  cfg.params.red_threshold_bytes = 32'000;
  cfg.sched.kind = core::SchedKind::kDwrr;
  cfg.load = 0.4;
  cfg.num_flows = 40;
  cfg.num_services = 2;
  cfg.service_workloads = {workload::Kind::kCache};
  cfg.star.num_hosts = 5;
  cfg.star.host_delay = topo::star_host_delay_for_rtt(
      250 * sim::kMicrosecond, cfg.star.link_prop);
  cfg.seed = 7;
  return cfg;
}

runner::SweepSpec small_spec() {
  runner::SweepSpec spec;
  spec.name = "unit";
  spec.base = small_cfg();
  spec.schemes = {{"TCN", core::Scheme::kTcn},
                  {"RED-queue", core::Scheme::kRedPerQueue}};
  spec.loads = {0.4, 0.6};
  return spec;
}

std::string temp_path(const char* name) {
  return ::testing::TempDir() + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void spit(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
}

/// Keep the header plus the first `keep` record lines (simulated crash).
void truncate_to_records(const std::string& path, std::size_t keep) {
  const std::string text = slurp(path);
  std::size_t pos = 0;
  for (std::size_t line = 0; line <= keep; ++line) {
    pos = text.find('\n', pos);
    ASSERT_NE(pos, std::string::npos);
    ++pos;
  }
  spit(path, text.substr(0, pos));
}

// ----------------------------------------------------------- jobs digest ----

TEST(Journal, JobsDigestIsStableAndSensitive) {
  const auto jobs = small_spec().expand();
  EXPECT_EQ(runner::jobs_digest(jobs), runner::jobs_digest(jobs));

  auto reordered = small_spec();
  reordered.loads = {0.6, 0.4};  // same cells, different order
  EXPECT_NE(runner::jobs_digest(reordered.expand()),
            runner::jobs_digest(jobs));

  auto changed = small_spec();
  changed.base.seed = 8;
  EXPECT_NE(runner::jobs_digest(changed.expand()), runner::jobs_digest(jobs));

  auto faulted = small_spec();
  faulted.faults = {{"none", {}}};
  EXPECT_NE(runner::jobs_digest(faulted.expand()), runner::jobs_digest(jobs));

  // Every tcnsim flag that changes a run changes the digest, so --resume of
  // a journal that another configuration wrote is rejected: resumed with
  // --transport ecnstar, a DCTCP sweep's journal used to restore the DCTCP
  // results. The sweep rows change the job list instead, and output paths
  // change nothing.
  using Argv = std::vector<std::string>;
  const auto digest = [](const Argv& args) {
    runner::Job job;
    job.cfg = tools::parse_tcnsim_args(args).cfg;
    return runner::jobs_digest({job});
  };
  // One non-default value per flag. --persistent-connections is the star's
  // default, so it is varied on the leaf-spine.
  const std::map<std::string, Argv> hashed_values = {
      {"--topology", {"leafspine"}},
      {"--hosts", {"5"}},
      {"--scheme", {"red"}},
      {"--sched", {"wfq"}},
      {"--rtt-lambda-us", {"100"}},
      {"--red-k-bytes", {"1000"}},
      {"--load", {"0.5"}},
      {"--flows", {"20"}},
      {"--services", {"2"}},
      {"--workload", {"cache"}},
      {"--pias", {}},
      {"--traffic", {"poisson:web:websearch:1"}},
      {"--time-limit-s", {"10"}},
      {"--per-flow-connections", {}},
      {"--persistent-connections", {}},
      {"--transport", {"ecnstar"}},
      {"--sack", {}},
      {"--delayed-ack", {}},
      {"--rto-min-us", {"5000"}},
      {"--faults", {"loss:sw0.p0:0.01"}},
      {"--check-invariants", {}},
      {"--fail-on-invariant", {}},
      {"--wall-budget-ms", {"1000"}},
      {"--event-budget", {"1000"}},
      {"--sim-time-budget-s", {"1"}},
      {"--pending-budget", {"1000"}},
      {"--metrics-out", {"m.json"}},
      {"--sample-interval-us", {"100"}},
      {"--sample-ring", {"16"}},
      {"--seed", {"2"}},
  };
  const std::map<std::string, Argv> output_paths = {
      {"--trace-out", {"t.jsonl"}},
      {"--series-out", {"s.jsonl"}},
  };
  const std::set<std::string> sweep_rows = {
      "--jobs",    "--json",  "--on-failure", "--journal",      "--resume",
      "--loads",   "--seeds", "--fault-grid", "--traffic-grid",
  };
  tools::TcnsimArgs table_args;
  for (const runner::Flag& f : tools::tcnsim_flags(table_args)) {
    if (f.name.empty() || sweep_rows.count(f.name) != 0) continue;
    const bool hashed = hashed_values.count(f.name) != 0;
    ASSERT_TRUE(hashed || output_paths.count(f.name) != 0)
        << f.name << " has no digest case";
    const Argv base = f.name == "--persistent-connections"
                          ? Argv{"--topology", "leafspine"}
                          : Argv{};
    Argv args = base;
    args.push_back(f.name);
    const Argv& value =
        hashed ? hashed_values.at(f.name) : output_paths.at(f.name);
    args.insert(args.end(), value.begin(), value.end());
    if (hashed) {
      EXPECT_NE(digest(args), digest(base)) << f.name;
    } else {
      EXPECT_EQ(digest(args), digest(base)) << f.name;
    }
  }
}

// ----------------------------------------------------- write/load cycles ----

TEST(Journal, WriteThenLoadRoundTrips) {
  const std::string path = temp_path("journal_roundtrip.jsonl");
  const auto spec = small_spec();

  runner::SweepOptions opt;
  opt.journal_out = path;
  opt.journal_name = spec.name;
  const auto res = runner::run_sweep(spec, opt);
  ASSERT_TRUE(res.ok());

  const auto data = runner::load_journal(path);
  EXPECT_EQ(data.name, "unit");
  EXPECT_EQ(data.total_jobs, 4u);
  EXPECT_EQ(data.spec_hash, runner::jobs_digest(spec.expand()));
  EXPECT_FALSE(data.torn_tail);
  EXPECT_EQ(data.valid_bytes, slurp(path).size());
  ASSERT_EQ(data.entries.size(), 4u);
  for (std::size_t i = 0; i < data.entries.size(); ++i) {
    const auto& e = data.entries[i];
    EXPECT_EQ(e.index, i);  // de-duplicated ascending
    EXPECT_TRUE(e.record.ok);
    EXPECT_TRUE(e.record.restored);
    EXPECT_EQ(e.record.report.events, res.runs[i].report.events);
    EXPECT_EQ(e.record.report.sim_end, res.runs[i].report.sim_end);
    EXPECT_EQ(e.record.report.summary.avg_all_us,
              res.runs[i].report.summary.avg_all_us);
    EXPECT_EQ(e.record.job.group, "unit");
    EXPECT_EQ(e.record.job.label, res.runs[i].job.label);
  }
  std::remove(path.c_str());
}

TEST(Journal, ResumeReproducesUninterruptedRunByteForByte) {
  const std::string path = temp_path("journal_resume.jsonl");
  const auto spec = small_spec();

  // Reference: uninterrupted, no journal.
  const auto ref = runner::run_sweep(spec, {});
  ASSERT_TRUE(ref.ok());
  const auto ref_json = runner::to_json(ref, "unit", /*include_timing=*/false);

  // "Crashed" run: journal every record, then chop the file down to the
  // first two records as if the process had been killed after job 1.
  {
    runner::SweepOptions opt;
    opt.journal_out = path;
    opt.journal_name = spec.name;
    ASSERT_TRUE(runner::run_sweep(spec, opt).ok());
  }
  truncate_to_records(path, 2);

  // Resume in place (journal_out == resume path) on several workers.
  auto data = runner::load_journal(path);
  ASSERT_EQ(data.entries.size(), 2u);
  runner::SweepOptions opt;
  opt.jobs = 4;
  opt.journal_out = path;
  opt.resume = &data;
  const auto res = runner::run_sweep(spec, opt);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.restored, 2u);
  EXPECT_EQ(res.completed, 4u);
  EXPECT_EQ(runner::to_json(res, "unit", /*include_timing=*/false), ref_json);

  // The extended journal is now complete: resuming again restores all four.
  auto again = runner::load_journal(path);
  ASSERT_EQ(again.entries.size(), 4u);
  runner::SweepOptions opt2;
  opt2.resume = &again;
  const auto res2 = runner::run_sweep(spec, opt2);
  EXPECT_EQ(res2.restored, 4u);
  EXPECT_EQ(runner::to_json(res2, "unit", /*include_timing=*/false), ref_json);
  std::remove(path.c_str());
}

TEST(Journal, FreshJournalWrittenDuringResumeIsSelfComplete) {
  const std::string a = temp_path("journal_old.jsonl");
  const std::string b = temp_path("journal_new.jsonl");
  const auto spec = small_spec();
  {
    runner::SweepOptions opt;
    opt.journal_out = a;
    opt.journal_name = spec.name;
    ASSERT_TRUE(runner::run_sweep(spec, opt).ok());
  }
  truncate_to_records(a, 1);

  auto data = runner::load_journal(a);
  runner::SweepOptions opt;
  opt.journal_out = b;  // different path: restored records are re-appended
  opt.journal_name = spec.name;
  opt.resume = &data;
  ASSERT_TRUE(runner::run_sweep(spec, opt).ok());

  const auto fresh = runner::load_journal(b);
  EXPECT_EQ(fresh.entries.size(), 4u);
  std::remove(a.c_str());
  std::remove(b.c_str());
}

TEST(Journal, FailedRunsAreReExecutedOnResume) {
  // Only ok records are journaled; a deterministic failure re-runs on
  // resume and the aggregate still matches the uninterrupted run.
  const std::string path = temp_path("journal_failures.jsonl");
  auto spec = small_spec();
  spec.faults = {{"none", {}},
                 {"loss:no-such-port:0.01",
                  fault::parse_fault_specs("loss:no-such-port:0.01")}};

  runner::SweepOptions base;
  base.failure_policy = runner::FailurePolicy::kRecordAndContinue;
  const auto ref = runner::run_sweep(spec, base);
  EXPECT_EQ(ref.failed, 4u);

  auto opt = base;
  opt.journal_out = path;
  opt.journal_name = spec.name;
  runner::run_sweep(spec, opt);
  auto data = runner::load_journal(path);
  EXPECT_EQ(data.entries.size(), 4u);  // the four ok cells only

  auto resumed = base;
  resumed.resume = &data;
  const auto res = runner::run_sweep(spec, resumed);
  EXPECT_EQ(res.restored, 4u);
  EXPECT_EQ(res.failed, 4u);
  EXPECT_EQ(runner::to_json(res, "unit", /*include_timing=*/false),
            runner::to_json(ref, "unit", /*include_timing=*/false));
  std::remove(path.c_str());
}

// ------------------------------------------------- corruption tolerance ----

TEST(Journal, TornFinalLineIsDropped) {
  const std::string path = temp_path("journal_torn.jsonl");
  const auto spec = small_spec();
  runner::SweepOptions opt;
  opt.journal_out = path;
  opt.journal_name = spec.name;
  ASSERT_TRUE(runner::run_sweep(spec, opt).ok());

  const std::string full = slurp(path);
  // Simulate kill -9 mid-write: cut the last record line in half.
  const auto last_line = full.rfind('\n', full.size() - 2) + 1;
  const auto cut = last_line + (full.size() - 1 - last_line) / 2;
  spit(path, full.substr(0, cut));

  const auto data = runner::load_journal(path);
  EXPECT_TRUE(data.torn_tail);
  EXPECT_EQ(data.valid_bytes, last_line);
  EXPECT_EQ(data.entries.size(), 3u);

  // Resuming in place truncates the torn tail and completes the journal.
  runner::SweepOptions ropt;
  ropt.journal_out = path;
  ropt.resume = &data;
  ASSERT_TRUE(runner::run_sweep(spec, ropt).ok());
  const auto healed = runner::load_journal(path);
  EXPECT_FALSE(healed.torn_tail);
  EXPECT_EQ(healed.entries.size(), 4u);
  std::remove(path.c_str());
}

TEST(Journal, CorruptionBeforeTheTailThrows) {
  const std::string path = temp_path("journal_corrupt.jsonl");
  const auto spec = small_spec();
  runner::SweepOptions opt;
  opt.journal_out = path;
  opt.journal_name = spec.name;
  ASSERT_TRUE(runner::run_sweep(spec, opt).ok());

  // Rejected content is an invalid argument (exit 2); a file that cannot
  // be read is a runtime error (exit 1).
  auto text = slurp(path);
  text[text.find("\"index\"")] = '#';  // clobber the first record line
  spit(path, text);
  EXPECT_THROW(runner::load_journal(path), std::invalid_argument);

  spit(path, "not a journal\n");
  EXPECT_THROW(runner::load_journal(path), std::invalid_argument);
  EXPECT_THROW(runner::load_journal(temp_path("no_such_journal.jsonl")),
               std::runtime_error);
  std::remove(path.c_str());
}

TEST(Journal, DeeplyNestedLineBeforeTheTailIsCorrupt) {
  const std::string path = temp_path("journal_deep.jsonl");
  const auto spec = small_spec();
  runner::SweepOptions opt;
  opt.journal_out = path;
  opt.journal_name = spec.name;
  ASSERT_TRUE(runner::run_sweep(spec, opt).ok());

  // A 100,000-'[' line after the header, with the records still behind it.
  std::string text = slurp(path);
  text.insert(text.find('\n') + 1, std::string(100'000, '[') + "\n");
  spit(path, text);
  try {
    (void)runner::load_journal(path);
    ADD_FAILURE() << "a journal with a 100,000-deep line loaded";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find("line 2:"), std::string::npos) << what;
    EXPECT_NE(what.find("nesting"), std::string::npos) << what;
  }
  std::remove(path.c_str());
}

TEST(Journal, UnknownStabilityRegimeIsCorrupt) {
  const std::string path = temp_path("journal_regime.jsonl");
  auto spec = small_spec();
  spec.base.timeseries.interval = 100 * sim::kMicrosecond;
  runner::SweepOptions opt;
  opt.journal_out = path;
  opt.journal_name = spec.name;
  ASSERT_TRUE(runner::run_sweep(spec, opt).ok());

  // Rename the first record's regime (line 2, after the header) to a name
  // no regime has. The line stays complete JSON, so it is not a torn tail.
  std::string text = slurp(path);
  const std::string key = "\"regime\":\"";
  const auto at = text.find(key);
  ASSERT_NE(at, std::string::npos);
  ASSERT_LT(at, text.find('\n', text.find('\n') + 1));
  const auto value = at + key.size();
  text.replace(value, text.find('"', value) - value, "garbage");
  spit(path, text);

  try {
    (void)runner::load_journal(path);
    ADD_FAILURE() << "a journal with regime \"garbage\" loaded";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 2:"), std::string::npos) << what;
    EXPECT_NE(what.find("stability.regime"), std::string::npos) << what;
    EXPECT_NE(what.find("'garbage'"), std::string::npos) << what;
  }
  std::remove(path.c_str());
}

/// `text` without its `"key":<number>` members (and a comma beside each),
/// from byte `from` on.
std::string strip_key(std::string text, const std::string& key,
                      std::size_t from = 0) {
  const std::string member = "\"" + key + "\":";
  for (auto at = text.find(member, from); at != std::string::npos;
       at = text.find(member, at)) {
    auto end = text.find_first_not_of("0123456789", at + member.size());
    if (text[end] == ',') {
      ++end;
    } else if (text[at - 1] == ',') {
      --at;
    }
    text.erase(at, end - at);
  }
  return text;
}

/// The byte offset of the last line of `text`, which ends in a newline.
std::size_t last_line_start(const std::string& text) {
  return text.rfind('\n', text.size() - 2) + 1;
}

TEST(Journal, CompleteTailLineWithABadFieldIsCorrupt) {
  const std::string path = temp_path("journal_bad_tail.jsonl");
  const auto spec = small_spec();
  runner::SweepOptions opt;
  opt.journal_out = path;
  opt.journal_name = spec.name;
  ASSERT_TRUE(runner::run_sweep(spec, opt).ok());

  // The last line parses, so no crash tore it: a mistyped counter there is
  // corrupt, as it is mid-file, not a torn tail to drop and re-run.
  std::string text = slurp(path);
  const std::string key = "\"switch_drops\":";
  const auto value = text.find(key, last_line_start(text)) + key.size();
  text.replace(value, text.find(',', value) - value, "\"33\"");
  spit(path, text);
  try {
    const auto data = runner::load_journal(path);
    ADD_FAILURE() << "loaded, torn_tail=" << data.torn_tail;
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 5:"), std::string::npos) << what;
  }
  std::remove(path.c_str());
}

// A journal written before sched_drops, sim_peak_pending and
// sim_calendar_resizes existed resumes with each at 0 and every other field
// as written. switch_marks is as old as the format, so a line without it is
// corrupt, mid-file or as the last line.
TEST(Journal, OldJournalWithoutNewerCountersResumes) {
  const std::string path = temp_path("journal_old_format.jsonl");
  const auto spec = small_spec();
  runner::SweepOptions opt;
  opt.journal_out = path;
  opt.journal_name = spec.name;
  ASSERT_TRUE(runner::run_sweep(spec, opt).ok());
  const std::string full = slurp(path);
  const auto resume = [&](const std::string& text) {
    spit(path, text);
    auto data = runner::load_journal(path);
    runner::SweepOptions ropt;
    ropt.resume = &data;
    return runner::run_sweep(spec, ropt);
  };

  auto current = resume(full);
  std::string old_text = full;
  for (const char* key :
       {"sched_drops", "sim_peak_pending", "sim_calendar_resizes"}) {
    old_text = strip_key(old_text, key);
    EXPECT_EQ(old_text.find(key), std::string::npos) << key;
  }
  const auto old = resume(old_text);
  EXPECT_EQ(old.restored, 4u);
  ASSERT_EQ(old.runs.size(), current.runs.size());
  for (std::size_t i = 0; i < old.runs.size(); ++i) {
    auto& now = current.runs[i].report;
    EXPECT_GT(now.sim_peak_pending, 0u);  // so the 0 below is a default
    EXPECT_EQ(old.runs[i].report.sched_drops, 0u);
    EXPECT_EQ(old.runs[i].report.sim_peak_pending, 0u);
    EXPECT_EQ(old.runs[i].report.sim_calendar_resizes, 0u);
    now.sched_drops = now.sim_peak_pending = now.sim_calendar_resizes = 0;
    EXPECT_EQ(old.runs[i].wall_ms, current.runs[i].wall_ms);
    EXPECT_EQ(old.runs[i].events_per_sec, current.runs[i].events_per_sec);
  }
  EXPECT_EQ(runner::to_json(old, "unit", /*include_timing=*/false),
            runner::to_json(current, "unit", /*include_timing=*/false));

  for (const std::size_t from : {std::size_t{0}, last_line_start(full)}) {
    spit(path, strip_key(full, "switch_marks", from));
    EXPECT_THROW(runner::load_journal(path), std::invalid_argument) << from;
  }
  std::remove(path.c_str());
}

TEST(Journal, DuplicateIndexKeepsTheLastRecord) {
  const std::string path = temp_path("journal_dup.jsonl");
  const auto jobs = small_spec().expand();
  runner::RunRecord rec;
  rec.job = jobs[0];
  rec.ok = true;
  rec.attempts = 1;
  rec.report.events = 100;
  {
    runner::JournalWriter w(path, "unit", runner::jobs_digest(jobs),
                            jobs.size());
    w.append(rec);
    rec.report.events = 200;  // fresher result for the same index
    w.append(rec);
    EXPECT_EQ(w.records_written(), 2u);
  }
  const auto data = runner::load_journal(path);
  ASSERT_EQ(data.entries.size(), 1u);
  EXPECT_EQ(data.entries[0].record.report.events, 200u);
  std::remove(path.c_str());
}

// ---------------------------------------------------- resume validation ----

TEST(Journal, ResumeRejectsAJournalFromADifferentSweep) {
  const std::string path = temp_path("journal_mismatch.jsonl");
  const auto spec = small_spec();
  runner::SweepOptions opt;
  opt.journal_out = path;
  opt.journal_name = spec.name;
  ASSERT_TRUE(runner::run_sweep(spec, opt).ok());
  auto data = runner::load_journal(path);

  auto other = small_spec();
  other.loads = {0.5, 0.7};  // different grid, same size
  runner::SweepOptions ropt;
  ropt.resume = &data;
  EXPECT_THROW(runner::run_sweep(other, ropt), std::invalid_argument);

  auto bigger = small_spec();
  bigger.seeds = {7, 8};  // different job count
  EXPECT_THROW(runner::run_sweep(bigger, ropt), std::invalid_argument);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace tcn
