#include "runner/journal.hpp"

#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <map>
#include <optional>
#include <stdexcept>
#include <type_traits>

#include "obs/json.hpp"
#include "obs/json_value.hpp"
#include "runner/results.hpp"

namespace tcn::runner {
namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

class Fnv1a {
 public:
  void bytes(const void* data, std::size_t n) noexcept {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      hash_ ^= p[i];
      hash_ *= kFnvPrime;
    }
  }
  void u64(std::uint64_t v) noexcept { bytes(&v, sizeof v); }
  void f64(double v) noexcept {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void str(std::string_view s) noexcept {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  /// Each value as a double when it is one, else widened to 64 bits
  /// (integers, bools and enums).
  template <typename... Ts>
  void nums(Ts... vs) noexcept {
    const auto one = [this](auto v) {
      if constexpr (std::is_floating_point_v<decltype(v)>) {
        f64(v);
      } else {
        u64(static_cast<std::uint64_t>(v));
      }
    };
    (one(vs), ...);
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = kFnvOffset;
};

[[noreturn]] void corrupt(const std::string& path, std::size_t line_no,
                          const std::string& why) {
  throw std::invalid_argument("journal '" + path + "' line " +
                              std::to_string(line_no) + ": " + why);
}

std::string read_whole_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) {
    throw std::runtime_error("cannot open journal '" + path + "': " +
                             std::strerror(errno));
  }
  std::string out;
  char buf[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
  const bool err = std::ferror(f) != 0;
  std::fclose(f);
  if (err) {
    throw std::runtime_error("read error on journal '" + path + "'");
  }
  return out;
}

std::uint64_t parse_hex_u64(const std::string& s) {
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 16);
  if (s.empty() || errno != 0 || end != s.c_str() + s.size()) {
    throw std::invalid_argument("bad spec_hash '" + s + "'");
  }
  return v;
}

obs::MetricsSnapshot parse_metrics(const obs::JsonValue& m) {
  obs::MetricsSnapshot snap;
  for (const auto& [name, v] : m.at("counters").as_object()) {
    snap.counters.push_back({name, v.as_u64()});
  }
  for (const auto& [name, g] : m.at("gauges").as_object()) {
    snap.gauges.push_back({name, g.at("last").as_double(),
                           g.at("min").as_double(), g.at("max").as_double(),
                           g.at("sets").as_u64()});
  }
  for (const auto& [name, h] : m.at("histograms").as_object()) {
    obs::MetricsSnapshot::HistogramValue hv;
    hv.name = name;
    hv.count = h.at("count").as_u64();
    hv.sum = h.at("sum").as_u64();
    hv.min = h.at("min").as_u64();
    hv.max = h.at("max").as_u64();
    // "mean" is recomputed from sum/count at serialization time; skip it.
    hv.p50 = h.at("p50").as_u64();
    hv.p99 = h.at("p99").as_u64();
    for (const auto& pair : h.at("buckets").as_array()) {
      const auto& fc = pair.as_array();
      if (fc.size() != 2) throw obs::JsonParseError("bad histogram bucket");
      hv.buckets.emplace_back(fc[0].as_u64(), fc[1].as_u64());
    }
    snap.histograms.push_back(std::move(hv));
  }
  return snap;
}

/// Inverse of results.cpp write_run_object for the fields that are results,
/// not config: the config is regenerated by the resuming sweep and only
/// validated (group/label) against what the journal recorded.
RunRecord parse_run_record(const obs::JsonValue& line) {
  const obs::JsonValue& r = line.at("run");
  RunRecord rec;
  rec.job.index = static_cast<std::size_t>(r.at("index").as_u64());
  rec.job.group = r.at("group").as_string();
  rec.job.label = r.at("label").as_string();
  rec.job.fault_label = r.at("faults").as_string();
  if (const obs::JsonValue* t = r.find("traffic")) {
    rec.job.traffic_label = t->as_string();
  }
  rec.ok = r.at("ok").as_bool();
  rec.skipped = r.at("skipped").as_bool();
  rec.error = r.at("error").as_string();
  rec.error_kind = error_kind_from_name(r.at("error_kind").as_string());
  rec.attempts = r.at("attempts").as_u64();
  if (const obs::JsonValue* pm = r.find("postmortem")) {
    rec.postmortem = pm->as_string();
  }

  const obs::JsonValue& fct = r.at("fct");
  auto& s = rec.report.summary;
  s.count = static_cast<std::size_t>(fct.at("count").as_u64());
  s.avg_all_us = fct.at("avg_all_us").as_double();
  s.small_count = static_cast<std::size_t>(fct.at("small_count").as_u64());
  s.avg_small_us = fct.at("avg_small_us").as_double();
  s.p99_small_us = fct.at("p99_small_us").as_double();
  s.large_count = static_cast<std::size_t>(fct.at("large_count").as_u64());
  s.avg_large_us = fct.at("avg_large_us").as_double();
  s.timeouts = fct.at("timeouts").as_u64();
  s.small_timeouts = fct.at("small_timeouts").as_u64();

  const obs::JsonValue& c = r.at("counters");
  rec.report.switch_drops = c.at("switch_drops").as_u64();
  rec.report.switch_marks = c.at("switch_marks").as_u64();
  rec.report.fault_drops = c.at("fault_drops").as_u64();
  rec.report.sched_drops = c.at("sched_drops").as_u64();
  rec.report.pool_fresh = c.at("pool_fresh").as_u64();
  rec.report.pool_reused = c.at("pool_reused").as_u64();
  rec.report.pool_recycled = c.at("pool_recycled").as_u64();
  rec.report.sim_peak_pending = c.at("sim_peak_pending").as_u64();
  rec.report.sim_calendar_resizes = c.at("sim_calendar_resizes").as_u64();

  if (const obs::JsonValue* tc = r.find("traffic_counters")) {
    rec.report.traffic_open_loop = true;
    rec.report.traffic_arrivals = tc->at("arrivals").as_u64();
    rec.report.traffic_replayed = tc->at("replayed").as_u64();
    rec.report.traffic_active_peak = tc->at("active_peak").as_u64();
    rec.report.traffic_offered_bytes = tc->at("offered_bytes").as_u64();
    rec.report.traffic_achieved_bytes = tc->at("achieved_bytes").as_u64();
    rec.report.slab_fresh = tc->at("slab_fresh").as_u64();
    rec.report.slab_reused = tc->at("slab_reused").as_u64();
    rec.report.slab_recycled = tc->at("slab_recycled").as_u64();
  }

  // Stability reduction: written only for sampled runs.
  if (const obs::JsonValue* st = r.find("stability")) {
    rec.report.stability_analyzed = true;
    rec.report.series_channels = st->at("channels").as_u64();
    rec.report.series_ticks = st->at("ticks").as_u64();
    rec.report.stability_channel = st->at("channel").as_string();
    auto& sb = rec.report.stability;
    sb.samples = st->at("samples").as_u64();
    sb.oscillation_score = st->at("oscillation_score").as_double();
    sb.sojourn_cv = st->at("sojourn_cv").as_double();
    sb.mark_burstiness = st->at("mark_burstiness").as_double();
    sb.depth_mean_bytes = st->at("depth_mean_bytes").as_double();
    sb.depth_cv = st->at("depth_cv").as_double();
    sb.lag1_autocorr = st->at("lag1_autocorr").as_double();
    sb.bimodality = st->at("bimodality").as_double();
    const std::string& regime = st->at("regime").as_string();
    const std::optional<obs::Regime> parsed = obs::regime_from_name(regime);
    if (!parsed) {
      throw std::invalid_argument("stability.regime: unknown regime '" +
                                  regime + "'");
    }
    sb.regime = *parsed;
  }

  rec.report.flows_started =
      static_cast<std::size_t>(r.at("flows_started").as_u64());
  rec.report.flows_completed =
      static_cast<std::size_t>(r.at("flows_completed").as_u64());
  rec.report.events = r.at("events").as_u64();
  // "sim_end_s" is a derived double; the raw clock rides next to the run
  // object on the journal line.
  rec.report.sim_end = line.at("sim_end_ns").as_i64();
  rec.wall_ms = r.at("wall_ms").as_double();
  rec.events_per_sec = r.at("events_per_sec").as_double();
  if (const obs::JsonValue* m = r.find("metrics")) {
    rec.report.metrics_collected = true;
    rec.report.metrics = parse_metrics(*m);
  }
  rec.restored = true;
  return rec;
}

/// Every FctExperiment field that changes a run's record or outcome. Output
/// paths stay out, except that --metrics-out turns collection on.
void hash_config(Fnv1a& h, const core::FctExperiment& c) {
  h.nums(c.topology, c.scheme, c.load, c.num_flows, c.seed, c.num_services);
  h.u64(c.service_workloads.size());
  for (const workload::Kind k : c.service_workloads) h.nums(k);
  h.nums(c.num_service_queues, c.pias, c.pias_threshold,
         c.persistent_connections);

  const core::SchemeParams& p = c.params;
  h.nums(p.rtt_lambda, p.red_threshold_bytes, p.codel_target,
         p.codel_interval, p.pie_target, p.pie_update, p.dq_thresh, p.ewma_w,
         p.tcn_tmin, p.tcn_tmax, p.tcn_pmax, p.seed);
  h.u64(p.oracle_thresholds.size());
  for (const std::uint64_t t : p.oracle_thresholds) h.u64(t);

  const core::SchedConfig& s = c.sched;
  h.nums(s.kind, s.num_queues, s.num_sp, s.quantum, s.mq_ecn_beta, s.rank,
         s.sp_pifo_levels, s.aifo_window, s.aifo_k);

  const transport::TcpConfig& t = c.tcp;
  h.nums(t.mss, t.init_cwnd_pkts, t.rto_min, t.rto_init, t.rto_max,
         t.max_rto_backoff, t.cc, t.dctcp_g, t.dupack_threshold,
         t.max_cwnd_bytes, t.sack, t.delayed_ack, t.delayed_ack_timeout);

  const topo::StarConfig& star = c.star;
  h.nums(star.num_hosts, star.link_rate_bps, star.num_queues,
         star.buffer_bytes, star.host_delay, star.link_prop,
         star.switch_rate_fraction, star.host_buffer_bytes);
  h.u64(star.host_rates.size());
  for (const std::uint64_t r : star.host_rates) h.u64(r);
  const topo::LeafSpineConfig& ls = c.leaf_spine;
  h.nums(ls.num_leaves, ls.num_spines, ls.hosts_per_leaf, ls.link_rate_bps,
         ls.num_queues, ls.buffer_bytes, ls.host_delay, ls.link_prop,
         ls.host_buffer_bytes);

  h.u64(c.faults.size());
  for (const fault::FaultSpec& f : c.faults) {
    h.nums(f.kind);
    h.str(f.target);
    h.nums(f.start, f.duration, f.rate, f.burst_pkts, f.buffer_bytes);
  }

  const traffic::TrafficSpec& tr = c.traffic;
  h.u64(tr.tenants.size());
  for (const traffic::TenantSpec& ten : tr.tenants) {
    h.str(ten.name);
    h.nums(ten.workload, ten.share, ten.dscp, ten.arrival, ten.burst_ratio,
           ten.duty, ten.dwell_ms);
  }
  h.nums(tr.diurnal.period_s, tr.diurnal.min_factor, tr.diurnal.peak_factor);
  h.str(tr.replay_path);

  h.nums(c.check_invariants, c.flight_recorder_depth, c.fail_on_invariant,
         c.collect_metrics || !c.metrics_out.empty(), c.timeseries.interval,
         c.timeseries.max_samples, c.time_limit, c.wall_budget_ms,
         c.event_budget, c.sim_time_budget, c.pending_event_budget);
}

}  // namespace

std::uint64_t jobs_digest(const std::vector<Job>& jobs) {
  Fnv1a h;
  h.u64(jobs.size());
  for (const Job& j : jobs) {
    h.str(j.group);
    h.str(j.label);
    h.str(j.fault_label);
    h.str(j.traffic_label);
    hash_config(h, j.cfg);
  }
  return h.value();
}

JournalData load_journal(const std::string& path) {
  const std::string text = read_whole_file(path);
  JournalData data;
  data.path = path;

  // Walk the file line by line, remembering each line's byte offset so a
  // torn tail can be truncated away on resume.
  std::map<std::size_t, RunRecord> by_index;
  std::size_t pos = 0;
  std::size_t line_no = 0;
  bool saw_header = false;
  while (pos < text.size()) {
    const std::size_t line_start = pos;
    std::size_t eol = text.find('\n', pos);
    const bool has_newline = eol != std::string::npos;
    if (!has_newline) eol = text.size();
    const std::string_view ln(text.data() + line_start, eol - line_start);
    pos = has_newline ? eol + 1 : text.size();
    ++line_no;
    if (ln.empty()) continue;

    // Is there any non-whitespace content after this line? If not, a line
    // that does not parse is a torn tail (the process died mid-append),
    // which is tolerated. Anywhere else it is corruption, and so is a line
    // that parses but has a missing or mistyped field, even as the tail.
    const bool is_tail =
        text.find_first_not_of(" \t\r\n", pos) == std::string::npos;
    obs::JsonValue doc;
    bool parsed = false;
    try {
      doc = obs::JsonValue::parse(ln);
      parsed = true;
      if (!saw_header) {
        const std::string& schema = doc.at("schema").as_string();
        if (schema != kJournalSchema) {
          throw std::invalid_argument("unsupported schema '" + schema + "'");
        }
        data.name = doc.at("name").as_string();
        data.spec_hash = parse_hex_u64(doc.at("spec_hash").as_string());
        data.total_jobs =
            static_cast<std::size_t>(doc.at("total_jobs").as_u64());
        saw_header = true;
      } else {
        const auto index = static_cast<std::size_t>(doc.at("index").as_u64());
        RunRecord rec = parse_run_record(doc);
        rec.job.index = index;
        by_index[index] = std::move(rec);  // duplicate index: last wins
      }
    } catch (const obs::JsonParseError& e) {
      if (is_tail && !parsed) {
        data.torn_tail = true;
        data.valid_bytes = line_start;
        if (!saw_header) {
          corrupt(path, line_no, std::string("torn header: ") + e.what());
        }
        break;
      }
      corrupt(path, line_no, e.what());
    } catch (const std::invalid_argument& e) {
      // An unsupported schema, a bad spec_hash or an unknown error-kind or
      // regime wire name: a complete line with a bad value, corrupt even as
      // the tail.
      corrupt(path, line_no, e.what());
    }
    data.valid_bytes = pos;
  }
  if (!saw_header) {
    throw std::invalid_argument("journal '" + path + "' has no header line");
  }
  data.entries.reserve(by_index.size());
  for (auto& [index, rec] : by_index) {
    JournalEntry e;
    e.index = index;
    e.record = std::move(rec);
    data.entries.push_back(std::move(e));
  }
  return data;
}

JournalWriter::JournalWriter(const std::string& path, const std::string& name,
                             std::uint64_t spec_hash, std::size_t total_jobs)
    : path_(path) {
  file_ = std::fopen(path.c_str(), "wb");
  if (!file_) {
    throw std::runtime_error("cannot open journal '" + path +
                             "' for writing: " + std::strerror(errno));
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(spec_hash));
  obs::JsonWriter w(0);
  w.begin_object();
  w.key("schema").value(kJournalSchema);
  w.key("name").value(name);
  w.key("spec_hash").value(hex);
  w.key("total_jobs").value(total_jobs);
  w.end_object();
  write_line(w.str());
}

JournalWriter::JournalWriter(const std::string& path, std::size_t valid_bytes)
    : path_(path) {
  // Drop any torn tail before extending the file in place.
  if (::truncate(path.c_str(), static_cast<off_t>(valid_bytes)) != 0) {
    throw std::runtime_error("cannot truncate journal '" + path +
                             "': " + std::strerror(errno));
  }
  file_ = std::fopen(path.c_str(), "ab");
  if (!file_) {
    throw std::runtime_error("cannot open journal '" + path +
                             "' for appending: " + std::strerror(errno));
  }
}

JournalWriter::~JournalWriter() {
  if (file_) std::fclose(file_);
}

void JournalWriter::append(const RunRecord& rec) {
  obs::JsonWriter w(0);
  w.begin_object();
  w.key("index").value(rec.job.index);
  w.key("sim_end_ns").value(rec.report.sim_end);
  w.key("run");
  write_run_object(w, rec, /*include_timing=*/true);
  w.end_object();
  write_line(w.str());
  ++records_;
}

void JournalWriter::write_line(const std::string& line) {
  const std::size_t n = std::fwrite(line.data(), 1, line.size(), file_);
  const bool nl = std::fputc('\n', file_) != EOF;
  // Flush libc buffers and force the record to stable storage: the sweep
  // only counts a job as durably done once its journal line is.
  if (n != line.size() || !nl || std::fflush(file_) != 0 ||
      ::fsync(::fileno(file_)) != 0) {
    throw std::runtime_error("write failed on journal '" + path_ + "'");
  }
}

}  // namespace tcn::runner
