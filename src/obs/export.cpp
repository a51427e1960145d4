#include "obs/export.hpp"

#include <charconv>
#include <iostream>
#include <stdexcept>

namespace tcn::obs {

namespace {

template <typename Int>
void append_int(std::string& line, Int v) {
  char buf[24];
  line.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

void append_field(std::string& line, const char* key, std::uint64_t v) {
  line += ",\"";
  line += key;
  line += "\":";
  append_int(line, v);
}

/// Appends `rec`'s tcn-trace-1 line, without the newline, to `line`.
void append_trace_record(std::string& line, const net::TraceRecord& rec) {
  line += "{\"t\":";
  append_int(line, rec.t);
  line += ",\"ev\":\"";
  line += net::trace_event_name(rec.event);
  line += "\",\"port\":\"";
  append_escaped_json(line, rec.port);
  line += '"';
  append_field(line, "q", rec.queue);
  append_field(line, "flow", rec.flow);
  append_field(line, "seq", rec.seq);
  append_field(line, "size", rec.size);
  append_field(line, "dscp", rec.dscp);
  append_field(line, "qbytes", rec.queue_bytes);
  append_field(line, "pbytes", rec.port_bytes);
  line += ",\"sojourn\":";
  append_int(line, rec.sojourn);
  line += '}';
}

}  // namespace

std::string trace_record_to_json(const net::TraceRecord& rec) {
  std::string line;
  append_trace_record(line, rec);
  return line;
}

JsonlTraceWriter::JsonlTraceWriter(std::ostream& out) : out_(out) {
  out_ << "{\"schema\":\"tcn-trace-1\"}\n";
}

void JsonlTraceWriter::on_event(const net::TraceRecord& rec) {
  line_.clear();
  append_trace_record(line_, rec);
  line_ += '\n';
  out_ << line_;
  ++records_;
}

void write_metrics_object(JsonWriter& w, const MetricsSnapshot& snap) {
  w.key("counters").begin_object();
  for (const auto& c : snap.counters) {
    w.key(c.name).value(c.value);
  }
  w.end_object();
  w.key("gauges").begin_object();
  for (const auto& g : snap.gauges) {
    w.key(g.name).begin_object();
    w.key("last").value(g.last);
    w.key("min").value(g.min);
    w.key("max").value(g.max);
    w.key("sets").value(g.sets);
    w.end_object();
  }
  w.end_object();
  w.key("histograms").begin_object();
  for (const auto& h : snap.histograms) {
    w.key(h.name).begin_object();
    w.key("count").value(h.count);
    w.key("sum").value(h.sum);
    w.key("min").value(h.min);
    w.key("max").value(h.max);
    w.key("mean").value(h.count == 0 ? 0.0
                                     : static_cast<double>(h.sum) /
                                           static_cast<double>(h.count));
    w.key("p50").value(h.p50);
    w.key("p99").value(h.p99);
    w.key("buckets").begin_array();
    for (const auto& [floor, count] : h.buckets) {
      w.begin_array().value(floor).value(count).end_array();
    }
    w.end_array();
    w.end_object();
  }
  w.end_object();
}

std::string metrics_to_json(const MetricsSnapshot& snap, int indent) {
  JsonWriter w(indent);
  w.begin_object();
  w.key("schema").value("tcn-metrics-1");
  write_metrics_object(w, snap);
  w.end_object();
  return w.str();
}

void write_stability_object(JsonWriter& w, const StabilityResult& r) {
  w.key("samples").value(r.samples);
  w.key("oscillation_score").value(r.oscillation_score);
  w.key("sojourn_cv").value(r.sojourn_cv);
  w.key("mark_burstiness").value(r.mark_burstiness);
  w.key("depth_mean_bytes").value(r.depth_mean_bytes);
  w.key("depth_cv").value(r.depth_cv);
  w.key("lag1_autocorr").value(r.lag1_autocorr);
  w.key("bimodality").value(r.bimodality);
  w.key("regime").value(regime_name(r.regime));
}

std::uint64_t write_series_jsonl(std::ostream& out, const TimeSeries& ts) {
  std::uint64_t lines = 0;
  {
    JsonWriter w(0);
    w.begin_object();
    w.key("schema").value("tcn-series-1");
    w.key("interval_ns").value(static_cast<std::uint64_t>(
        ts.config().interval));
    w.key("max_samples").value(static_cast<std::uint64_t>(
        ts.config().max_samples));
    w.key("ticks").value(ts.ticks());
    w.key("channels").value(static_cast<std::uint64_t>(ts.num_channels()));
    w.end_object();
    out << w.str() << '\n';
    ++lines;
  }
  for (const TimeSeries::Channel* ch : ts.sorted_channels()) {
    JsonWriter w(0);
    w.begin_object();
    w.key("channel").value(ch->name());
    // UINT64_MAX means "unbounded" (host NICs); serialize as 0 so readers
    // need no sentinel knowledge.
    w.key("cap_bytes").value(
        ch->cap_bytes() == UINT64_MAX ? 0 : ch->cap_bytes());
    w.key("stability").begin_object();
    write_stability_object(w, ch->analyzer().result(ch->cap_bytes()));
    w.end_object();
    w.key("points").begin_array();
    for (const SeriesPoint& p : ch->points()) {
      w.begin_array()
          .value(static_cast<std::uint64_t>(p.t))
          .value(p.depth_bytes)
          .value(p.depth_packets)
          .value(p.deq_packets)
          .value(p.sojourn_sum_ns)
          .value(p.marks)
          .value(p.tx_bytes)
          .end_array();
    }
    w.end_array();
    w.end_object();
    out << w.str() << '\n';
    ++lines;
  }
  return lines;
}

std::ofstream open_output_file(const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw std::runtime_error("cannot open '" + path + "' for writing");
  }
  return out;
}

void write_text_file(const std::string& path, std::string_view content) {
  if (path == "-") {
    std::cout.write(content.data(),
                    static_cast<std::streamsize>(content.size()));
    std::cout.flush();
    return;
  }
  auto out = open_output_file(path);
  out.write(content.data(),
            static_cast<std::streamsize>(content.size()));
  out.flush();
  if (!out) {
    throw std::runtime_error("write failed for '" + path + "'");
  }
}

}  // namespace tcn::obs
