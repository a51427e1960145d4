// Streaming exporters for the observability layer.
//
// Two schemas, both documented in DESIGN.md §11:
//
//  * tcn-trace-1 -- JSONL: one header line {"schema":"tcn-trace-1"} followed
//    by one compact JSON object per port event, in emission order. All
//    fields are integers except the event/port names, so the byte stream is
//    platform- and thread-count-independent for a deterministic run.
//  * tcn-metrics-1 -- a single JSON document with the name-sorted counters,
//    gauges and histograms of a MetricsSnapshot.
//
// write_metrics_object() emits just the three metric sections into an open
// object, so the same serialization is shared by the standalone snapshot
// file, the runner's per-run "metrics" records, and the sweep-level merged
// document -- guaranteeing the byte-equality the determinism CI job diffs.
#pragma once

#include <fstream>
#include <ostream>
#include <string>
#include <string_view>

#include "net/trace.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"

namespace tcn::obs {

/// PortObserver streaming every event as one JSONL line (schema
/// tcn-trace-1). The header line is written on construction; records flush
/// with the stream's own buffering.
class JsonlTraceWriter final : public net::PortObserver {
 public:
  explicit JsonlTraceWriter(std::ostream& out);
  void on_event(const net::TraceRecord& rec) override;

  [[nodiscard]] std::uint64_t records_written() const noexcept {
    return records_;
  }

 private:
  std::ostream& out_;
  std::uint64_t records_ = 0;
  std::string line_;  // formatted in place: allocates only to grow
};

/// Format one trace record as its compact tcn-trace-1 JSON line (no
/// trailing newline). Exposed so tests can pin the exact byte layout.
std::string trace_record_to_json(const net::TraceRecord& rec);

/// Emit "counters"/"gauges"/"histograms" keys into the writer's currently
/// open object.
void write_metrics_object(JsonWriter& w, const MetricsSnapshot& snap);

/// Standalone tcn-metrics-1 document.
std::string metrics_to_json(const MetricsSnapshot& snap, int indent = 2);

/// Emit a StabilityResult's fields into the writer's currently open object.
/// Shared by the per-run tcn-bench-1 "stability" record, the tcn-atlas-1
/// cells and the tcn-series-1 channel lines, so all three serialize the
/// reduction identically (and byte-identically for any --jobs).
void write_stability_object(JsonWriter& w, const StabilityResult& r);

/// Write a tcn-series-1 JSONL dump: one header line carrying the sampling
/// config, then one compact line per channel in name-sorted order with the
/// channel's stability reduction and its retained ring of SeriesPoints.
/// Returns the number of lines written (header included).
std::uint64_t write_series_jsonl(std::ostream& out, const TimeSeries& ts);

/// Write `content` to `path` ("-" = stdout), throwing std::runtime_error
/// with the path in the message if the file cannot be opened or written
/// (e.g. missing directory) -- the error the CLI surfaces for unwritable
/// --metrics-out / --trace-out arguments.
void write_text_file(const std::string& path, std::string_view content);

/// Open `path` for writing, throwing std::runtime_error (with the path in
/// the message) if it cannot be created. Used to fail unwritable
/// --trace-out paths before the simulation spends any time running.
std::ofstream open_output_file(const std::string& path);

}  // namespace tcn::obs
