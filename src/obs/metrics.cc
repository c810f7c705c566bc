#include "obs/metrics.h"

#include <fstream>
#include <limits>

#include "util/string_util.h"

namespace rulelink::obs {
namespace {

// Appends a JSON string literal. Metric names are library-chosen ASCII
// identifiers, but escape defensively so arbitrary names stay valid JSON.
void AppendJsonString(std::string_view s, std::string* out) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void AppendSchedulerWorkerJson(const util::SchedulerWorkerStats& w,
                               std::string* out) {
  *out += "{\"morsels\": " + std::to_string(w.morsels) +
          ", \"busy_micros\": " + std::to_string(w.busy_micros) + "}";
}

void AppendHistogramJson(const Histogram& h, std::string* out) {
  *out += "{\"count\": " + std::to_string(h.count());
  *out += ", \"sum\": " + std::to_string(h.sum());
  if (h.count() > 0) {
    *out += ", \"min\": " + std::to_string(h.min());
    *out += ", \"max\": " + std::to_string(h.max());
  }
  *out += ", \"buckets\": [";
  bool first = true;
  for (std::size_t b = 0; b < kNumHistogramBuckets; ++b) {
    if (h.buckets()[b] == 0) continue;
    if (!first) *out += ", ";
    first = false;
    *out += "[" + std::to_string(BucketLowerBound(b)) + ", " +
            std::to_string(h.buckets()[b]) + "]";
  }
  *out += "]}";
}

}  // namespace

std::size_t Log2Bucket(std::uint64_t value) {
  if (value == 0) return 0;
  std::size_t bucket = 1;
  while (value >>= 1) ++bucket;
  return bucket;  // floor(log2(v)) + 1, at most 64
}

std::uint64_t BucketLowerBound(std::size_t bucket) {
  if (bucket == 0) return 0;
  return std::uint64_t{1} << (bucket - 1);
}

void Histogram::Merge(const Histogram& other) {
  if (other.count_ == 0) return;
  for (std::size_t b = 0; b < kNumHistogramBuckets; ++b) {
    buckets_[b] += other.buckets_[b];
  }
  if (count_ == 0 || other.min_ < min_) min_ = other.min_;
  if (other.max_ > max_) max_ = other.max_;
  count_ += other.count_;
  sum_ += other.sum_;
}

double Histogram::ValueAtQuantile(double q) const {
  if (count_ == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank of the target observation (1-based), then walk the buckets to the
  // one containing it and interpolate linearly inside its value range.
  const double target = q * static_cast<double>(count_);
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b < kNumHistogramBuckets; ++b) {
    if (buckets_[b] == 0) continue;
    const std::uint64_t prev = cumulative;
    cumulative += buckets_[b];
    if (static_cast<double>(cumulative) < target) continue;
    const double lo = static_cast<double>(BucketLowerBound(b));
    const double hi = b + 1 < kNumHistogramBuckets
                          ? static_cast<double>(BucketLowerBound(b + 1))
                          : lo * 2.0;
    const double within =
        (target - static_cast<double>(prev)) /
        static_cast<double>(buckets_[b]);
    double value = lo + (hi - lo) * within;
    if (value < static_cast<double>(min_)) value = static_cast<double>(min_);
    if (value > static_cast<double>(max_)) value = static_cast<double>(max_);
    return value;
  }
  return static_cast<double>(max_);
}

void MetricsRegistry::AddCounter(std::string_view name, std::uint64_t delta) {
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    counters_.emplace(std::string(name), delta);
  } else {
    it->second += delta;
  }
}

void MetricsRegistry::SetGauge(std::string_view name, double value) {
  if (value != value) value = 0.0;  // NaN would break snapshot comparisons
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    gauges_.emplace(std::string(name), value);
  } else {
    it->second = value;
  }
}

void MetricsRegistry::Observe(std::string_view name, std::uint64_t value) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), Histogram()).first;
  }
  it->second.Observe(value);
}

void MetricsRegistry::MergeHistogram(std::string_view name,
                                     const Histogram& merged) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    histograms_.emplace(std::string(name), merged);
  } else {
    it->second.Merge(merged);
  }
}

void MetricsRegistry::RecordStage(std::string_view path, double millis) {
  auto it = stages_.find(path);
  if (it == stages_.end()) {
    it = stages_.emplace(std::string(path), StageTiming()).first;
  }
  it->second.total_ms += millis;
  ++it->second.calls;
  trace_.push_back(TraceSpan{std::string(path), open_spans_, millis});
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snapshot;
  snapshot.counters.insert(counters_.begin(), counters_.end());
  snapshot.gauges.insert(gauges_.begin(), gauges_.end());
  snapshot.histograms.insert(histograms_.begin(), histograms_.end());
  snapshot.stages.insert(stages_.begin(), stages_.end());
  snapshot.trace = trace_;
  snapshot.scheduler = util::GlobalSchedulerStats();
  return snapshot;
}

MetricsRegistry::StageScope::StageScope(MetricsRegistry* registry,
                                        std::string_view path)
    : registry_(registry), path_(path) {
  if (registry_ == nullptr) return;
  // Reserve the trace slot now so spans appear in begin order (a parent
  // stage precedes the stages it contains) even though the duration is
  // only known at destruction.
  span_index_ = registry_->trace_.size();
  registry_->trace_.push_back(
      TraceSpan{path_, registry_->open_spans_, 0.0});
  ++registry_->open_spans_;
}

MetricsRegistry::StageScope::~StageScope() {
  if (registry_ == nullptr) return;
  const double millis = timer_.ElapsedMillis();
  --registry_->open_spans_;
  registry_->trace_[span_index_].millis = millis;
  auto it = registry_->stages_.find(path_);
  if (it == registry_->stages_.end()) {
    it = registry_->stages_.emplace(path_, StageTiming()).first;
  }
  it->second.total_ms += millis;
  ++it->second.calls;
}

std::string MetricsSnapshot::ToJson(bool include_timings) const {
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : counters) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    ";
    AppendJsonString(name, &out);
    out += ": " + std::to_string(value);
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : gauges) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    ";
    AppendJsonString(name, &out);
    out += ": " + util::FormatDoubleRoundTrip(value);
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, histogram] : histograms) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    ";
    AppendJsonString(name, &out);
    out += ": ";
    AppendHistogramJson(histogram, &out);
  }
  out += first ? "}" : "\n  }";

  if (include_timings) {
    out += ",\n  \"stages\": {";
    first = true;
    for (const auto& [path, timing] : stages) {
      out += first ? "\n" : ",\n";
      first = false;
      out += "    ";
      AppendJsonString(path, &out);
      out += ": {\"total_ms\": " + util::FormatDoubleRoundTrip(timing.total_ms) +
             ", \"calls\": " + std::to_string(timing.calls) + "}";
    }
    out += first ? "},\n" : "\n  },\n";

    out += "  \"trace\": [";
    first = true;
    for (const TraceSpan& span : trace) {
      out += first ? "\n" : ",\n";
      first = false;
      out += "    {\"path\": ";
      AppendJsonString(span.path, &out);
      out += ", \"depth\": " + std::to_string(span.depth) +
             ", \"ms\": " + util::FormatDoubleRoundTrip(span.millis) + "}";
    }
    out += first ? "]" : "\n  ]";

    // Scheduler counters are timing-dependent (who claimed which morsel,
    // busy time), which is exactly why they live here and not in
    // DeterministicJson.
    out += ",\n  \"scheduler\": {\"workers\": " +
           std::to_string(scheduler.workers) +
           ", \"pinned\": " + (scheduler.pinned ? "true" : "false") +
           ", \"loops\": " + std::to_string(scheduler.loops) +
           ", \"uptime_micros\": " + std::to_string(scheduler.uptime_micros) +
           ", \"utilization\": " +
           util::FormatDoubleRoundTrip(scheduler.Utilization());
    out += ",\n    \"external\": ";
    AppendSchedulerWorkerJson(scheduler.external, &out);
    out += ",\n    \"per_worker\": [";
    first = true;
    for (const util::SchedulerWorkerStats& w : scheduler.per_worker) {
      out += first ? "\n      " : ",\n      ";
      first = false;
      AppendSchedulerWorkerJson(w, &out);
    }
    out += first ? "]" : "\n    ]";
    out += "\n  }";
  }
  out += "\n}\n";
  return out;
}

util::Status MetricsSnapshot::WriteJsonFile(const std::string& path,
                                            bool include_timings) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) return util::NotFoundError("cannot open for writing: " + path);
  out << ToJson(include_timings);
  if (!out) return util::DataLossError("write failed: " + path);
  return util::OkStatus();
}

}  // namespace rulelink::obs
