// Deterministic pipeline observability: a low-overhead metrics registry
// (named counters, gauges and histograms with fixed log2 bucketing) plus
// hierarchical stage timers and pipeline trace spans, exported as one
// MetricsSnapshot JSON document (DESIGN.md §5f).
//
// Determinism contract. Counters, gauges and histograms record only
// thread-invariant quantities: parallel stages accumulate into per-chunk
// plain structs (the PR-1 discipline) and record the chunk-order merge
// into the registry once, on the coordinating thread, so the
// counter/gauge/histogram sections of a snapshot are byte-identical at
// every thread count and across reruns of the same input. Stage timings
// and trace spans are wall-clock and therefore excluded from that
// contract; MetricsSnapshot::DeterministicJson() renders only the
// invariant sections (the cross-thread differential in
// tests/metrics_test.cc compares exactly that string).
//
// Overhead budget. Nothing in this header touches a per-pair hot loop:
// instrumented stages observe per-item quantities into shard-local
// Histogram objects (one array increment) and defer every registry access
// to the post-merge epilogue, keeping the measured instrumentation cost
// on bench_linking's streaming section under 2% (asserted in CI).
//
// The registry itself is not thread-safe by design: stages begin/end and
// metrics are recorded on the coordinating thread only. A null registry
// pointer everywhere means "not instrumented" and costs one branch.
#ifndef RULELINK_OBS_METRICS_H_
#define RULELINK_OBS_METRICS_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace rulelink::obs {

// Fixed log2 bucketing: bucket 0 holds the value 0, bucket b >= 1 holds
// values v with floor(log2(v)) == b - 1, i.e. [2^(b-1), 2^b). 65 buckets
// cover the whole uint64 range.
inline constexpr std::size_t kNumHistogramBuckets = 65;

// The bucket index of `value` under the scheme above.
std::size_t Log2Bucket(std::uint64_t value);

// The smallest value bucket `bucket` admits (0, 1, 2, 4, 8, ...).
std::uint64_t BucketLowerBound(std::size_t bucket);

// A log2-bucketed histogram of non-negative integer observations. Plain
// value type so parallel stages can keep one per shard and merge in chunk
// order; merging is associative and commutative, so the merged histogram
// is identical at every chunking.
class Histogram {
 public:
  void Observe(std::uint64_t value) {
    ++buckets_[Log2Bucket(value)];
    ++count_;
    sum_ += value;
    if (count_ == 1 || value < min_) min_ = value;
    if (value > max_) max_ = value;
  }

  void Merge(const Histogram& other);

  // The value at cumulative fraction `q` in [0, 1] (0.5 = p50, 0.999 =
  // p999), linearly interpolated inside the containing log2 bucket and
  // clamped to the observed min/max. 0 when the histogram is empty. The
  // bucketing bounds the relative error by the bucket width (a factor of
  // 2), which is what a latency-percentile report needs; exact quantiles
  // would require retaining every observation.
  double ValueAtQuantile(double q) const;

  std::uint64_t count() const { return count_; }
  std::uint64_t sum() const { return sum_; }
  // min()/max() are meaningful only when count() > 0.
  std::uint64_t min() const { return min_; }
  std::uint64_t max() const { return max_; }
  const std::array<std::uint64_t, kNumHistogramBuckets>& buckets() const {
    return buckets_;
  }

 private:
  std::array<std::uint64_t, kNumHistogramBuckets> buckets_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = 0;
  std::uint64_t max_ = 0;
};

// Accumulated wall-clock of one stage path ("learn/segment",
// "pipeline/cache_build", ...).
struct StageTiming {
  double total_ms = 0.0;
  std::uint64_t calls = 0;
};

// One entry of the pipeline trace: the stages in the order they began,
// with their nesting depth at begin time. The structure (paths, depths,
// order) is deterministic; `millis` is wall-clock.
struct TraceSpan {
  std::string path;
  std::size_t depth = 0;
  double millis = 0.0;
};

// Immutable copy of a registry's state, renderable as JSON.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, Histogram> histograms;
  std::map<std::string, StageTiming> stages;
  std::vector<TraceSpan> trace;
  // The process-wide morsel scheduler's counters at snapshot time
  // (workers, loops, per-worker morsels/busy time — DESIGN.md §5g).
  // Thread-variant by nature: who runs which morsel depends on timing, so
  // this section renders only in the full document, never the
  // deterministic one.
  util::SchedulerStats scheduler;

  // Full document: {"counters": {...}, "gauges": {...},
  // "histograms": {...}, "stages": {...}, "trace": [...],
  // "scheduler": {...}}. Doubles are written with shortest round-trip
  // formatting, histogram buckets as [lower_bound, count] pairs for the
  // non-empty buckets only.
  std::string ToJson(bool include_timings = true) const;

  // The thread-invariant sections only (no stages/trace/scheduler)
  // — byte-identical at every thread count for the same input.
  std::string DeterministicJson() const { return ToJson(false); }

  util::Status WriteJsonFile(const std::string& path,
                             bool include_timings = true) const;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  void AddCounter(std::string_view name, std::uint64_t delta = 1);
  // Last write wins; NaN is normalized to 0 so snapshots stay comparable.
  void SetGauge(std::string_view name, double value);
  void Observe(std::string_view name, std::uint64_t value);
  // Folds a shard-merged histogram into the named one.
  void MergeHistogram(std::string_view name, const Histogram& merged);
  // Accumulates wall-clock into the named stage (one `calls` tick) and
  // appends a trace span at the current nesting depth. StageScope is the
  // usual way in; call this directly for externally-timed stages.
  void RecordStage(std::string_view path, double millis);

  MetricsSnapshot Snapshot() const;

  // RAII stage timer. Null-registry tolerant: every instrumented function
  // takes a MetricsRegistry* that may be null, and a StageScope over a
  // null registry is a no-op, so call sites need no branches.
  class StageScope {
   public:
    StageScope(MetricsRegistry* registry, std::string_view path);
    ~StageScope();
    StageScope(const StageScope&) = delete;
    StageScope& operator=(const StageScope&) = delete;

   private:
    MetricsRegistry* registry_;
    std::string path_;
    std::size_t span_index_ = 0;
    util::Stopwatch timer_;
  };

 private:
  friend class StageScope;

  std::map<std::string, std::uint64_t, std::less<>> counters_;
  std::map<std::string, double, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;
  std::map<std::string, StageTiming, std::less<>> stages_;
  std::vector<TraceSpan> trace_;
  std::size_t open_spans_ = 0;  // nesting depth of live StageScopes
};

}  // namespace rulelink::obs

#endif  // RULELINK_OBS_METRICS_H_
