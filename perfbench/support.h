// Helpers shared by the benchmark's workloads, kept apart from workload
// code so support_test.cc can pin them down:
//   * exact percentiles over every recorded sample (never a histogram);
//   * best-of-N timings over repetitions of the same work;
//   * the in-memory span recorder and the self-time arithmetic behind the
//     per-layer numbers and trace.coverage;
//   * the serve_ingest delta schedule, a pure function of the seed, and the
//     answered-query pacing that makes every run publish the same deltas at
//     the same points of the stream whatever its speed.
#ifndef RULELINK_PERFBENCH_SUPPORT_H_
#define RULELINK_PERFBENCH_SUPPORT_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace rulelink::perfbench {

// --- Percentiles ---------------------------------------------------------

// Exact q-quantile of `samples` by linear interpolation between the two
// closest ranks (q = 0 is the minimum, q = 1 the maximum; q is clamped to
// [0, 1]). Returns nullopt when fewer than `min_samples` samples exist, and
// always for none, so no caller can publish a p99 drawn from a handful.
std::optional<double> Quantile(std::vector<double> samples, double q,
                               std::size_t min_samples = 1);

// Median of a non-empty sample set; aborts on an empty one.
double Median(std::vector<double> samples);

// --- Best of N -----------------------------------------------------------
//
// On a shared host the same work can run 25-40% slower for seconds at a
// time, so the median of a run's samples moves with the share of the run
// that fell into slow phases. A run therefore repeats the same work and
// reports each timing from its fastest repetitions: the cost of the code
// with the least interference the run saw.

// The smallest of a non-empty sample set; aborts on an empty one.
double Fastest(const std::vector<double>& samples);

// Position i's smallest value over the rounds: `rounds[r][i]` is position
// i's value in round r. Every round must have the same positions; aborts
// on no rounds or on rounds of different sizes.
std::vector<double> FastestPerPosition(
    const std::vector<std::vector<double>>& rounds);

// --- Seeds ---------------------------------------------------------------

// An independent seed for one use (`purpose`) of the run's seed.
std::uint64_t DeriveSeed(std::uint64_t seed, std::uint64_t purpose);

// `k` distinct indices of [0, n), ascending, drawn from `seed`.
std::vector<std::size_t> SampleIndices(std::uint64_t seed, std::size_t n,
                                       std::size_t k);

// --- Spans ---------------------------------------------------------------

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// One timed call into a layer. `parent` indexes the enclosing span of the
// same recorder (-1 for a root); `unit` is the pass or query the span
// belongs to. Names are string literals naming the layer call.
struct Span {
  const char* name = "";
  std::int32_t parent = -1;
  std::uint64_t unit = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

// Single-threaded span recorder: one per thread, written out when the run
// ends. Spans are stored in open order, so a parent precedes its children.
class SpanRecorder {
 public:
  std::size_t Open(const char* name, std::uint64_t unit);
  void Close(std::size_t index);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

// Times one call when `recorder` is non-null and does nothing otherwise, so
// the untraced path pays one branch.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name, std::uint64_t unit)
      : recorder_(recorder),
        index_(recorder != nullptr ? recorder->Open(name, unit) : 0) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->Close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  std::size_t index_;
};

// Self time of every span: its duration minus the part of its interval its
// direct children cover (overlapping children count once, and a child is
// clipped to its parent).
std::vector<std::int64_t> SelfTimes(const std::vector<Span>& spans);

struct LayerTotals {
  std::int64_t self_ns = 0;
  std::int64_t total_ns = 0;
  std::vector<std::int64_t> self_samples;  // one per span
};

struct TraceSummary {
  std::map<std::string, LayerTotals> layers;  // by span name
  // Over the end-to-end spans only (the roots named to Accumulate):
  std::int64_t e2e_ns = 0;         // summed root durations
  std::int64_t layer_self_ns = 0;  // summed self time of their descendants
  std::uint64_t e2e_spans = 0;

  // Share of the end-to-end time that layer spans account for.
  double coverage() const {
    return e2e_ns > 0 ? static_cast<double>(layer_self_ns) /
                            static_cast<double>(e2e_ns)
                      : 0.0;
  }
  // Mean and median self time, and mean duration, per span of `name` in
  // ns; 0 when no such span ran.
  double MeanSelfNs(const std::string& name) const;
  double MedianSelfNs(const std::string& name) const;
  double MeanTotalNs(const std::string& name) const;
};

// Adds one recorder's spans to `summary`: self and total time per span
// name. Roots named in `e2e_roots` are the end-to-end spans (a pass or a
// query); coverage sums their descendants' self times over their
// durations.
void Accumulate(const std::vector<Span>& spans,
                const std::vector<std::string>& e2e_roots,
                TraceSummary* summary);

// Writes every recorder's spans as JSON lines (name, recorder, unit,
// parent, start_ns, end_ns). Returns false when the file cannot be written.
bool WriteSpans(const std::string& path,
                const std::vector<const SpanRecorder*>& recorders);

// --- serve_ingest delta schedule -----------------------------------------

struct DeltaPlanConfig {
  std::uint64_t seed = 0;
  std::size_t base_items = 0;
  std::size_t appends_per_delta = 0;
  std::size_t retires_per_delta = 0;
  std::size_t num_deltas = 0;
  std::size_t first_at = 0;  // answered queries before the first delta
  std::size_t every = 1;     // answered queries between two deltas
};

// One catalog delta: the held-back tail items [append_begin, append_end)
// (tail-relative) appended and the global indices `retired` tombstoned,
// published once `after_answered` queries have been answered.
struct DeltaStep {
  std::size_t after_answered = 0;
  std::size_t append_begin = 0;
  std::size_t append_end = 0;
  std::vector<std::size_t> retired;  // ascending
};

// Deltas due once `answered` queries have been answered: delta k (from 0)
// is due at first_at + k * every.
std::size_t DeltasDue(std::size_t answered, const DeltaPlanConfig& config);

// The whole schedule, a pure function of its arguments: appends walk the
// tail in order; each delta retires seeded pseudo-random picks among the
// items live at that point and marked in `retirable` (by global index,
// covering the base and every appended item).
std::vector<DeltaStep> PlanDeltas(const DeltaPlanConfig& config,
                                  const std::vector<std::uint8_t>& retirable);

// Paces the writer by answered-query count, never by wall clock: clients
// count each answer, and the writer waits until the next delta is due.
// Every run therefore publishes the same deltas at the same points of the
// stream and ends at the same chain depth, whatever its speed.
class DeltaPacer {
 public:
  explicit DeltaPacer(const DeltaPlanConfig& config) : config_(config) {}
  DeltaPacer(const DeltaPacer&) = delete;
  DeltaPacer& operator=(const DeltaPacer&) = delete;

  // Client side: one more query answered. Wakes the writer when this
  // answer makes a delta due.
  void Answered() {
    const std::size_t now =
        answered_.fetch_add(1, std::memory_order_acq_rel) + 1;
    if (DeltasDue(now, config_) != DeltasDue(now - 1, config_)) {
      answered_.notify_all();
    }
  }

  // Writer side: blocks until delta `k` is due.
  void WaitUntilDue(std::size_t k) {
    std::size_t now = answered_.load(std::memory_order_acquire);
    while (DeltasDue(now, config_) <= k) {
      answered_.wait(now, std::memory_order_acquire);
      now = answered_.load(std::memory_order_acquire);
    }
  }

  std::size_t answered() const {
    return answered_.load(std::memory_order_acquire);
  }

 private:
  const DeltaPlanConfig config_;
  std::atomic<std::size_t> answered_{0};
};

}  // namespace rulelink::perfbench

#endif  // RULELINK_PERFBENCH_SUPPORT_H_
