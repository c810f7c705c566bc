// Tests of the benchmark's own arithmetic: percentile edge cases, best-of-N
// over repetitions, self times on nested spans, and a serve_ingest delta
// schedule that is the same for a given seed whatever the speed of the
// replay. Exits non-zero after reporting every failing line.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <thread>
#include <utility>
#include <vector>

#include "support.h"

namespace rulelink::perfbench {
namespace {

int failures = 0;

#define EXPECT(condition)                                               \
  do {                                                                  \
    if (!(condition)) {                                                 \
      ++failures;                                                       \
      std::cerr << __FILE__ << ":" << __LINE__ << ": expected " #condition \
                << "\n";                                                \
    }                                                                   \
  } while (false)

bool Near(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b));
}

void PercentileEdgeCases() {
  EXPECT(!Quantile({}, 0.5).has_value());
  for (const double q : {0.0, 0.5, 0.99, 1.0}) {
    EXPECT(Quantile({7.0}, q) == 7.0);
  }
  // Unsorted input; interpolation between ranks; the ends are the extremes.
  EXPECT(Near(*Quantile({4.0, 1.0, 3.0, 2.0}, 0.5), 2.5));
  EXPECT(Quantile({4.0, 1.0, 3.0, 2.0}, 0.0) == 1.0);
  EXPECT(Quantile({4.0, 1.0, 3.0, 2.0}, 1.0) == 4.0);
  // q outside [0, 1] clamps.
  EXPECT(Quantile({1.0, 2.0, 3.0}, -0.5) == 1.0);
  EXPECT(Quantile({1.0, 2.0, 3.0}, 1.5) == 3.0);
  // Ties stay exact.
  EXPECT(Quantile({5.0, 5.0, 5.0, 5.0}, 0.3) == 5.0);
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  EXPECT(Near(*Quantile(hundred, 0.5), 50.5));
  EXPECT(Near(*Quantile(hundred, 0.99), 99.01));
  // No p99 from fewer than the required samples.
  std::vector<double> samples(999, 1.0);
  EXPECT(!Quantile(samples, 0.99, 1000).has_value());
  samples.push_back(2.0);
  EXPECT(Quantile(samples, 0.99, 1000).has_value());
  EXPECT(Median({3.0, 1.0, 2.0}) == 2.0);
  EXPECT(Median({1.0, 2.0}) == 1.5);
}

void BestOfRepetitions() {
  EXPECT(Fastest({7.0}) == 7.0);
  EXPECT(Fastest({3.0, 1.5, 2.0, 1.5}) == 1.5);
  // One round is its own best; otherwise each position keeps its minimum,
  // whichever round it came from.
  EXPECT(FastestPerPosition({{4.0, 2.0}}) == std::vector<double>({4.0, 2.0}));
  EXPECT(FastestPerPosition({{4.0, 2.0, 9.0}, {3.0, 5.0, 9.0}, {6.0, 1.0, 8.0}}) ==
         std::vector<double>({3.0, 1.0, 8.0}));
  EXPECT(FastestPerPosition({{}, {}}).empty());
  // Percentiles of the per-position best: a slow round moves nothing.
  std::vector<std::vector<double>> rounds(3, std::vector<double>(1000));
  for (std::size_t i = 0; i < 1000; ++i) {
    rounds[0][i] = static_cast<double>(i + 1);
    rounds[1][i] = 2.0 * static_cast<double>(i + 1);  // a slow round
    rounds[2][i] = static_cast<double>(i + 1) + 0.5;
  }
  EXPECT(Near(*Quantile(FastestPerPosition(rounds), 0.5), 500.5));
  EXPECT(Near(*Quantile(FastestPerPosition(rounds), 0.99, 1000), 990.01));
}

Span MakeSpan(const char* name, std::int32_t parent, std::int64_t start,
              std::int64_t end) {
  Span span;
  span.name = name;
  span.parent = parent;
  span.start_ns = start;
  span.end_ns = end;
  return span;
}

void SelfTimesOnNestedSpans() {
  // pass [0,100] > featurize [10,40] > inner [20,30]; pass > stream [50,90].
  const std::vector<Span> nested = {
      MakeSpan("batch.pass", -1, 0, 100),
      MakeSpan("linking.featurize", 0, 10, 40),
      MakeSpan("inner", 1, 20, 30),
      MakeSpan("linking.stream", 0, 50, 90),
  };
  const std::vector<std::int64_t> self = SelfTimes(nested);
  EXPECT(self[0] == 30);
  EXPECT(self[1] == 20);
  EXPECT(self[2] == 10);
  EXPECT(self[3] == 40);

  // Overlapping children count once; a child is clipped to its parent.
  const std::vector<Span> overlapping = {
      MakeSpan("root", -1, 0, 100),
      MakeSpan("a", 0, 10, 50),
      MakeSpan("b", 0, 40, 60),
      MakeSpan("c", 0, 90, 120),
  };
  EXPECT(SelfTimes(overlapping)[0] == 40);

  // Coverage counts only the descendants of the end-to-end roots.
  std::vector<Span> spans = nested;
  spans.push_back(MakeSpan("batch.setup", -1, 200, 300));
  spans.push_back(MakeSpan("rdf.parse", 4, 210, 290));
  spans.push_back(MakeSpan("batch.pass", -1, 400, 500));
  spans.push_back(MakeSpan("linking.stream", 6, 400, 500));
  TraceSummary summary;
  Accumulate(spans, {"batch.pass"}, &summary);
  EXPECT(summary.e2e_spans == 2);
  EXPECT(summary.e2e_ns == 200);
  EXPECT(summary.layer_self_ns == 20 + 10 + 40 + 100);
  EXPECT(Near(summary.coverage(), 170.0 / 200.0));
  EXPECT(summary.layers.at("linking.stream").self_samples.size() == 2);
  EXPECT(Near(summary.MeanSelfNs("linking.stream"), 70.0));
  EXPECT(Near(summary.MedianSelfNs("linking.stream"), 70.0));
  EXPECT(Near(summary.MeanTotalNs("batch.pass"), 100.0));
  EXPECT(summary.MeanSelfNs("absent") == 0.0);

  // The recorder nests what ScopedSpan opens, in open order.
  SpanRecorder recorder;
  {
    const ScopedSpan a(&recorder, "a", 1);
    { const ScopedSpan b(&recorder, "b", 1); }
    { const ScopedSpan c(&recorder, "c", 1); }
  }
  { const ScopedSpan d(&recorder, "d", 2); }
  { const ScopedSpan untraced(nullptr, "never", 3); }
  const std::vector<Span>& recorded = recorder.spans();
  EXPECT(recorded.size() == 4);
  EXPECT(recorded[0].parent == -1);
  EXPECT(recorded[1].parent == 0);
  EXPECT(recorded[2].parent == 0);
  EXPECT(recorded[3].parent == -1);
  for (const Span& span : recorded) EXPECT(span.end_ns >= span.start_ns);
  EXPECT(recorded[1].start_ns >= recorded[0].start_ns &&
         recorded[2].end_ns <= recorded[0].end_ns);
}

DeltaPlanConfig TestPlan(std::uint64_t seed) {
  DeltaPlanConfig config;
  config.seed = seed;
  config.base_items = 1000;
  config.appends_per_delta = 10;
  config.retires_per_delta = 5;
  config.num_deltas = 8;
  config.first_at = 100;
  config.every = 50;
  return config;
}

std::vector<std::uint8_t> TestRetirable(const DeltaPlanConfig& config) {
  std::vector<std::uint8_t> retirable(
      config.base_items + config.num_deltas * config.appends_per_delta, 1);
  for (std::size_t i = 0; i < config.base_items; i += 3) retirable[i] = 0;
  return retirable;
}

bool SamePlan(const std::vector<DeltaStep>& a,
              const std::vector<DeltaStep>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t k = 0; k < a.size(); ++k) {
    if (a[k].after_answered != b[k].after_answered ||
        a[k].append_begin != b[k].append_begin ||
        a[k].append_end != b[k].append_end || a[k].retired != b[k].retired) {
      return false;
    }
  }
  return true;
}

void DeltaScheduleIsAPureFunctionOfTheSeed() {
  const DeltaPlanConfig config = TestPlan(11);
  const std::vector<std::uint8_t> retirable = TestRetirable(config);
  const std::vector<DeltaStep> plan = PlanDeltas(config, retirable);
  EXPECT(SamePlan(plan, PlanDeltas(config, retirable)));
  EXPECT(!SamePlan(plan, PlanDeltas(TestPlan(12), retirable)));

  std::vector<std::uint8_t> retired(retirable.size(), 0);
  for (std::size_t k = 0; k < plan.size(); ++k) {
    const DeltaStep& step = plan[k];
    EXPECT(step.after_answered == 100 + 50 * k);
    EXPECT(step.append_begin == 10 * k && step.append_end == 10 * k + 10);
    EXPECT(step.retired.size() == 5);
    EXPECT(std::is_sorted(step.retired.begin(), step.retired.end()));
    for (const std::size_t index : step.retired) {
      EXPECT(index < config.base_items + step.append_end);  // live by then
      EXPECT(retirable[index] != 0);
      EXPECT(retired[index] == 0);  // never retired twice
      retired[index] = 1;
    }
  }

  EXPECT(DeltasDue(0, config) == 0);
  EXPECT(DeltasDue(99, config) == 0);
  EXPECT(DeltasDue(100, config) == 1);
  EXPECT(DeltasDue(149, config) == 1);
  EXPECT(DeltasDue(150, config) == 2);
  EXPECT(DeltasDue(1000000, config) == 8);
  DeltaPlanConfig none = config;
  none.num_deltas = 0;
  EXPECT(DeltasDue(1000000, none) == 0);
}

// Spins for about `ns` without sleeping, like a query of that cost.
void Work(std::int64_t ns) {
  const std::int64_t until = NowNs() + ns;
  while (NowNs() < until) {
  }
}

// Two clients answer a fixed stream at a given speed while the writer
// publishes through the pacer, itself taking `publish_ns` per delta.
// Returns (delta, answered count when published) per publish.
std::vector<std::pair<std::size_t, std::size_t>> PacedRun(
    const DeltaPlanConfig& config, std::size_t total, std::int64_t query_ns,
    std::int64_t publish_ns) {
  DeltaPacer pacer(config);
  std::atomic<std::size_t> ticket{0};
  const auto client = [&] {
    while (ticket.fetch_add(1, std::memory_order_relaxed) < total) {
      Work(query_ns);
      pacer.Answered();
    }
  };
  std::thread first(client);
  std::thread second(client);
  std::vector<std::pair<std::size_t, std::size_t>> published;
  for (std::size_t k = 0; k < config.num_deltas; ++k) {
    pacer.WaitUntilDue(k);
    published.emplace_back(k, pacer.answered());
    Work(publish_ns);
  }
  first.join();
  second.join();
  return published;
}

void PacingIsTheSameWhateverTheSpeed() {
  const DeltaPlanConfig config = TestPlan(21);
  const std::size_t total = config.first_at + config.every * config.num_deltas;
  const std::vector<DeltaStep> plan = PlanDeltas(config, TestRetirable(config));
  for (const auto& [query_ns, publish_ns] :
       std::vector<std::pair<std::int64_t, std::int64_t>>{
           {0, 0}, {20000, 0}, {0, 200000}, {5000, 50000}}) {
    const auto published = PacedRun(config, total, query_ns, publish_ns);
    // Every delta, in order, never before its point: the chain ends at the
    // same depth with the same deltas whatever the speed.
    EXPECT(published.size() == plan.size());
    for (std::size_t k = 0; k < published.size(); ++k) {
      EXPECT(published[k].first == k);
      EXPECT(published[k].second >= plan[k].after_answered);
    }
  }
}

}  // namespace
}  // namespace rulelink::perfbench

int main() {
  using namespace rulelink::perfbench;
  PercentileEdgeCases();
  BestOfRepetitions();
  SelfTimesOnNestedSpans();
  DeltaScheduleIsAPureFunctionOfTheSeed();
  PacingIsTheSameWhateverTheSpeed();
  if (failures != 0) {
    std::cerr << failures << " expectation(s) failed\n";
    return 1;
  }
  std::cout << "perfbench support tests passed\n";
  return 0;
}
