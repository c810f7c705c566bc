// Experiment E5: learner scaling. The paper's motivation is the cost of
// naive comparison (quadratic in the sources); rule learning is a single
// pass over TS. We chart learning time and rule census as |TS| grows, and
// compare the comparison budgets: naive |S_E| x |S_L| vs rule-reduced.
#include <iostream>
#include <map>
#include <memory>
#include <string>

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "core/incremental.h"
#include "core/reference_learner.h"
#include "obs/metrics.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "util/table.h"

namespace rulelink::bench {
namespace {

struct ScaledCorpus {
  std::unique_ptr<datagen::Dataset> dataset;
  std::unique_ptr<core::TrainingSet> ts;
};

const ScaledCorpus& GetScaled(std::size_t num_links) {
  static std::map<std::size_t, ScaledCorpus>* cache =
      new std::map<std::size_t, ScaledCorpus>();
  auto it = cache->find(num_links);
  if (it == cache->end()) {
    ScaledCorpus corpus;
    auto dataset =
        datagen::DatasetGenerator(ScaledConfig(num_links)).Generate();
    RL_CHECK(dataset.ok()) << dataset.status();
    corpus.dataset =
        std::make_unique<datagen::Dataset>(std::move(dataset).value());
    corpus.ts = std::make_unique<core::TrainingSet>(
        datagen::BuildTrainingSet(*corpus.dataset));
    it = cache->emplace(num_links, std::move(corpus)).first;
  }
  return it->second;
}

void PrintScalingReport() {
  std::cout << "=== E5: learner scaling with |TS| ===\n";
  util::TextTable table({"|TS|", "learn time (ms)", "#rules",
                         "freq. classes", "naive pairs", "throughput"});
  for (std::size_t n : {1000u, 2500u, 5000u, 10265u, 20000u, 40000u}) {
    const ScaledCorpus& corpus = GetScaled(n);
    auto options = PaperLearnerOptions();
    core::LearnStats stats;
    util::Stopwatch timer;
    auto rules = core::RuleLearner(options).Learn(*corpus.ts, &stats);
    const double ms = timer.ElapsedMillis();
    RL_CHECK(rules.ok());
    const double throughput = static_cast<double>(n) / (ms / 1000.0);
    table.AddRow(
        {std::to_string(n), util::FormatDouble(ms, 1),
         std::to_string(stats.num_rules),
         std::to_string(stats.frequent_classes),
         std::to_string(static_cast<std::uint64_t>(n) *
                        corpus.dataset->catalog_items.size()),
         util::FormatDouble(throughput / 1000.0, 0) + "k links/s"});
  }
  std::cout << table.ToText()
            << "(learning is one pass over TS; the naive-pairs column is "
               "the comparison budget the rules exist to avoid)\n\n";
}

// Incremental vs batch: the expert validates links in deliveries; with
// the batch learner every delivery costs a full re-scan of TS, with the
// incremental learner only the new links are ingested.
void PrintIncrementalReport() {
  std::cout << "=== E5b: incremental vs batch relearning (10 deliveries of "
               "~1027 links each) ===\n";
  const auto& ts = PaperTrainingSet();
  const auto& dataset = PaperDataset();
  util::TextTable table({"mode", "total time (ms)", "final #rules"});

  // Batch: relearn after every delivery.
  {
    util::Stopwatch timer;
    std::size_t rules = 0;
    for (std::size_t batch = 1; batch <= 10; ++batch) {
      core::TrainingSet prefix(dataset.ontology());
      const std::size_t upto = ts.size() * batch / 10;
      for (std::size_t i = 0; i < upto; ++i) {
        const auto& example = ts.examples()[i];
        core::Item item;
        item.iri = example.external_iri;
        for (const auto& [property, value] : example.facts) {
          item.facts.push_back(
              core::PropertyValue{ts.properties().name(property), value});
        }
        prefix.AddExample(item, example.local_iri, example.classes);
      }
      auto result = core::RuleLearner(PaperLearnerOptions()).Learn(prefix);
      RL_CHECK(result.ok());
      rules = result->size();
    }
    table.AddRow({"batch relearn per delivery",
                  util::FormatDouble(timer.ElapsedMillis(), 1),
                  std::to_string(rules)});
  }
  // Incremental: ingest each delivery, rebuild rules from counts.
  {
    util::Stopwatch timer;
    core::IncrementalRuleLearner learner(
        &dataset.ontology(), &PaperSegmenter(),
        {datagen::props::kPartNumber});
    std::size_t rules = 0;
    for (std::size_t batch = 1; batch <= 10; ++batch) {
      const std::size_t from = ts.size() * (batch - 1) / 10;
      const std::size_t upto = ts.size() * batch / 10;
      for (std::size_t i = from; i < upto; ++i) {
        const auto& example = ts.examples()[i];
        core::Item item;
        item.iri = example.external_iri;
        for (const auto& [property, value] : example.facts) {
          item.facts.push_back(
              core::PropertyValue{ts.properties().name(property), value});
        }
        learner.AddExample(item, example.classes);
      }
      auto result = learner.BuildRules(0.002);
      RL_CHECK(result.ok());
      rules = result->size();
    }
    table.AddRow({"incremental ingest + rebuild",
                  util::FormatDouble(timer.ElapsedMillis(), 1),
                  std::to_string(rules)});
  }
  std::cout << table.ToText() << "\n";
}

// Interned vs string-keyed learning on the paper-scale corpus. The
// reference learner is the seed pipeline preserved verbatim (segments
// every value three times, hashes (property, segment-string) pairs); the
// production learner segments once into a StringInterner and counts over
// dense ids. Same rules byte-for-byte (see interned_differential_test);
// this section records the wall-time and symbol-table footprint of the
// trade, and its JSON lands in BENCH_learning.json next to the sweep.
std::string PrintInterningReport() {
  std::cout << "=== E5d: interned vs string-keyed learner (|TS| = "
            << PaperTrainingSet().size() << ") ===\n";
  const auto options = PaperLearnerOptions();
  const auto best_of_3 = [&](auto&& learn) {
    double best_ms = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
      util::Stopwatch timer;
      auto rules = learn();
      const double ms = timer.ElapsedMillis();
      RL_CHECK(rules.ok());
      if (rep == 0 || ms < best_ms) best_ms = ms;
    }
    return best_ms;
  };
  // Warm both paths once (corpus caches, allocator), then time.
  core::LearnStats stats;
  RL_CHECK(core::RuleLearner(options).Learn(PaperTrainingSet(), &stats).ok());
  const double interned_ms = best_of_3(
      [&] { return core::RuleLearner(options).Learn(PaperTrainingSet()); });
  const double reference_ms = best_of_3(
      [&] { return core::ReferenceLearn(options, PaperTrainingSet()); });
  const double speedup =
      interned_ms > 0.0 ? reference_ms / interned_ms : 0.0;

  util::TextTable table({"pipeline", "learn time (ms)", "intern symbols",
                         "interner KiB", "segment occurrences"});
  table.AddRow({"string-keyed (reference)",
                util::FormatDouble(reference_ms, 1), "-", "-",
                std::to_string(stats.segment_occurrences)});
  table.AddRow({"interned (SegmentId)", util::FormatDouble(interned_ms, 1),
                std::to_string(stats.interner_symbols),
                util::FormatDouble(
                    static_cast<double>(stats.interner_bytes) / 1024.0, 1),
                std::to_string(stats.segment_occurrences)});
  std::cout << table.ToText() << "speedup: "
            << util::FormatDouble(speedup, 2)
            << "x (identical rules; differential-tested)\n\n";

  std::string json = "  \"interning\": {\n";
  json += "    \"intern_symbols\": " +
          std::to_string(stats.interner_symbols) + ",\n";
  json += "    \"intern_bytes\": " +
          std::to_string(stats.interner_bytes) + ",\n";
  json += "    \"segment_occurrences\": " +
          std::to_string(stats.segment_occurrences) + ",\n";
  json += "    \"reference_ms\": " + util::FormatDouble(reference_ms, 3) +
          ",\n";
  json += "    \"interned_ms\": " + util::FormatDouble(interned_ms, 3) +
          ",\n";
  json += "    \"speedup_vs_reference\": " + util::FormatDouble(speedup, 3) +
          "\n  },\n";
  return json;
}

// Thread-count sweep over the paper-scale corpus: the speedup trajectory
// of the sharded counting passes, recorded to BENCH_learning.json. On a
// single-core host the parallel points only measure the sharding/merge
// overhead; the trajectory becomes a speedup curve on multi-core hardware.
void PrintThreadSweepReport(const std::string& interning_json) {
  std::cout << "=== E5c: learner thread-count sweep (|TS| = "
            << PaperTrainingSet().size() << ", hardware_concurrency = "
            << std::thread::hardware_concurrency() << ") ===\n";
  util::TextTable table(
      {"threads", "learn time (ms)", "speedup vs 1", "#rules"});
  std::vector<ThreadSweepPoint> points;
  double serial_ms = 0.0;
  for (std::size_t threads : {1u, 2u, 4u, 8u}) {
    auto options = PaperLearnerOptions();
    options.num_threads = threads;
    const core::RuleLearner learner(options);
    core::LearnStats stats;
    // Warm-up, then best-of-3 to de-noise the report.
    auto warm = learner.Learn(PaperTrainingSet(), &stats);
    RL_CHECK(warm.ok());
    double best_ms = 0.0;
    const util::SchedulerTotals sched_before = util::GlobalSchedulerTotals();
    for (int rep = 0; rep < 3; ++rep) {
      util::Stopwatch timer;
      auto rules = learner.Learn(PaperTrainingSet());
      const double ms = timer.ElapsedMillis();
      RL_CHECK(rules.ok());
      if (rep == 0 || ms < best_ms) best_ms = ms;
    }
    const util::SchedulerTotals sched =
        util::GlobalSchedulerTotals().Minus(sched_before);
    if (threads == 1) serial_ms = best_ms;
    points.push_back({threads, best_ms, sched});
    table.AddRow({std::to_string(threads), util::FormatDouble(best_ms, 1),
                  serial_ms > 0.0
                      ? util::FormatDouble(serial_ms / best_ms, 2) + "x"
                      : "-",
                  std::to_string(stats.num_rules)});
  }
  WriteThreadSweepJson("learning", "Learn on the paper-scale corpus",
                       points, interning_json);
  std::cout << table.ToText()
            << "(identical rules at every thread count; trajectory written "
               "to BENCH_learning.json)\n\n";
}

// One instrumented Learn over the paper-scale corpus; the snapshot (phase
// timings, corpus counters, the per-example segment histogram) lands in
// BENCH_learning_metrics.json next to the sweep JSON.
void WriteLearnerMetricsSnapshot() {
  obs::MetricsRegistry registry;
  auto rules = core::RuleLearner(PaperLearnerOptions())
                   .Learn(PaperTrainingSet(), nullptr, &registry);
  RL_CHECK(rules.ok());
  if (auto s = registry.Snapshot().WriteJsonFile(
          "BENCH_learning_metrics.json");
      !s.ok()) {
    std::cerr << "metrics snapshot: " << s << "\n";
  } else {
    std::cout << "(learner metrics snapshot written to "
                 "BENCH_learning_metrics.json)\n\n";
  }
}

void BM_IncrementalAddExample(benchmark::State& state) {
  const auto& dataset = PaperDataset();
  const auto& ts = PaperTrainingSet();
  core::IncrementalRuleLearner learner(&dataset.ontology(),
                                       &PaperSegmenter());
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& example = ts.examples()[i % ts.size()];
    core::Item item;
    item.iri = example.external_iri;
    for (const auto& [property, value] : example.facts) {
      item.facts.push_back(
          core::PropertyValue{ts.properties().name(property), value});
    }
    learner.AddExample(item, example.classes);
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IncrementalAddExample);

void BM_LearnAtScale(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const ScaledCorpus& corpus = GetScaled(n);
  const auto options = PaperLearnerOptions();
  for (auto _ : state) {
    auto rules = core::RuleLearner(options).Learn(*corpus.ts);
    benchmark::DoNotOptimize(rules);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_LearnAtScale)
    ->Arg(1000)
    ->Arg(2500)
    ->Arg(5000)
    ->Arg(10265)
    ->Arg(20000)
    ->Complexity(benchmark::oN)
    ->Unit(benchmark::kMillisecond);

void BM_LearnThresholdSweep(benchmark::State& state) {
  const auto& ts = PaperTrainingSet();
  auto options = PaperLearnerOptions();
  options.support_threshold =
      static_cast<double>(state.range(0)) / 100000.0;
  for (auto _ : state) {
    auto rules = core::RuleLearner(options).Learn(ts);
    benchmark::DoNotOptimize(rules);
  }
}
BENCHMARK(BM_LearnThresholdSweep)
    ->Arg(50)    // th = 0.0005
    ->Arg(200)   // th = 0.002
    ->Arg(1600)  // th = 0.016
    ->Unit(benchmark::kMillisecond);

// The thread-count axis: Learn on the paper corpus at 1/2/4/8 workers.
void BM_LearnThreads(benchmark::State& state) {
  auto options = PaperLearnerOptions();
  options.num_threads = static_cast<std::size_t>(state.range(0));
  const core::RuleLearner learner(options);
  for (auto _ : state) {
    auto rules = learner.Learn(PaperTrainingSet());
    benchmark::DoNotOptimize(rules);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(PaperTrainingSet().size()));
}
BENCHMARK(BM_LearnThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace rulelink::bench

int main(int argc, char** argv) {
  rulelink::bench::ApplyPinningFromEnv();
  rulelink::bench::PrintScalingReport();
  rulelink::bench::PrintIncrementalReport();
  const std::string interning_json =
      rulelink::bench::PrintInterningReport();
  rulelink::bench::PrintThreadSweepReport(interning_json);
  rulelink::bench::WriteLearnerMetricsSnapshot();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
