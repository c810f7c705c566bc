// Experiment E3 (§5 lift discussion): how much of the naive |S_E| x |S_L|
// space the rules prune. The paper argues that with average lift > 20, a
// confidence-1 rule divides the linkage space of an item by >= 5 even for
// a class holding 20% of the catalog; we measure the actual reduction as
// a function of the rule-confidence floor, plus the lift <-> subspace-size
// relation per rule.
#include <iostream>

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "core/classifier.h"
#include "core/linking_space.h"
#include "eval/report.h"
#include "ontology/instance_index.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "util/table.h"

namespace rulelink::bench {
namespace {

struct Fixture {
  const datagen::Dataset* dataset;
  rdf::Graph local_graph;
  std::unique_ptr<ontology::InstanceIndex> index;
  std::unique_ptr<core::RuleSet> rules;
  std::unique_ptr<core::RuleClassifier> classifier;
  std::unique_ptr<core::LinkingSpaceAnalyzer> analyzer;
};

Fixture& GetFixture() {
  static Fixture* fixture = [] {
    auto* f = new Fixture;
    f->dataset = &PaperDataset();
    f->local_graph = datagen::BuildLocalGraph(*f->dataset);
    f->index = std::make_unique<ontology::InstanceIndex>(
        ontology::InstanceIndex::Build(f->local_graph,
                                       f->dataset->ontology()));
    auto rules =
        core::RuleLearner(PaperLearnerOptions()).Learn(PaperTrainingSet());
    RL_CHECK(rules.ok());
    f->rules = std::make_unique<core::RuleSet>(std::move(rules).value());
    f->classifier = std::make_unique<core::RuleClassifier>(
        f->rules.get(), &PaperSegmenter());
    f->analyzer = std::make_unique<core::LinkingSpaceAnalyzer>(
        f->classifier.get(), f->index.get());
    return f;
  }();
  return *fixture;
}

void PrintConfidenceFloorSweep() {
  Fixture& f = GetFixture();
  std::cout << "=== E3: linking-space reduction vs confidence floor ===\n"
            << "(unclassified items fall back to the whole catalog)\n";
  util::TextTable table({"min conf.", "classified", "reduced pairs",
                         "reduction", "mean subspace", "division factor"});
  for (double min_conf : {1.0, 0.8, 0.6, 0.4, 0.0}) {
    const auto report =
        f.analyzer->Analyze(f.dataset->external_items, min_conf,
                            core::UnclassifiedPolicy::kCompareAll);
    table.AddRow(
        {util::FormatDouble(min_conf, 1),
         std::to_string(report.classified_items),
         std::to_string(report.reduced_pairs),
         util::FormatPercent(report.reduction_ratio),
         util::FormatPercent(report.mean_subspace_fraction, 2),
         report.mean_subspace_fraction > 0
             ? util::FormatDouble(1.0 / report.mean_subspace_fraction, 1) + "x"
             : "-"});
  }
  std::cout << table.ToText()
            << "(paper: lift > 20 at every threshold; a confidence-1 rule "
               "divides an item's space by >= 5 even for a 20% class)\n\n";
}

void PrintLiftVsSubspace() {
  Fixture& f = GetFixture();
  std::cout << "=== E3b: per-rule lift vs subspace fraction ===\n";
  util::TextTable table(
      {"rule band", "#rules", "avg lift", "avg class extent / |S_L|",
       "avg division factor"});
  const double local_size =
      static_cast<double>(f.index->instances().size());
  const double bounds[][2] = {
      {1.0, 2.0}, {0.8, 1.0}, {0.6, 0.8}, {0.4, 0.6}};
  for (const auto& band : bounds) {
    double lift_sum = 0, fraction_sum = 0;
    std::size_t count = 0;
    for (const auto* rule : f.rules->InConfidenceBand(band[0], band[1])) {
      lift_sum += rule->lift;
      fraction_sum +=
          static_cast<double>(f.index->TransitiveExtentSize(rule->cls)) /
          local_size;
      ++count;
    }
    if (count == 0) {
      table.AddRow({util::FormatDouble(band[0], 1), "0", "-", "-", "-"});
      continue;
    }
    const double avg_fraction = fraction_sum / static_cast<double>(count);
    table.AddRow({util::FormatDouble(band[0], 1), std::to_string(count),
                  util::FormatDouble(lift_sum / count, 1),
                  util::FormatPercent(avg_fraction, 2),
                  util::FormatDouble(1.0 / avg_fraction, 1) + "x"});
  }
  std::cout << table.ToText() << "\n";
}

// Thread-count sweep over the candidate-scoring / rule-application path:
// Analyze classifies every external item and unions its subspace extents.
// Recorded to BENCH_linking_space.json (see bench_learning for caveats on
// single-core hosts).
void PrintThreadSweepReport() {
  Fixture& f = GetFixture();
  std::cout << "=== E3c: linking-space thread-count sweep (|S_E| = "
            << f.dataset->external_items.size()
            << ", hardware_concurrency = "
            << std::thread::hardware_concurrency() << ") ===\n";
  util::TextTable table({"threads", "analyze time (ms)", "speedup vs 1"});
  std::vector<ThreadSweepPoint> points;
  double serial_ms = 0.0;
  for (std::size_t threads : {1u, 2u, 4u, 8u}) {
    // Warm-up, then best-of-3.
    auto warm = f.analyzer->Analyze(f.dataset->external_items, 0.4,
                                    core::UnclassifiedPolicy::kCompareAll,
                                    threads);
    benchmark::DoNotOptimize(warm);
    double best_ms = 0.0;
    const util::SchedulerTotals sched_before = util::GlobalSchedulerTotals();
    for (int rep = 0; rep < 3; ++rep) {
      util::Stopwatch timer;
      const auto report = f.analyzer->Analyze(
          f.dataset->external_items, 0.4,
          core::UnclassifiedPolicy::kCompareAll, threads);
      const double ms = timer.ElapsedMillis();
      benchmark::DoNotOptimize(report);
      if (rep == 0 || ms < best_ms) best_ms = ms;
    }
    const util::SchedulerTotals sched =
        util::GlobalSchedulerTotals().Minus(sched_before);
    if (threads == 1) serial_ms = best_ms;
    points.push_back({threads, best_ms, sched, util::SimdTotals{}});
    table.AddRow({std::to_string(threads), util::FormatDouble(best_ms, 1),
                  serial_ms > 0.0
                      ? util::FormatDouble(serial_ms / best_ms, 2) + "x"
                      : "-"});
  }
  WriteThreadSweepJson("linking_space",
                       "Analyze the full external source at conf >= 0.4",
                       points);
  std::cout << table.ToText()
            << "(identical reports at every thread count; trajectory "
               "written to BENCH_linking_space.json)\n\n";
}

void BM_AnalyzeLinkingSpace(benchmark::State& state) {
  Fixture& f = GetFixture();
  const double min_conf = static_cast<double>(state.range(0)) / 10.0;
  for (auto _ : state) {
    const auto report =
        f.analyzer->Analyze(f.dataset->external_items, min_conf,
                            core::UnclassifiedPolicy::kSkip);
    benchmark::DoNotOptimize(report);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(f.dataset->external_items.size()));
}
BENCHMARK(BM_AnalyzeLinkingSpace)
    ->Arg(10)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

void BM_SubspaceCandidates(benchmark::State& state) {
  Fixture& f = GetFixture();
  const auto& items = f.dataset->external_items;
  std::size_t i = 0;
  for (auto _ : state) {
    const auto candidates =
        f.analyzer->Candidates(items[i % items.size()], 0.4);
    benchmark::DoNotOptimize(candidates);
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SubspaceCandidates);

// The thread-count axis of the rule-application / scoring path.
void BM_AnalyzeThreads(benchmark::State& state) {
  Fixture& f = GetFixture();
  const std::size_t threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    const auto report = f.analyzer->Analyze(
        f.dataset->external_items, 0.4,
        core::UnclassifiedPolicy::kCompareAll, threads);
    benchmark::DoNotOptimize(report);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(f.dataset->external_items.size()));
}
BENCHMARK(BM_AnalyzeThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace rulelink::bench

int main(int argc, char** argv) {
  rulelink::bench::ApplyPinningFromEnv();
  rulelink::bench::PrintConfidenceFloorSweep();
  rulelink::bench::PrintLiftVsSubspace();
  rulelink::bench::PrintThreadSweepReport();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
