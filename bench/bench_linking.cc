// Experiment E6: the linking hot path. The paper's rules shrink the
// comparison space; this bench measures what each surviving comparison
// costs. The reference path (the oracle Linker::Run over
// ItemMatcher::Score) re-tokenizes and re-bigrams both value strings for
// every candidate pair; the production pipeline builds per-source
// FeatureCaches once and streams the blocker's per-external candidate runs
// through StreamingLinker — a sound filter cascade, then
// ItemMatcher::ScoreRun with sort-merge token measures over dense ids,
// measure dispatch hoisted out of the pair loop, and a per-worker
// Monge-Elkan (value, value) memo that exploits how heavily catalog
// values repeat. Links are byte-identical by construction (see
// streaming_linker_differential_test) and re-checked here; this binary
// records the wall-time and memo economics to BENCH_linking.json.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "blocking/standard_blocking.h"
#include "linking/evaluation.h"
#include "linking/feature_cache.h"
#include "linking/filters.h"
#include "linking/linker.h"
#include "linking/matcher.h"
#include "linking/query_scratch.h"
#include "linking/streaming_linker.h"
#include "obs/metrics.h"
#include "util/interner.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "util/table.h"

namespace rulelink::bench {
namespace {

constexpr double kThreshold = 0.6;

// The matcher the cache is built for: token and bigram measures on the
// part number (sort-merges over dense ids once cached), Monge-Elkan and
// Jaro-Winkler on the manufacturer name, whose values repeat across the
// catalog, and an exact check that collapses to a value-id comparison.
// Only the Monge-Elkan rule's repeated manufacturer values hit the score
// memo; the Jaro-Winkler rule runs the bit-parallel kernel on every pair
// that reaches the scorer.
linking::ItemMatcher PipelineMatcher() {
  return linking::ItemMatcher({
      {datagen::props::kPartNumber, datagen::props::kPartNumber,
       linking::SimilarityMeasure::kJaccardTokens, 2.0},
      {datagen::props::kPartNumber, datagen::props::kPartNumber,
       linking::SimilarityMeasure::kDiceBigram, 1.5},
      {datagen::props::kPartNumber, datagen::props::kPartNumber,
       linking::SimilarityMeasure::kExact, 1.0},
      {datagen::props::kManufacturer, datagen::props::kManufacturer,
       linking::SimilarityMeasure::kMongeElkan, 1.0},
      {datagen::props::kManufacturer, datagen::props::kManufacturer,
       linking::SimilarityMeasure::kJaroWinkler, 0.5},
  });
}

struct Fixture {
  const datagen::Dataset* dataset = nullptr;
  linking::ItemMatcher matcher;
  blocking::StandardBlocker blocker{datagen::props::kPartNumber,
                                    /*prefix_length=*/4};
  std::vector<blocking::CandidatePair> candidates;

  Fixture() : matcher(PipelineMatcher()) {
    dataset = &PaperDataset();
    candidates =
        blocker.Generate(dataset->external_items, dataset->catalog_items);
  }
};

const Fixture& GetFixture() {
  static const Fixture* fixture = new Fixture();
  return *fixture;
}

void CheckLinksIdentical(const std::vector<linking::Link>& actual,
                         const std::vector<linking::Link>& expected) {
  RL_CHECK(actual.size() == expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    RL_CHECK(actual[i].external_index == expected[i].external_index &&
             actual[i].local_index == expected[i].local_index &&
             actual[i].score == expected[i].score);
  }
}

// The full streaming pipeline (cache build, index build, cascade and
// scoring) at `threads` workers, best of 3 after a warm-up; the scheduler
// counter delta covers the timed reps only.
struct PipelineTiming {
  double ms = 0.0;
  linking::LinkagePipelineResult result;
  util::SchedulerTotals scheduler;
};

PipelineTiming TimePipeline(const Fixture& fixture, std::size_t threads) {
  const auto run = [&] {
    return linking::RunStreamingLinkagePipeline(
        fixture.dataset->external_items, fixture.dataset->catalog_items,
        fixture.blocker, fixture.matcher, kThreshold,
        linking::Linker::Strategy::kBestPerExternal, /*gold=*/nullptr,
        threads);
  };
  PipelineTiming timing;
  timing.result = run();  // warm-up
  const util::SchedulerTotals sched_before = util::GlobalSchedulerTotals();
  for (int rep = 0; rep < 3; ++rep) {
    util::Stopwatch timer;
    auto result = run();
    const double ms = timer.ElapsedMillis();
    if (rep == 0 || ms < timing.ms) {
      timing.ms = ms;
      timing.result = std::move(result);
    }
  }
  timing.scheduler = util::GlobalSchedulerTotals().Minus(sched_before);
  return timing;
}

// The headline comparison: reference string-path Run vs the streaming
// pipeline, single-threaded (the per-comparison economics, not the
// parallel scaling — that is the sweep below). Warm-up once, then
// best-of-3, matching the learner bench protocol.
std::string PrintPipelineReport() {
  const Fixture& fixture = GetFixture();
  const linking::Linker linker(&fixture.matcher, kThreshold);
  std::cout << "=== E6: streaming vs reference linking pipeline ("
            << fixture.dataset->external_items.size() << " external x "
            << fixture.dataset->catalog_items.size() << " catalog, "
            << fixture.candidates.size() << " candidates) ===\n";

  linking::LinkerStats ref_stats;
  auto reference_links =
      linker.Run(fixture.dataset->external_items,
                 fixture.dataset->catalog_items, fixture.candidates,
                 &ref_stats, /*num_threads=*/1);  // warm-up
  double reference_ms = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    util::Stopwatch timer;
    reference_links =
        linker.Run(fixture.dataset->external_items,
                   fixture.dataset->catalog_items, fixture.candidates,
                   &ref_stats, /*num_threads=*/1);
    const double ms = timer.ElapsedMillis();
    if (rep == 0 || ms < reference_ms) reference_ms = ms;
  }

  const PipelineTiming streaming = TimePipeline(fixture, 1);
  const linking::LinkagePipelineResult& result = streaming.result;
  CheckLinksIdentical(result.links, reference_links);
  // Every candidate is either scored or provably pruned; the streaming
  // path runs fewer kernels because pruned pairs never reach the scorer
  // and memo hits replay stored results.
  RL_CHECK(result.num_candidates == ref_stats.pairs_scored);
  RL_CHECK(result.stats.comparisons <= ref_stats.comparisons);

  const double speedup =
      streaming.ms > 0.0 ? reference_ms / streaming.ms : 0.0;
  util::TextTable table({"pipeline", "time (ms)", "pairs scored",
                         "kernels run", "links", "memo hit rate"});
  table.AddRow({"reference (string path)",
                util::FormatDouble(reference_ms, 1),
                std::to_string(ref_stats.pairs_scored),
                std::to_string(ref_stats.comparisons),
                std::to_string(reference_links.size()), "-"});
  table.AddRow({"streaming (build + index + fused run)",
                util::FormatDouble(streaming.ms, 1),
                std::to_string(result.stats.pairs_scored),
                std::to_string(result.stats.comparisons),
                std::to_string(result.links.size()),
                util::FormatDouble(result.memo.hit_rate() * 100.0, 1) +
                    "%"});
  std::cout << table.ToText() << "dictionary: " << result.distinct_values
            << " distinct values, " << result.dictionary_symbols
            << " symbols, "
            << util::FormatDouble(
                   static_cast<double>(result.dictionary_bytes) / 1024.0, 1)
            << " KiB; speedup: " << util::FormatDouble(speedup, 2)
            << "x (identical links; re-checked)\n\n";

  std::string json = "  \"pipeline\": {\n";
  json += "    \"candidates\": " +
          std::to_string(fixture.candidates.size()) + ",\n";
  json += "    \"pairs_scored\": " +
          std::to_string(result.stats.pairs_scored) + ",\n";
  json += "    \"comparisons\": " +
          std::to_string(result.stats.comparisons) + ",\n";
  json += "    \"links\": " + std::to_string(result.links.size()) + ",\n";
  json += "    \"reference_ms\": " + util::FormatDouble(reference_ms, 3) +
          ",\n";
  json += "    \"streaming_ms\": " + util::FormatDouble(streaming.ms, 3) +
          ",\n";
  json += "    \"speedup_vs_reference\": " +
          util::FormatDouble(speedup, 3) + ",\n";
  json += "    \"memo_lookups\": " + std::to_string(result.memo.lookups) +
          ",\n";
  json += "    \"memo_hits\": " + std::to_string(result.memo.hits) + ",\n";
  json += "    \"memo_hit_rate\": " +
          util::FormatDouble(result.memo.hit_rate(), 4) + ",\n";
  json += "    \"distinct_values\": " +
          std::to_string(result.distinct_values) + ",\n";
  json += "    \"dictionary_symbols\": " +
          std::to_string(result.dictionary_symbols) + ",\n";
  json += "    \"dictionary_bytes\": " +
          std::to_string(result.dictionary_bytes) + "\n  },\n";
  return json;
}

// The matcher the streaming comparison is built for: a heavily weighted
// Levenshtein rule on the part number (length bound + capped bit-parallel
// probe), Dice/Jaccard/exact rules the count and id filters bound, and a
// Monge-Elkan rule on the manufacturer that has no cheap bound — the
// cascade treats it optimistically, and skipping its kernel is where a
// prune saves the most work.
linking::ItemMatcher StreamingMatcher() {
  return linking::ItemMatcher({
      {datagen::props::kPartNumber, datagen::props::kPartNumber,
       linking::SimilarityMeasure::kLevenshtein, 3.0},
      {datagen::props::kPartNumber, datagen::props::kPartNumber,
       linking::SimilarityMeasure::kDiceBigram, 1.5},
      {datagen::props::kPartNumber, datagen::props::kPartNumber,
       linking::SimilarityMeasure::kExact, 1.0},
      {datagen::props::kPartNumber, datagen::props::kPartNumber,
       linking::SimilarityMeasure::kJaccardTokens, 0.5},
      {datagen::props::kManufacturer, datagen::props::kManufacturer,
       linking::SimilarityMeasure::kMongeElkan, 0.5},
  });
}

// E6c: the streaming path (inverted index + filter cascade + cached
// scorer) under a matcher the cascade can bound, single-threaded. Its
// links are checked against a Linker::Run oracle over the same blocker's
// candidates, as in E6; the timed legs measure the streaming pass with
// and without a live MetricsRegistry.
std::string PrintStreamingReport() {
  const datagen::Dataset& dataset = PaperDataset();
  const linking::ItemMatcher matcher = StreamingMatcher();
  const blocking::StandardBlocker blocker(datagen::props::kPartNumber,
                                          /*prefix_length=*/4);
  std::cout << "=== E6c: streaming filter cascade ===\n";

  linking::FeatureDictionary dict;
  const auto external = linking::FeatureCache::Build(
      dataset.external_items, matcher, linking::FeatureCache::Side::kExternal,
      &dict, 1);
  const auto local = linking::FeatureCache::Build(
      dataset.catalog_items, matcher, linking::FeatureCache::Side::kLocal,
      &dict, 1);

  const linking::StreamingLinker streaming(&matcher, kThreshold);

  // Untimed: the oracle is deterministic at every thread count.
  linking::LinkerStats oracle_stats;
  const auto oracle_links =
      linking::Linker(&matcher, kThreshold)
          .Run(dataset.external_items, dataset.catalog_items,
               blocker.Generate(dataset.external_items,
                                dataset.catalog_items),
               &oracle_stats, /*num_threads=*/0);

  // The instrumentation budget (DESIGN.md §5f): the same streaming run
  // with a live MetricsRegistry must stay within 2% of the uninstrumented
  // one. One pass's timing noise is larger than that, so each leg times
  // back-to-back passes lasting at least kLegMillis, and the overhead is
  // the median over kOverheadReps reps of the paired ratio, clamped at 0.
  // A rep runs half of one leg's passes, the other leg, then the rest of
  // the first (A B A), so drift within the rep lands on both legs; the
  // split leg swaps each rep. Every instrumented pass records into a
  // fresh registry, made before its timer starts.
  constexpr double kLegMillis = 250.0;
  constexpr int kOverheadReps = 21;
  double streaming_ms = 0.0;
  double instrumented_ms = 0.0;
  linking::LinkerStats streaming_stats;
  std::vector<linking::Link> streaming_links;
  obs::MetricsSnapshot snapshot;
  const auto plain_pass = [&] {
    const auto index =
        blocker.BuildIndex(dataset.external_items, dataset.catalog_items);
    streaming_links = streaming.Run(*index, external, local,
                                    &streaming_stats, /*num_threads=*/1);
  };
  const auto instrumented_pass = [&](obs::MetricsRegistry* registry) {
    const auto index =
        blocker.BuildIndex(dataset.external_items, dataset.catalog_items);
    const auto links = streaming.Run(*index, external, local, nullptr,
                                     /*num_threads=*/1, nullptr, registry);
    RL_CHECK(links.size() == streaming_links.size());
  };
  // Warm-up, which also sizes the legs.
  util::Stopwatch warm_up;
  plain_pass();
  const std::size_t passes = std::max<std::size_t>(
      2, static_cast<std::size_t>(std::ceil(
             kLegMillis / std::max(1.0, warm_up.ElapsedMillis()))));
  {
    obs::MetricsRegistry registry;
    instrumented_pass(&registry);
  }
  const auto plain_leg = [&](std::size_t count) {
    util::Stopwatch timer;
    for (std::size_t p = 0; p < count; ++p) plain_pass();
    return timer.ElapsedMillis();
  };
  const auto instrumented_leg = [&](std::size_t count) {
    std::vector<std::unique_ptr<obs::MetricsRegistry>> registries;
    for (std::size_t p = 0; p < count; ++p) {
      registries.push_back(std::make_unique<obs::MetricsRegistry>());
    }
    util::Stopwatch timer;
    for (std::size_t p = 0; p < count; ++p) {
      instrumented_pass(registries[p].get());
    }
    const double ms = timer.ElapsedMillis();
    snapshot = registries.back()->Snapshot();
    return ms;
  };
  const std::size_t half = passes / 2;
  std::vector<double> ratios;
  for (int rep = 0; rep < kOverheadReps; ++rep) {
    double plain = 0.0;
    double instrumented = 0.0;
    if (rep % 2 == 0) {
      plain = plain_leg(half);
      instrumented = instrumented_leg(passes);
      plain += plain_leg(passes - half);
    } else {
      instrumented = instrumented_leg(half);
      plain = plain_leg(passes);
      instrumented += instrumented_leg(passes - half);
    }
    ratios.push_back(instrumented / plain - 1.0);
    const double per_pass = plain / static_cast<double>(passes);
    const double instrumented_per_pass =
        instrumented / static_cast<double>(passes);
    if (rep == 0 || per_pass < streaming_ms) streaming_ms = per_pass;
    if (rep == 0 || instrumented_per_pass < instrumented_ms) {
      instrumented_ms = instrumented_per_pass;
    }
  }
  std::sort(ratios.begin(), ratios.end());
  const double overhead_pct =
      std::max(0.0, ratios[ratios.size() / 2]) * 100.0;
  const double ratio_q1_pct = ratios[ratios.size() / 4] * 100.0;
  const double ratio_q3_pct = ratios[ratios.size() * 3 / 4] * 100.0;
  if (auto s = snapshot.WriteJsonFile("BENCH_linking_metrics.json");
      !s.ok()) {
    std::cerr << "metrics snapshot: " << s << "\n";
  }

  CheckLinksIdentical(streaming_links, oracle_links);
  RL_CHECK(streaming_stats.pairs_pruned_by_filter > 0);
  RL_CHECK(streaming_stats.pairs_scored +
               streaming_stats.pairs_pruned_by_filter ==
           oracle_stats.pairs_scored);

  util::TextTable table({"pipeline", "time (ms)", "pairs scored",
                         "pruned", "kernels run", "links"});
  table.AddRow({"streaming (index + cascade)",
                util::FormatDouble(streaming_ms, 1),
                std::to_string(streaming_stats.pairs_scored),
                std::to_string(streaming_stats.pairs_pruned_by_filter),
                std::to_string(streaming_stats.comparisons),
                std::to_string(streaming_links.size())});
  std::cout << table.ToText() << "prunes by filter: length="
            << streaming_stats.pruned_by_length
            << ", token count=" << streaming_stats.pruned_by_token_count
            << ", exact=" << streaming_stats.pruned_by_exact
            << ", distance cap=" << streaming_stats.pruned_by_distance_cap
            << ", jaro=" << streaming_stats.pruned_by_jaro
            << ", running best=" << streaming_stats.pruned_by_running_best
            << "; peak candidate run=" << streaming_stats.peak_candidate_run
            << "\n(links identical to the Linker::Run oracle; re-checked)\n"
            << "instrumentation overhead: "
            << util::FormatDouble(overhead_pct, 2) << "% (median of "
            << kOverheadReps << " paired reps of " << passes
            << " passes per leg, quartiles "
            << util::FormatDouble(ratio_q1_pct, 2) << "% / "
            << util::FormatDouble(ratio_q3_pct, 2)
            << "%; snapshot written to BENCH_linking_metrics.json)\n\n";

  std::string json = "  \"streaming\": {\n";
  json += "    \"candidates\": " +
          std::to_string(oracle_stats.pairs_scored) + ",\n";
  json += "    \"pairs_scored\": " +
          std::to_string(streaming_stats.pairs_scored) + ",\n";
  json += "    \"pairs_pruned_by_filter\": " +
          std::to_string(streaming_stats.pairs_pruned_by_filter) + ",\n";
  json += "    \"pruned_by_length\": " +
          std::to_string(streaming_stats.pruned_by_length) + ",\n";
  json += "    \"pruned_by_token_count\": " +
          std::to_string(streaming_stats.pruned_by_token_count) + ",\n";
  json += "    \"pruned_by_exact\": " +
          std::to_string(streaming_stats.pruned_by_exact) + ",\n";
  json += "    \"pruned_by_distance_cap\": " +
          std::to_string(streaming_stats.pruned_by_distance_cap) + ",\n";
  json += "    \"pruned_by_jaro\": " +
          std::to_string(streaming_stats.pruned_by_jaro) + ",\n";
  json += "    \"pruned_by_running_best\": " +
          std::to_string(streaming_stats.pruned_by_running_best) + ",\n";
  json += "    \"peak_candidate_run\": " +
          std::to_string(streaming_stats.peak_candidate_run) + ",\n";
  json += "    \"links\": " + std::to_string(streaming_links.size()) + ",\n";
  json += "    \"streaming_ms\": " + util::FormatDouble(streaming_ms, 3) +
          ",\n";
  json += "    \"instrumented_ms\": " +
          util::FormatDouble(instrumented_ms, 3) + ",\n";
  json += "    \"overhead_reps\": " + std::to_string(kOverheadReps) + ",\n";
  json += "    \"passes_per_leg\": " + std::to_string(passes) + ",\n";
  json += "    \"instrumentation_overhead_pct\": " +
          util::FormatDouble(overhead_pct, 3) + "\n  },\n";
  return json;
}

// BM_FilterCascade's fixture: StreamingMatcher feature caches and the
// blocker's inverted index over the paper corpus, plus the total
// candidate-pair count the throughput divides by.
struct StreamingFixture {
  linking::ItemMatcher matcher;
  linking::FeatureDictionary dict;
  linking::FeatureCache external;
  linking::FeatureCache local;
  std::unique_ptr<blocking::CandidateIndex> index;
  std::size_t candidate_pairs = 0;

  StreamingFixture() : matcher(StreamingMatcher()) {
    const datagen::Dataset& dataset = PaperDataset();
    external = linking::FeatureCache::Build(
        dataset.external_items, matcher,
        linking::FeatureCache::Side::kExternal, &dict, 1);
    local = linking::FeatureCache::Build(dataset.catalog_items, matcher,
                                         linking::FeatureCache::Side::kLocal,
                                         &dict, 1);
    const blocking::StandardBlocker blocker(datagen::props::kPartNumber,
                                            /*prefix_length=*/4);
    index =
        blocker.BuildIndex(dataset.external_items, dataset.catalog_items);
    std::vector<std::size_t> run;
    for (std::size_t e = 0; e < index->num_external(); ++e) {
      index->CandidatesOf(e, &run);
      candidate_pairs += run.size();
    }
  }
};

const StreamingFixture& GetStreamingFixture() {
  static const StreamingFixture* fixture = new StreamingFixture();
  return *fixture;
}

// Thread-count sweep of the full streaming pipeline (cache build
// included), recorded to BENCH_linking.json. Oversubscribed points (beyond
// the hardware) are flagged in the JSON; the morsel scheduler keeps them
// productive instead of clamping them away.
void PrintThreadSweepReport(const std::string& pipeline_json) {
  const Fixture& fixture = GetFixture();
  std::cout << "=== E6b: streaming pipeline thread-count sweep ("
            << fixture.candidates.size()
            << " candidates, hardware_concurrency = "
            << std::thread::hardware_concurrency() << ") ===\n";
  util::TextTable table({"threads", "total (ms)", "speedup vs 1"});
  std::vector<ThreadSweepPoint> points;
  double serial_ms = 0.0;
  for (std::size_t threads : {1u, 2u, 4u, 8u}) {
    const PipelineTiming t = TimePipeline(fixture, threads);
    if (threads == 1) serial_ms = t.ms;
    points.push_back({threads, t.ms, t.scheduler});
    table.AddRow({std::to_string(threads), util::FormatDouble(t.ms, 1),
                  serial_ms > 0.0
                      ? util::FormatDouble(serial_ms / t.ms, 2) + "x"
                      : "-"});
  }
  WriteThreadSweepJson("linking",
                       "Streaming linking pipeline on the paper-scale corpus",
                       points, pipeline_json);
  std::cout << table.ToText()
            << "(identical links at every thread count; trajectory written "
               "to BENCH_linking.json)\n\n";
}

void BM_ScoreReferencePair(benchmark::State& state) {
  const Fixture& fixture = GetFixture();
  const auto& candidates = fixture.candidates;
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& pair = candidates[i % candidates.size()];
    benchmark::DoNotOptimize(fixture.matcher.Score(
        fixture.dataset->external_items[pair.external_index],
        fixture.dataset->catalog_items[pair.local_index]));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ScoreReferencePair);

// ItemMatcher::ScoreRun over a run of one candidate per iteration.
void BM_ScoreRunPair(benchmark::State& state) {
  const Fixture& fixture = GetFixture();
  const bool use_memo = state.range(0) != 0;
  linking::FeatureDictionary dict;
  const auto external = linking::FeatureCache::Build(
      fixture.dataset->external_items, fixture.matcher,
      linking::FeatureCache::Side::kExternal, &dict, 1);
  const auto local = linking::FeatureCache::Build(
      fixture.dataset->catalog_items, fixture.matcher,
      linking::FeatureCache::Side::kLocal, &dict, 1);
  linking::ScoreMemo memo;
  linking::ScoreRunScratch scratch;
  const auto& candidates = fixture.candidates;
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& pair = candidates[i % candidates.size()];
    fixture.matcher.ScoreRun(external, pair.external_index, local,
                             &pair.local_index, 1,
                             use_memo ? &memo : nullptr, nullptr, &scratch);
    benchmark::DoNotOptimize(scratch.scores[0]);
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ScoreRunPair)
    ->Arg(0)   // no memo: pure dense-id scoring
    ->Arg(1);  // with memo: steady-state catalog-value reuse

// One rule per measure, on the fixture's candidates that hold a single
// value on each side (so the score is the kernel's), in blocker order.
struct MeasureCase {
  const char* property;
  const char* property_name;
  linking::SimilarityMeasure measure;
};
constexpr MeasureCase kMeasureCases[] = {
    {datagen::props::kPartNumber, "part number",
     linking::SimilarityMeasure::kLevenshtein},
    {datagen::props::kPartNumber, "part number",
     linking::SimilarityMeasure::kJaroWinkler},
    {datagen::props::kManufacturer, "manufacturer",
     linking::SimilarityMeasure::kJaroWinkler},
    {datagen::props::kManufacturer, "manufacturer",
     linking::SimilarityMeasure::kMongeElkan},
};

// What the score memo costs or saves per measure (DESIGN.md §5d). Arg 0
// picks a kMeasureCases entry; arg 1 = 0 scores every pair through
// ScoreRun over a run of one without a memo, arg 1 = 1 puts a
// lookup-or-insert on the (value-id, value-id) key of a node map like
// ScoreMemo's in front, the way ScoreRun memoizes Monge-Elkan. Each
// iteration is one pass over the pairs from an empty memo, so
// `memo_hit_rate` is the share of pairs whose value pair an earlier pair
// already scored: the repetition the memo lives on.
void BM_ScoreRunMeasure(benchmark::State& state) {
  const Fixture& fixture = GetFixture();
  const MeasureCase& measure_case =
      kMeasureCases[static_cast<std::size_t>(state.range(0))];
  const bool use_memo = state.range(1) != 0;
  const linking::ItemMatcher matcher({{measure_case.property,
                                       measure_case.property,
                                       measure_case.measure, 1.0}});
  linking::FeatureDictionary dict;
  const auto external = linking::FeatureCache::Build(
      fixture.dataset->external_items, matcher,
      linking::FeatureCache::Side::kExternal, &dict, 1);
  const auto local = linking::FeatureCache::Build(
      fixture.dataset->catalog_items, matcher,
      linking::FeatureCache::Side::kLocal, &dict, 1);
  struct Pair {
    std::size_t external_index;
    std::size_t local_index;
    std::uint64_t key;
  };
  std::vector<Pair> pairs;
  for (const auto& candidate : fixture.candidates) {
    std::size_t num_ext = 0;
    std::size_t num_loc = 0;
    const linking::ValueId* ext =
        external.Values(candidate.external_index, 0, &num_ext);
    const linking::ValueId* loc =
        local.Values(candidate.local_index, 0, &num_loc);
    if (num_ext != 1 || num_loc != 1) continue;
    pairs.push_back({candidate.external_index, candidate.local_index,
                     util::PackSymbolPair(*ext, *loc)});
  }
  linking::ScoreRunScratch scratch;
  const auto score = [&](const Pair& pair) {
    matcher.ScoreRun(external, pair.external_index, local, &pair.local_index,
                     1, nullptr, nullptr, &scratch);
    return scratch.scores[0];
  };
  std::unordered_map<std::uint64_t, double> memo;
  std::uint64_t hits = 0;
  for (auto _ : state) {
    state.PauseTiming();
    memo = {};
    state.ResumeTiming();
    for (const Pair& pair : pairs) {
      if (!use_memo) {
        benchmark::DoNotOptimize(score(pair));
        continue;
      }
      const auto [it, inserted] = memo.try_emplace(pair.key, 0.0);
      if (inserted) {
        it->second = score(pair);
      } else {
        ++hits;
      }
      benchmark::DoNotOptimize(it->second);
    }
  }
  const auto scored = static_cast<std::int64_t>(state.iterations()) *
                      static_cast<std::int64_t>(pairs.size());
  state.SetItemsProcessed(scored);
  state.SetLabel(std::string(linking::SimilarityMeasureName(
                     measure_case.measure)) +
                 " on " + measure_case.property_name);
  if (use_memo && scored > 0) {
    state.counters["memo_hit_rate"] =
        static_cast<double>(hits) / static_cast<double>(scored);
  }
}
BENCHMARK(BM_ScoreRunMeasure)
    ->ArgsProduct({{0, 1, 2, 3}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

void BM_CacheBuild(benchmark::State& state) {
  const Fixture& fixture = GetFixture();
  for (auto _ : state) {
    linking::FeatureDictionary dict;
    const auto external = linking::FeatureCache::Build(
        fixture.dataset->external_items, fixture.matcher,
        linking::FeatureCache::Side::kExternal, &dict, 1);
    const auto local = linking::FeatureCache::Build(
        fixture.dataset->catalog_items, fixture.matcher,
        linking::FeatureCache::Side::kLocal, &dict, 1);
    benchmark::DoNotOptimize(local.num_items());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(fixture.dataset->external_items.size() +
                                fixture.dataset->catalog_items.size()));
}
BENCHMARK(BM_CacheBuild)->Unit(benchmark::kMillisecond);

// The streaming linker over prebuilt caches and the blocker's index at
// 1-8 threads: the inverted index feeds per-external candidate runs and
// the filter cascade runs ahead of the scorer.
void BM_RunStreamingThreads(benchmark::State& state) {
  const Fixture& fixture = GetFixture();
  const std::size_t threads = static_cast<std::size_t>(state.range(0));
  linking::FeatureDictionary dict;
  const auto external = linking::FeatureCache::Build(
      fixture.dataset->external_items, fixture.matcher,
      linking::FeatureCache::Side::kExternal, &dict, 1);
  const auto local = linking::FeatureCache::Build(
      fixture.dataset->catalog_items, fixture.matcher,
      linking::FeatureCache::Side::kLocal, &dict, 1);
  const auto index = fixture.blocker.BuildIndex(
      fixture.dataset->external_items, fixture.dataset->catalog_items);
  const linking::StreamingLinker streaming(&fixture.matcher, kThreshold);
  for (auto _ : state) {
    const auto links =
        streaming.Run(*index, external, local, nullptr, threads);
    benchmark::DoNotOptimize(links.size());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(fixture.candidates.size()));
}
BENCHMARK(BM_RunStreamingThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

// PruneBatch over every candidate run, stage A and stage B. Items =
// candidate pairs, bytes untouched (stage A reads 32-byte slot records,
// not strings — that asymmetry is the point).
void BM_FilterCascade(benchmark::State& state) {
  const StreamingFixture& fixture = GetStreamingFixture();
  const linking::FilterCascade cascade(&fixture.matcher, kThreshold);
  linking::FilterBatchScratch scratch;
  std::vector<std::size_t> run;
  for (auto _ : state) {
    linking::FilterStats stats;
    for (std::size_t e = 0; e < fixture.index->num_external(); ++e) {
      fixture.index->CandidatesOf(e, &run);
      if (run.empty()) continue;
      cascade.PruneBatch(fixture.external, e, fixture.local, run.data(),
                         run.size(), &stats, &scratch);
    }
    benchmark::DoNotOptimize(stats.pairs_pruned);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(fixture.candidate_pairs));
}
BENCHMARK(BM_FilterCascade)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace rulelink::bench

int main(int argc, char** argv) {
  rulelink::bench::ApplyPinningFromEnv();
  std::string pipeline_json = rulelink::bench::PrintPipelineReport();
  pipeline_json += rulelink::bench::PrintStreamingReport();
  rulelink::bench::PrintThreadSweepReport(pipeline_json);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
