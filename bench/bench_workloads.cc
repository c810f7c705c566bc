// Experiment E9: request-replay over the million-scale workload suite.
// The workload generator (src/datagen/workload.h) synthesizes a catalog
// and a skewed provider query stream from any KeyChooser distribution;
// this driver replays the stream request by request through the streaming
// linker's per-external core (candidate index probe ->
// StreamingLinker::QueryRun: filter cascade -> run scorer ->
// best-per-external decision) and reports per-request latency
// percentiles from the log2 obs::Histogram — the serving-side view the
// batch benches cannot give. Each sweep point (catalog size x skew x
// dirtiness) is cross-checked against StreamingLinker::Run over the same
// index and caches: the replayed links must be byte-identical. Results
// land in BENCH_workloads.json.
//
// Sweep selection: RULELINK_WORKLOAD_SWEEP = "smoke" (one tiny point, for
// Debug smoke runs), unset or "ci" (<= 100k catalogs), "full" (adds the
// million-item point).
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "blocking/standard_blocking.h"
#include "datagen/key_chooser.h"
#include "datagen/workload.h"
#include "linking/feature_cache.h"
#include "linking/filters.h"
#include "linking/linker.h"
#include "linking/matcher.h"
#include "linking/query_scratch.h"
#include "linking/streaming_linker.h"
#include "obs/metrics.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "util/table.h"

namespace rulelink::bench {
namespace {

constexpr double kThreshold = 0.6;

// Same shape as bench_linking's streaming matcher: a Levenshtein rule the
// cascade can bound, token/bigram/exact rules on the part number, and a
// Monge-Elkan manufacturer rule with no cheap bound.
linking::ItemMatcher ReplayMatcher() {
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

struct SweepPoint {
  std::size_t catalog_size = 0;
  datagen::Distribution skew = datagen::Distribution::kZipfian;
  bool dirty = false;
};

// Query volume scales with the catalog but stays bounded so the full
// sweep finishes in CI time.
std::size_t QueriesFor(std::size_t catalog_size) {
  const std::size_t q = catalog_size / 5;
  if (q < 2000) return 2000;
  if (q > 20000) return 20000;
  return q;
}

std::vector<SweepPoint> SweepFor(const std::string& mode) {
  std::vector<SweepPoint> points;
  if (mode == "smoke") {
    points.push_back({5000, datagen::Distribution::kZipfian, true});
    return points;
  }
  for (const std::size_t size : {std::size_t{25000}, std::size_t{100000}}) {
    for (const datagen::Distribution skew :
         {datagen::Distribution::kUniform, datagen::Distribution::kZipfian,
          datagen::Distribution::kHotset, datagen::Distribution::kLatest}) {
      points.push_back({size, skew, false});
      points.push_back({size, skew, true});
    }
  }
  if (mode == "full") {
    points.push_back({1000000, datagen::Distribution::kZipfian, true});
    points.push_back({1000000, datagen::Distribution::kLatest, true});
  }
  return points;
}

struct ReplayResult {
  std::size_t queries = 0;
  std::size_t links = 0;
  linking::LinkerStats stats;
  obs::Histogram latency_ns;  // one observation per request
  double replay_seconds = 0.0;
  double generate_ms = 0.0;  // catalog + query stream
  double build_ms = 0.0;     // dictionary, caches, candidate index
};

// Replays the stream one request at a time through exactly the streaming
// linker's inner loop: index probe, then StreamingLinker::QueryRun over
// one reused QueryScratch. Returns the per-request latency histogram and
// the replayed links for the differential check.
ReplayResult ReplayPoint(const SweepPoint& point,
                         std::vector<linking::Link>* replayed_links) {
  using ClockNs = std::chrono::steady_clock;
  ReplayResult result;

  util::Stopwatch generate_timer;
  datagen::WorkloadConfig catalog_config;
  catalog_config.catalog_size = point.catalog_size;
  auto catalog_result = datagen::GenerateWorkloadCatalog(catalog_config);
  RL_CHECK(catalog_result.ok()) << catalog_result.status();
  const datagen::WorkloadCatalog catalog = std::move(catalog_result).value();

  datagen::QueryStreamConfig query_config;
  query_config.num_queries = QueriesFor(point.catalog_size);
  query_config.chooser.distribution = point.skew;
  if (point.dirty) {
    query_config.typo_prob = 0.08;
    query_config.truncate_prob = 0.05;
  } else {
    query_config.typo_prob = 0.0;
    query_config.truncate_prob = 0.0;
  }
  auto stream_result = datagen::GenerateQueryStream(catalog, query_config);
  RL_CHECK(stream_result.ok()) << stream_result.status();
  const datagen::QueryStream stream = std::move(stream_result).value();
  result.generate_ms = generate_timer.ElapsedMillis();
  result.queries = stream.queries.size();

  const linking::ItemMatcher matcher = ReplayMatcher();
  util::Stopwatch build_timer;
  linking::FeatureDictionary dict;
  const auto external = linking::FeatureCache::Build(
      stream.queries, matcher, linking::FeatureCache::Side::kExternal, &dict);
  const auto local = linking::FeatureCache::Build(
      catalog.items, matcher, linking::FeatureCache::Side::kLocal, &dict);
  const blocking::StandardBlocker blocker(datagen::props::kPartNumber,
                                          /*prefix_length=*/4);
  const auto index = blocker.BuildIndex(stream.queries, catalog.items);
  result.build_ms = build_timer.ElapsedMillis();

  const linking::StreamingLinker streaming(&matcher, kThreshold);
  linking::QueryScratch scratch;
  linking::FilterStats filter_stats;
  replayed_links->clear();
  util::Stopwatch replay_timer;
  for (std::size_t e = 0; e < stream.queries.size(); ++e) {
    const ClockNs::time_point start = ClockNs::now();
    index->CandidatesOf(e, &scratch.run);
    result.stats.peak_candidate_run =
        std::max(result.stats.peak_candidate_run, scratch.run.size());
    streaming.QueryRun(external, e, local, &scratch, &filter_stats,
                       &result.stats.comparisons, &result.stats.pairs_scored,
                       replayed_links);
    const auto nanos = std::chrono::duration_cast<std::chrono::nanoseconds>(
                           ClockNs::now() - start)
                           .count();
    result.latency_ns.Observe(static_cast<std::uint64_t>(nanos));
  }
  result.replay_seconds = replay_timer.ElapsedSeconds();
  linking::AddFilterStats(filter_stats, &result.stats);
  result.links = replayed_links->size();
  result.stats.links_emitted = replayed_links->size();

  // Differential anchor: the replayed links must be byte-identical to the
  // batch streaming path over the same index and caches.
  linking::LinkerStats streaming_stats;
  const auto reference = streaming.Run(*index, external, local,
                                       &streaming_stats, /*num_threads=*/0);
  RL_CHECK(reference.size() == replayed_links->size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    RL_CHECK(reference[i].external_index ==
                 (*replayed_links)[i].external_index &&
             reference[i].local_index == (*replayed_links)[i].local_index &&
             reference[i].score == (*replayed_links)[i].score);
  }
  RL_CHECK(streaming_stats.pairs_scored == result.stats.pairs_scored);
  RL_CHECK(streaming_stats.pairs_pruned_by_filter ==
           result.stats.pairs_pruned_by_filter);
  return result;
}

double QuantileUs(const obs::Histogram& h, double q) {
  return h.ValueAtQuantile(q) / 1000.0;
}

std::string PointJson(const SweepPoint& point, const ReplayResult& r) {
  const double qps =
      r.replay_seconds > 0.0
          ? static_cast<double>(r.queries) / r.replay_seconds
          : 0.0;
  std::string json = "    {\"catalog_size\": " +
                     std::to_string(point.catalog_size) + ",\n";
  json += "     \"skew\": \"" + std::string(DistributionName(point.skew)) +
          "\",\n";
  json += "     \"dirtiness\": \"" +
          std::string(point.dirty ? "dirty" : "clean") + "\",\n";
  json += "     \"queries\": " + std::to_string(r.queries) + ",\n";
  json += "     \"links\": " + std::to_string(r.links) + ",\n";
  json += "     \"pairs_scored\": " + std::to_string(r.stats.pairs_scored) +
          ",\n";
  json += "     \"pairs_pruned_by_filter\": " +
          std::to_string(r.stats.pairs_pruned_by_filter) + ",\n";
  json += "     \"peak_candidate_run\": " +
          std::to_string(r.stats.peak_candidate_run) + ",\n";
  json += "     \"generate_ms\": " + util::FormatDouble(r.generate_ms, 3) +
          ",\n";
  json += "     \"build_ms\": " + util::FormatDouble(r.build_ms, 3) + ",\n";
  json += "     \"p50_us\": " +
          util::FormatDouble(QuantileUs(r.latency_ns, 0.5), 3) + ",\n";
  json += "     \"p95_us\": " +
          util::FormatDouble(QuantileUs(r.latency_ns, 0.95), 3) + ",\n";
  json += "     \"p99_us\": " +
          util::FormatDouble(QuantileUs(r.latency_ns, 0.99), 3) + ",\n";
  json += "     \"p999_us\": " +
          util::FormatDouble(QuantileUs(r.latency_ns, 0.999), 3) + ",\n";
  json += "     \"max_us\": " +
          util::FormatDouble(static_cast<double>(r.latency_ns.max()) / 1000.0,
                             3) +
          ",\n";
  json += "     \"qps\": " + util::FormatDouble(qps, 1) + "}";
  return json;
}

void RunSweep() {
  const char* env = std::getenv("RULELINK_WORKLOAD_SWEEP");
  const std::string mode = env != nullptr ? env : "ci";
  const std::vector<SweepPoint> sweep = SweepFor(mode);
  std::cout << "=== E9: request-replay workload sweep (" << sweep.size()
            << " points, mode=" << mode << ") ===\n";
  util::TextTable table({"catalog", "skew", "dirt", "queries", "links",
                         "p50 (us)", "p95 (us)", "p99 (us)", "p999 (us)",
                         "qps"});
  std::string points_json;
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const SweepPoint& point = sweep[i];
    std::vector<linking::Link> links;
    const ReplayResult r = ReplayPoint(point, &links);
    table.AddRow({std::to_string(point.catalog_size),
                  DistributionName(point.skew),
                  point.dirty ? "dirty" : "clean",
                  std::to_string(r.queries), std::to_string(r.links),
                  util::FormatDouble(QuantileUs(r.latency_ns, 0.5), 1),
                  util::FormatDouble(QuantileUs(r.latency_ns, 0.95), 1),
                  util::FormatDouble(QuantileUs(r.latency_ns, 0.99), 1),
                  util::FormatDouble(QuantileUs(r.latency_ns, 0.999), 1),
                  util::FormatDouble(
                      r.replay_seconds > 0.0
                          ? static_cast<double>(r.queries) / r.replay_seconds
                          : 0.0,
                      0)});
    points_json += PointJson(point, r);
    points_json += i + 1 < sweep.size() ? ",\n" : "\n";
  }
  std::cout << table.ToText()
            << "(replayed links byte-identical to StreamingLinker::Run at "
               "every point; written to BENCH_workloads.json)\n\n";

  std::ofstream out("BENCH_workloads.json");
  if (!out) return;
  out << "{\n  \"bench\": \"workloads\",\n  \"sweep_mode\": \"" << mode
      << "\",\n  \"hardware_concurrency\": "
      << std::thread::hardware_concurrency() << ",\n  \"threshold\": "
      << util::FormatDouble(kThreshold, 2) << ",\n  \"points\": [\n"
      << points_json << "  ]\n}\n";
}

// --- Micro benchmarks: sampler draw cost per distribution. ---

const datagen::KeyChooser& ChooserFor(datagen::Distribution distribution) {
  static std::vector<std::unique_ptr<datagen::KeyChooser>>* choosers = [] {
    auto* built = new std::vector<std::unique_ptr<datagen::KeyChooser>>();
    for (int d = 0; d <= static_cast<int>(datagen::Distribution::kHistogram);
         ++d) {
      datagen::KeyChooserConfig config;
      config.distribution = static_cast<datagen::Distribution>(d);
      config.num_keys = 1000000;
      config.histogram_weights = {8.0, 4.0, 2.0, 1.0};
      auto result = datagen::MakeKeyChooser(config);
      RL_CHECK(result.ok()) << result.status();
      built->push_back(std::move(result).value());
    }
    return built;
  }();
  return *(*choosers)[static_cast<std::size_t>(distribution)];
}

void BM_KeyChooserNext(benchmark::State& state) {
  const auto distribution =
      static_cast<datagen::Distribution>(state.range(0));
  const datagen::KeyChooser& chooser = ChooserFor(distribution);
  state.SetLabel(chooser.name());
  util::Rng rng(12345);
  for (auto _ : state) {
    benchmark::DoNotOptimize(chooser.Next(&rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KeyChooserNext)
    ->DenseRange(0, static_cast<int>(datagen::Distribution::kHistogram), 1);

void BM_GenerateKeyStream(benchmark::State& state) {
  const std::size_t threads = static_cast<std::size_t>(state.range(0));
  const datagen::KeyChooser& chooser =
      ChooserFor(datagen::Distribution::kScrambledZipfian);
  constexpr std::size_t kCount = 100000;
  for (auto _ : state) {
    const auto keys = datagen::GenerateKeyStream(chooser, 42, kCount, threads);
    benchmark::DoNotOptimize(keys.data());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(kCount));
}
BENCHMARK(BM_GenerateKeyStream)->Arg(1)->Arg(2)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_GenerateWorkloadCatalog(benchmark::State& state) {
  const std::size_t threads = static_cast<std::size_t>(state.range(0));
  datagen::WorkloadConfig config;
  config.catalog_size = 50000;
  for (auto _ : state) {
    auto result = datagen::GenerateWorkloadCatalog(config, threads);
    RL_CHECK(result.ok()) << result.status();
    benchmark::DoNotOptimize(result.value().items.size());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(config.catalog_size));
}
BENCHMARK(BM_GenerateWorkloadCatalog)->Arg(1)->Arg(8)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace rulelink::bench

int main(int argc, char** argv) {
  rulelink::bench::ApplyPinningFromEnv();
  rulelink::bench::RunSweep();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
