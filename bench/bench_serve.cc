// Concurrent-replay throughput for the resident serving engine
// (DESIGN.md §5i). A linking::ServeSnapshot over a workload catalog is
// published once; N closed-loop client threads (one ServeEngine::Session
// each) drain the PR 6 query stream through Session::Query and the bench
// reports QPS plus p50/p95/p99/p999 per-request latency from merged log2
// obs::Histograms, with the per-point scheduler counter deltas the other
// sweep benches carry. Every served answer is checked against a
// batch StreamingLinker::Run over the same catalog — byte-identical links,
// at every client count.
//
// The swap-under-load point then republishes fresh snapshots of the same
// catalog while clients keep querying: every answer must still match the
// batch reference (each query is served from exactly one generation, and
// all generations here serve the same catalog), reader_blocks must stay
// zero (readers never wait on a writer), and after the clients drain,
// every retired snapshot must be reclaimed (no leaks). Results land in
// BENCH_serve.json.
//
// Sweep selection: RULELINK_SERVE_SWEEP = "smoke" (tiny, Debug smoke),
// unset or "ci" (25k catalog), "full" (adds a 200k-catalog point's worth
// of queries).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "blocking/standard_blocking.h"
#include "datagen/key_chooser.h"
#include "datagen/workload.h"
#include "linking/feature_cache.h"
#include "linking/linker.h"
#include "linking/matcher.h"
#include "linking/serve_engine.h"
#include "linking/streaming_linker.h"
#include "obs/metrics.h"
#include "util/epoch.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace rulelink::bench {
namespace {

constexpr double kThreshold = 0.6;

// Same rule set as the request-replay bench: a cascade-boundable
// Levenshtein rule, token/bigram/exact part-number rules, and a
// Monge-Elkan manufacturer rule with no cheap bound.
std::vector<linking::AttributeRule> ServeRules() {
  return {
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
  };
}

struct ServeWorkload {
  std::vector<core::Item> catalog;
  std::vector<core::Item> queries;
  // Batch reference answer per query: the links StreamingLinker::Run
  // emits for that external item (<= 1 under best-per-external).
  std::vector<std::vector<linking::Link>> expected;
};

ServeWorkload BuildWorkload(std::size_t catalog_size, std::size_t queries) {
  ServeWorkload w;
  datagen::WorkloadConfig catalog_config;
  catalog_config.catalog_size = catalog_size;
  auto catalog_result = datagen::GenerateWorkloadCatalog(catalog_config);
  RL_CHECK(catalog_result.ok()) << catalog_result.status();
  datagen::WorkloadCatalog catalog = std::move(catalog_result).value();

  datagen::QueryStreamConfig query_config;
  query_config.num_queries = queries;
  query_config.chooser.distribution = datagen::Distribution::kZipfian;
  query_config.typo_prob = 0.08;
  query_config.truncate_prob = 0.05;
  auto stream_result = datagen::GenerateQueryStream(catalog, query_config);
  RL_CHECK(stream_result.ok()) << stream_result.status();
  w.queries = std::move(stream_result).value().queries;
  w.catalog = std::move(catalog.items);

  // The batch reference the served answers must reproduce byte for byte.
  const linking::ItemMatcher matcher(ServeRules());
  linking::FeatureDictionary dict;
  const auto external = linking::FeatureCache::Build(
      w.queries, matcher, linking::FeatureCache::Side::kExternal, &dict);
  const auto local = linking::FeatureCache::Build(
      w.catalog, matcher, linking::FeatureCache::Side::kLocal, &dict);
  const blocking::StandardBlocker blocker(datagen::props::kPartNumber,
                                          /*prefix_length=*/4);
  const auto index = blocker.BuildIndex(w.queries, w.catalog);
  const linking::StreamingLinker streaming(&matcher, kThreshold);
  const auto links = streaming.Run(*index, external, local);
  w.expected.resize(w.queries.size());
  for (const linking::Link& link : links) {
    w.expected[link.external_index].push_back(link);
  }
  return w;
}

std::unique_ptr<linking::ServeSnapshot> MakeSnapshot(
    const ServeWorkload& w, const blocking::StandardBlocker& blocker) {
  return std::make_unique<linking::ServeSnapshot>(
      w.catalog, linking::ItemMatcher(ServeRules()), kThreshold,
      linking::Linker::Strategy::kBestPerExternal, blocker);
}

bool SameLinks(const std::vector<linking::Link>& a,
               const std::vector<linking::Link>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].external_index != b[i].external_index ||
        a[i].local_index != b[i].local_index || a[i].score != b[i].score) {
      return false;
    }
  }
  return true;
}

struct PointResult {
  std::size_t clients = 0;
  double seconds = 0.0;
  std::size_t queries = 0;
  std::size_t pairs_scored = 0;
  std::size_t mismatches = 0;
  obs::Histogram latency_ns;
  util::SchedulerTotals scheduler;
};

// One closed-loop replay: `clients` sessions race an atomic ticket over
// the query stream, each checking its answer against the batch reference
// in place. Returns merged latency and cumulative counters.
PointResult ReplayPoint(linking::ServeEngine* engine, const ServeWorkload& w,
                        std::size_t clients) {
  using ClockNs = std::chrono::steady_clock;
  PointResult result;
  result.clients = clients;
  result.queries = w.queries.size();

  const util::SchedulerTotals sched_before = util::GlobalSchedulerTotals();
  std::atomic<std::size_t> ticket{0};
  std::atomic<std::size_t> mismatches{0};
  std::atomic<std::size_t> pairs{0};
  std::vector<obs::Histogram> latencies(clients);
  util::Stopwatch timer;
  auto client = [&](std::size_t c) {
    linking::ServeEngine::Session session(engine);
    std::vector<linking::Link> answer;
    std::size_t q;
    std::size_t bad = 0;
    while ((q = ticket.fetch_add(1, std::memory_order_relaxed)) <
           w.queries.size()) {
      const ClockNs::time_point start = ClockNs::now();
      session.Query(w.queries[q], &answer, q);
      const auto nanos =
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              ClockNs::now() - start)
              .count();
      latencies[c].Observe(static_cast<std::uint64_t>(nanos));
      if (!SameLinks(answer, w.expected[q])) ++bad;
    }
    mismatches.fetch_add(bad, std::memory_order_relaxed);
    pairs.fetch_add(session.pairs_scored(), std::memory_order_relaxed);
  };
  if (clients == 1) {
    client(0);
  } else {
    std::vector<std::thread> workers;
    for (std::size_t c = 0; c < clients; ++c) {
      workers.emplace_back(client, c);
    }
    for (std::thread& worker : workers) worker.join();
  }
  result.seconds = timer.ElapsedSeconds();
  for (const obs::Histogram& h : latencies) result.latency_ns.Merge(h);
  result.mismatches = mismatches.load(std::memory_order_relaxed);
  result.pairs_scored = pairs.load(std::memory_order_relaxed);
  result.scheduler = util::GlobalSchedulerTotals().Minus(sched_before);
  return result;
}

struct SwapResult {
  std::size_t clients = 0;
  std::size_t swaps = 0;
  std::size_t queries_served = 0;
  std::size_t mismatches = 0;
  std::size_t wrong_generation = 0;
  double seconds = 0.0;
  obs::Histogram latency_ns;
  util::EpochStats epochs;
};

// Republishes fresh snapshots of the same catalog while clients keep
// replaying the stream: answers must stay byte-identical (every query is
// served from exactly one generation and every generation serves the same
// catalog), readers must never block, and once the clients drain every
// retired snapshot must have been reclaimed.
SwapResult SwapUnderLoad(const ServeWorkload& w, std::size_t clients,
                         std::size_t swaps) {
  using ClockNs = std::chrono::steady_clock;
  const blocking::StandardBlocker blocker(datagen::props::kPartNumber,
                                          /*prefix_length=*/4);
  linking::ServeEngine engine;
  engine.Publish(MakeSnapshot(w, blocker));

  SwapResult result;
  result.clients = clients;
  std::atomic<bool> done{false};
  std::atomic<std::size_t> served{0};
  std::atomic<std::size_t> mismatches{0};
  std::atomic<std::size_t> wrong_generation{0};
  std::vector<obs::Histogram> latencies(clients);
  util::Stopwatch timer;

  auto client = [&](std::size_t c) {
    linking::ServeEngine::Session session(&engine);
    std::vector<linking::Link> answer;
    std::size_t bad = 0, generations = 0, count = 0;
    // Keep replaying until the writer has published all its generations,
    // then finish the current pass so swaps always overlap live queries.
    while (true) {
      const bool final_pass = done.load(std::memory_order_acquire);
      for (std::size_t q = c; q < w.queries.size(); q += clients) {
        const ClockNs::time_point start = ClockNs::now();
        const std::uint64_t generation =
            session.Query(w.queries[q], &answer, q);
        const auto nanos =
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                ClockNs::now() - start)
                .count();
        latencies[c].Observe(static_cast<std::uint64_t>(nanos));
        ++count;
        if (!SameLinks(answer, w.expected[q])) ++bad;
        if (generation < 1 || generation > swaps + 1) ++generations;
      }
      if (final_pass) break;
    }
    served.fetch_add(count, std::memory_order_relaxed);
    mismatches.fetch_add(bad, std::memory_order_relaxed);
    wrong_generation.fetch_add(generations, std::memory_order_relaxed);
  };
  std::vector<std::thread> workers;
  for (std::size_t c = 0; c < clients; ++c) workers.emplace_back(client, c);
  // Writer: rebuild + publish back-to-back. Snapshot construction (the
  // full feature build) is the natural pacing between swaps.
  for (std::size_t s = 0; s < swaps; ++s) {
    engine.Publish(MakeSnapshot(w, blocker));
  }
  done.store(true, std::memory_order_release);
  for (std::thread& worker : workers) worker.join();
  result.seconds = timer.ElapsedSeconds();

  engine.ReclaimRetired();
  result.swaps = swaps;
  result.queries_served = served.load(std::memory_order_relaxed);
  result.mismatches = mismatches.load(std::memory_order_relaxed);
  result.wrong_generation = wrong_generation.load(std::memory_order_relaxed);
  for (const obs::Histogram& h : latencies) result.latency_ns.Merge(h);
  result.epochs = engine.epoch_stats();
  return result;
}

double QuantileUs(const obs::Histogram& h, double q) {
  return h.ValueAtQuantile(q) / 1000.0;
}

struct PublishPoint {
  std::size_t catalog_size = 0;
  std::size_t delta_items = 0;
  double full_ms = 0.0;
  double delta_ms = 0.0;
  std::size_t mismatches = 0;
};

// Full-vs-delta publish latency (DESIGN.md §5j). For each catalog size N:
// a base snapshot of N items is published once, then a 1% append-only
// delta is published `reps` times (each onto the previous generation) and
// the best delta latency is compared against the best from-scratch
// rebuild of N + 1% items. A from-scratch snapshot of the delta engine's
// final catalog then serves a query subset side by side with the
// delta-built generation — answers must be byte-identical (the
// retirement/remap differential lives in serve_engine_test).
PublishPoint MeasureDeltaPublish(std::size_t catalog_size,
                                 std::size_t num_queries, int reps) {
  PublishPoint point;
  point.catalog_size = catalog_size;
  const std::size_t delta_items =
      std::max<std::size_t>(catalog_size / 100, 1);
  point.delta_items = delta_items;

  datagen::WorkloadConfig config;
  config.catalog_size =
      catalog_size + static_cast<std::size_t>(reps) * delta_items;
  auto catalog_result = datagen::GenerateWorkloadCatalog(config);
  RL_CHECK(catalog_result.ok()) << catalog_result.status();
  datagen::WorkloadCatalog catalog = std::move(catalog_result).value();
  datagen::QueryStreamConfig query_config;
  query_config.num_queries = num_queries;
  query_config.chooser.distribution = datagen::Distribution::kZipfian;
  query_config.typo_prob = 0.08;
  query_config.truncate_prob = 0.05;
  auto stream_result = datagen::GenerateQueryStream(catalog, query_config);
  RL_CHECK(stream_result.ok()) << stream_result.status();
  const std::vector<core::Item> queries =
      std::move(stream_result).value().queries;
  const std::vector<core::Item>& items = catalog.items;
  const auto strategy = linking::Linker::Strategy::kBestPerExternal;
  const blocking::StandardBlocker blocker(datagen::props::kPartNumber,
                                          /*prefix_length=*/4);

  // Full rebuilds of the first N + 1% items, best of `reps`.
  point.full_ms = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    std::vector<core::Item> full(
        items.begin(), items.begin() + catalog_size + delta_items);
    util::Stopwatch timer;
    const linking::ServeSnapshot snapshot(
        std::move(full), linking::ItemMatcher(ServeRules()), kThreshold,
        strategy, blocker);
    const double ms = timer.ElapsedMillis();
    if (rep == 0 || ms < point.full_ms) point.full_ms = ms;
  }

  // Delta publishes: 1% appended onto the resident engine's current
  // generation. Each rep extends the previous one, so every timed publish
  // interns new values past a frozen dictionary chain exactly as a
  // steady-state ingest would.
  linking::ServeEngine delta_engine;
  {
    std::vector<core::Item> base(items.begin(),
                                 items.begin() + catalog_size);
    delta_engine.Publish(std::make_unique<linking::ServeSnapshot>(
        std::move(base), linking::ItemMatcher(ServeRules()), kThreshold,
        strategy, blocker));
  }
  point.delta_ms = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    linking::CatalogDelta delta;
    delta.appended.assign(
        items.begin() + catalog_size + rep * delta_items,
        items.begin() + catalog_size + (rep + 1) * delta_items);
    util::Stopwatch timer;
    delta_engine.PublishDelta(std::move(delta), blocker);
    const double ms = timer.ElapsedMillis();
    if (rep == 0 || ms < point.delta_ms) point.delta_ms = ms;
  }

  // Differential: from-scratch snapshot of the final catalog vs the
  // delta-built chain, byte for byte over a query subset.
  linking::ServeEngine full_engine;
  {
    std::vector<core::Item> final_items(
        items.begin(),
        items.begin() + catalog_size +
            static_cast<std::size_t>(reps) * delta_items);
    full_engine.Publish(std::make_unique<linking::ServeSnapshot>(
        std::move(final_items), linking::ItemMatcher(ServeRules()),
        kThreshold, strategy, blocker));
  }
  linking::ServeEngine::Session delta_session(&delta_engine);
  linking::ServeEngine::Session full_session(&full_engine);
  std::vector<linking::Link> delta_answer, full_answer;
  const std::size_t check = std::min<std::size_t>(queries.size(), 500);
  for (std::size_t q = 0; q < check; ++q) {
    delta_session.Query(queries[q], &delta_answer, q);
    full_session.Query(queries[q], &full_answer, q);
    if (!SameLinks(delta_answer, full_answer)) ++point.mismatches;
  }
  return point;
}

std::string SchedulerJson(const util::SchedulerTotals& s) {
  return "{\"loops\": " + std::to_string(s.loops) +
         ", \"morsels\": " + std::to_string(s.morsels) +
         ", \"busy_micros\": " + std::to_string(s.busy_micros) + "}";
}

std::string PointJson(const PointResult& r, double serial_qps) {
  const double qps =
      r.seconds > 0.0 ? static_cast<double>(r.queries) / r.seconds : 0.0;
  std::string json =
      "    {\"clients\": " + std::to_string(r.clients) + ",\n";
  json += "     \"queries\": " + std::to_string(r.queries) + ",\n";
  json += "     \"seconds\": " + util::FormatDouble(r.seconds, 4) + ",\n";
  json += "     \"qps\": " + util::FormatDouble(qps, 1) + ",\n";
  if (serial_qps > 0.0) {
    json += "     \"speedup_vs_1\": " +
            util::FormatDouble(qps / serial_qps, 3) + ",\n";
  }
  if (r.clients > std::thread::hardware_concurrency()) {
    json += "     \"oversubscribed\": true,\n";
  }
  json += "     \"mismatches\": " + std::to_string(r.mismatches) + ",\n";
  json += "     \"pairs_scored\": " + std::to_string(r.pairs_scored) + ",\n";
  json += "     \"p50_us\": " +
          util::FormatDouble(QuantileUs(r.latency_ns, 0.5), 3) + ",\n";
  json += "     \"p95_us\": " +
          util::FormatDouble(QuantileUs(r.latency_ns, 0.95), 3) + ",\n";
  json += "     \"p99_us\": " +
          util::FormatDouble(QuantileUs(r.latency_ns, 0.99), 3) + ",\n";
  json += "     \"p999_us\": " +
          util::FormatDouble(QuantileUs(r.latency_ns, 0.999), 3) + ",\n";
  json += "     \"max_us\": " +
          util::FormatDouble(
              static_cast<double>(r.latency_ns.max()) / 1000.0, 3) +
          ",\n";
  json += "     \"scheduler\": " + SchedulerJson(r.scheduler) + "}";
  return json;
}

void RunServeSweep() {
  const char* env = std::getenv("RULELINK_SERVE_SWEEP");
  const std::string mode = env != nullptr ? env : "ci";
  std::size_t catalog_size = 25000;
  std::size_t queries = 4000;
  std::vector<std::size_t> client_counts = {1, 2, 4, 8};
  std::size_t swap_clients = 4;
  std::size_t swaps = 3;
  if (mode == "smoke") {
    catalog_size = 5000;
    queries = 1000;
    client_counts = {1, 2};
    swap_clients = 2;
    swaps = 2;
  } else if (mode == "full") {
    catalog_size = 200000;
    queries = 20000;
  }

  std::cout << "=== E10: resident serving engine, concurrent replay ("
            << catalog_size << " catalog, " << queries << " queries) ===\n";
  util::Stopwatch build_timer;
  const ServeWorkload w = BuildWorkload(catalog_size, queries);
  const blocking::StandardBlocker blocker(datagen::props::kPartNumber,
                                          /*prefix_length=*/4);
  linking::ServeEngine engine;
  engine.Publish(MakeSnapshot(w, blocker));
  const double build_ms = build_timer.ElapsedMillis();

  util::TextTable table({"clients", "qps", "speedup", "p50 (us)", "p95 (us)",
                         "p99 (us)", "p999 (us)", "mismatches"});
  std::string points_json;
  double serial_qps = 0.0;
  for (std::size_t i = 0; i < client_counts.size(); ++i) {
    const std::size_t clients = client_counts[i];
    ReplayPoint(&engine, w, clients);  // warm-up
    PointResult best = ReplayPoint(&engine, w, clients);
    for (int rep = 1; rep < 3; ++rep) {
      PointResult r = ReplayPoint(&engine, w, clients);
      if (r.seconds < best.seconds) best = std::move(r);
    }
    RL_CHECK(best.mismatches == 0)
        << best.mismatches << " served answers diverged from the batch run";
    const double qps =
        best.seconds > 0.0
            ? static_cast<double>(best.queries) / best.seconds
            : 0.0;
    if (clients == 1) serial_qps = qps;
    table.AddRow(
        {std::to_string(clients), util::FormatDouble(qps, 0),
         serial_qps > 0.0 ? util::FormatDouble(qps / serial_qps, 2) : "-",
         util::FormatDouble(QuantileUs(best.latency_ns, 0.5), 1),
         util::FormatDouble(QuantileUs(best.latency_ns, 0.95), 1),
         util::FormatDouble(QuantileUs(best.latency_ns, 0.99), 1),
         util::FormatDouble(QuantileUs(best.latency_ns, 0.999), 1),
         std::to_string(best.mismatches)});
    points_json += PointJson(best, serial_qps);
    points_json += i + 1 < client_counts.size() ? ",\n" : "\n";
  }

  const SwapResult swap = SwapUnderLoad(w, swap_clients, swaps);
  RL_CHECK(swap.mismatches == 0)
      << swap.mismatches << " answers diverged during snapshot swaps";
  RL_CHECK(swap.wrong_generation == 0);
  RL_CHECK(swap.epochs.reader_blocks == 0)
      << "readers blocked on a writer during swaps";
  RL_CHECK(swap.epochs.retired == swap.epochs.reclaimed &&
           swap.epochs.limbo == 0)
      << "retired snapshots leaked: retired " << swap.epochs.retired
      << ", reclaimed " << swap.epochs.reclaimed;

  // Delta-publish leg: full-vs-delta publish latency per catalog size.
  std::vector<std::size_t> publish_sizes = {10000, 100000};
  if (mode == "smoke") {
    publish_sizes = {10000};
  } else if (mode == "full") {
    publish_sizes = {10000, 100000, 1000000};
  }
  util::TextTable publish_table({"catalog", "delta items", "full (ms)",
                                 "delta (ms)", "speedup", "mismatches"});
  std::string publish_json;
  for (std::size_t i = 0; i < publish_sizes.size(); ++i) {
    const std::size_t size = publish_sizes[i];
    // One rep at the million-scale point: best-of-3 would triple several
    // full feature builds for a number the 100k point already gates.
    const PublishPoint p =
        MeasureDeltaPublish(size, /*num_queries=*/500,
                            /*reps=*/size >= 1000000 ? 1 : 3);
    RL_CHECK(p.mismatches == 0)
        << p.mismatches
        << " delta-served answers diverged from the from-scratch snapshot";
    const double speedup =
        p.delta_ms > 0.0 ? p.full_ms / p.delta_ms : 0.0;
    publish_table.AddRow({std::to_string(p.catalog_size),
                          std::to_string(p.delta_items),
                          util::FormatDouble(p.full_ms, 2),
                          util::FormatDouble(p.delta_ms, 2),
                          util::FormatDouble(speedup, 2),
                          std::to_string(p.mismatches)});
    publish_json += "    {\"catalog_size\": " + std::to_string(p.catalog_size) +
                    ", \"delta_items\": " + std::to_string(p.delta_items) +
                    ", \"full_ms\": " + util::FormatDouble(p.full_ms, 3) +
                    ", \"delta_ms\": " + util::FormatDouble(p.delta_ms, 3) +
                    ", \"speedup\": " + util::FormatDouble(speedup, 3) +
                    ", \"mismatches\": " + std::to_string(p.mismatches) + "}";
    publish_json += i + 1 < publish_sizes.size() ? ",\n" : "\n";
  }
  std::cout << "--- delta publish (1% append) vs full rebuild ---\n"
            << publish_table.ToText();

  const util::EpochStats epochs = engine.epoch_stats();
  std::cout << table.ToText() << "swap-under-load: " << swap.swaps
            << " swaps over " << swap.queries_served << " queries ("
            << swap.clients << " clients), 0 mismatches, reader blocks "
            << swap.epochs.reader_blocks << ", pin retries "
            << swap.epochs.pin_retries << ", retired "
            << swap.epochs.retired << " = reclaimed "
            << swap.epochs.reclaimed
            << "\n(served answers byte-identical to StreamingLinker::Run "
               "at every client count; written to BENCH_serve.json)\n\n";

  std::ofstream out("BENCH_serve.json");
  if (!out) return;
  out << "{\n  \"bench\": \"serve\",\n  \"sweep_mode\": \"" << mode
      << "\",\n  \"hardware_concurrency\": "
      << std::thread::hardware_concurrency()
      << ",\n  \"catalog_size\": " << catalog_size
      << ",\n  \"queries\": " << queries << ",\n  \"threshold\": "
      << util::FormatDouble(kThreshold, 2)
      << ",\n  \"snapshot_build_ms\": " << util::FormatDouble(build_ms, 3)
      << ",\n  \"points\": [\n"
      << points_json << "  ],\n  \"swap\": {\"clients\": " << swap.clients
      << ", \"swaps\": " << swap.swaps
      << ", \"queries_served\": " << swap.queries_served
      << ", \"seconds\": " << util::FormatDouble(swap.seconds, 4)
      << ", \"qps\": "
      << util::FormatDouble(
             swap.seconds > 0.0
                 ? static_cast<double>(swap.queries_served) / swap.seconds
                 : 0.0,
             1)
      << ", \"mismatches\": " << swap.mismatches
      << ", \"p99_us\": "
      << util::FormatDouble(QuantileUs(swap.latency_ns, 0.99), 3)
      << ", \"pin_retries\": " << swap.epochs.pin_retries
      << ", \"reader_blocks\": " << swap.epochs.reader_blocks
      << ", \"retired\": " << swap.epochs.retired
      << ", \"reclaimed\": " << swap.epochs.reclaimed
      << ", \"limbo\": " << swap.epochs.limbo
      << "},\n  \"publish\": [\n"
      << publish_json << "  ],\n  \"epoch\": {\"pins\": " << epochs.pins
      << ", \"pin_retries\": " << epochs.pin_retries
      << ", \"reader_blocks\": " << epochs.reader_blocks << "}\n}\n";
}

}  // namespace
}  // namespace rulelink::bench

int main() {
  rulelink::bench::ApplyPinningFromEnv();
  rulelink::bench::RunServeSweep();
  return 0;
}
