// linking::ServeEngine acceptance tests (DESIGN.md §5i):
//
//   * Differential: answers served query-at-a-time through Sessions are
//     byte-identical to batch StreamingLinker::Run over the same catalog
//     and query stream — both strategies, client counts {1, 2, 8}, two
//     workload seeds. The batch reference itself is checked identical at
//     thread counts {1, 2, 8} first.
//   * Allocation-free steady state: a global operator-new counter proves
//     a warmed session serves the whole stream again without a single
//     heap allocation, under the key-based and the paper's rule blocker,
//     and scores new value pairs under the `rulelink serve` default
//     matcher without one.
//   * Swap stress (the TSan target): clients keep querying while a writer
//     alternates snapshots of two different catalogs. Every answer must
//     match the expected links of exactly the generation that served it —
//     a query that mixed two generations would produce links matching
//     neither — readers must never block, and every retired snapshot must
//     be reclaimed once the clients drain.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "blocking/blocker.h"
#include "blocking/rule_blocker.h"
#include "blocking/standard_blocking.h"
#include "core/classifier.h"
#include "core/learner.h"
#include "core/training_set.h"
#include "datagen/key_chooser.h"
#include "datagen/workload.h"
#include "linking/feature_cache.h"
#include "linking/linker.h"
#include "linking/matcher.h"
#include "linking/serve_engine.h"
#include "linking/streaming_linker.h"
#include "text/segmenter.h"
#include "util/logging.h"

// Global operator-new replacement counting every heap allocation in the
// process. The steady-state test reads the counter around a window where
// only the test thread runs, so the delta is exact.
namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

// Every variant must be replaced together: if, say, the nothrow form fell
// through to the default allocator (which std::stable_sort's temporary
// buffer uses), the matching free-based delete below would mismatch it —
// ASan's alloc-dealloc checker rightly aborts on that.
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return ::operator new(size, std::nothrow);
}
void* operator new(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(align), size) != 0) {
    throw std::bad_alloc();
  }
  return p;
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
// Every delete frees through one out-of-line function: were free()
// inlined into the deletes, GCC would pair it with the replaced operator
// new above and warn of a mismatched new/delete that cannot happen.
[[gnu::noinline]] static void FreeAllocation(void* p) noexcept {
  std::free(p);
}
void operator delete(void* p) noexcept { FreeAllocation(p); }
void operator delete[](void* p) noexcept { FreeAllocation(p); }
void operator delete(void* p, std::size_t) noexcept { FreeAllocation(p); }
void operator delete[](void* p, std::size_t) noexcept { FreeAllocation(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  FreeAllocation(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  FreeAllocation(p);
}
void operator delete(void* p, std::align_val_t) noexcept {
  FreeAllocation(p);
}
void operator delete[](void* p, std::align_val_t) noexcept {
  FreeAllocation(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  FreeAllocation(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  FreeAllocation(p);
}

namespace rulelink {
namespace {

constexpr double kThreshold = 0.6;

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

struct Workload {
  std::vector<core::Item> catalog;
  std::vector<core::Item> queries;
};

datagen::WorkloadCatalog MakeCatalog(std::uint64_t seed,
                                     std::size_t catalog_size) {
  datagen::WorkloadConfig catalog_config;
  catalog_config.seed = seed;
  catalog_config.catalog_size = catalog_size;
  auto catalog = datagen::GenerateWorkloadCatalog(catalog_config);
  RL_CHECK(catalog.ok()) << catalog.status();
  return std::move(catalog).value();
}

// A zipfian stream of dirty queries against `catalog`.
std::vector<core::Item> MakeQueries(const datagen::WorkloadCatalog& catalog,
                                    std::uint64_t seed,
                                    std::size_t num_queries) {
  datagen::QueryStreamConfig query_config;
  query_config.seed = seed;
  query_config.num_queries = num_queries;
  query_config.chooser.distribution = datagen::Distribution::kZipfian;
  query_config.typo_prob = 0.08;
  query_config.truncate_prob = 0.05;
  auto stream = datagen::GenerateQueryStream(catalog, query_config);
  RL_CHECK(stream.ok()) << stream.status();
  return std::move(stream).value().queries;
}

Workload MakeWorkload(std::uint64_t seed, std::size_t catalog_size,
                      std::size_t num_queries) {
  datagen::WorkloadCatalog catalog = MakeCatalog(seed, catalog_size);
  Workload w;
  w.queries = MakeQueries(catalog, seed + 1, num_queries);
  w.catalog = std::move(catalog.items);
  return w;
}

// Batch reference, scattered per query. Asserts the batch run itself is
// identical at thread counts {1, 2, 8} along the way. The catalog is
// always a from-scratch single universe here — delta tests compact the
// served catalog down to its live items before comparing.
std::vector<std::vector<linking::Link>> BatchReference(
    const std::vector<core::Item>& catalog,
    const std::vector<core::Item>& queries,
    linking::Linker::Strategy strategy, double threshold = kThreshold,
    const blocking::CandidateGenerator* generator = nullptr) {
  const linking::ItemMatcher matcher{ServeRules()};
  linking::FeatureDictionary dict;
  const auto external = linking::FeatureCache::Build(
      queries, matcher, linking::FeatureCache::Side::kExternal, &dict);
  const auto local = linking::FeatureCache::Build(
      catalog, matcher, linking::FeatureCache::Side::kLocal, &dict);
  const blocking::StandardBlocker blocker(datagen::props::kPartNumber, 4);
  const auto index = (generator != nullptr ? *generator : blocker)
                         .BuildIndex(queries, catalog);
  const linking::StreamingLinker streaming(&matcher, threshold, strategy);
  const auto links = streaming.Run(*index, external, local, nullptr, 1);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    const auto again =
        streaming.Run(*index, external, local, nullptr, threads);
    EXPECT_EQ(again.size(), links.size());
    for (std::size_t i = 0; i < links.size() && i < again.size(); ++i) {
      EXPECT_EQ(again[i].external_index, links[i].external_index);
      EXPECT_EQ(again[i].local_index, links[i].local_index);
      EXPECT_EQ(again[i].score, links[i].score);
    }
  }
  std::vector<std::vector<linking::Link>> expected(queries.size());
  for (const linking::Link& link : links) {
    expected[link.external_index].push_back(link);
  }
  return expected;
}

std::unique_ptr<linking::ServeSnapshot> MakeSnapshot(
    const std::vector<core::Item>& catalog,
    linking::Linker::Strategy strategy) {
  const blocking::StandardBlocker blocker(datagen::props::kPartNumber, 4);
  return std::make_unique<linking::ServeSnapshot>(
      catalog, linking::ItemMatcher{ServeRules()}, kThreshold, strategy,
      blocker);
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

// Builds the global-index -> compacted-index map over `num_items` items
// with `retired` tombstoned, and the compacted catalog itself (live items
// in index order — the order-preserving remap under which a delta-built
// snapshot must answer identically to a from-scratch one).
struct CompactedCatalog {
  std::vector<std::size_t> remap;  // SIZE_MAX for retired indices
  std::vector<core::Item> items;
};

CompactedCatalog Compact(const std::vector<core::Item>& catalog,
                         const std::vector<std::size_t>& retired) {
  std::vector<bool> dead(catalog.size(), false);
  for (const std::size_t index : retired) dead[index] = true;
  CompactedCatalog out;
  out.remap.assign(catalog.size(), static_cast<std::size_t>(-1));
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    if (dead[i]) continue;
    out.remap[i] = out.items.size();
    out.items.push_back(catalog[i]);
  }
  return out;
}

// Rewrites served (global) local indices into the compacted universe. A
// served link to a retired item maps to SIZE_MAX and fails the compare
// loudly.
std::vector<linking::Link> RemapLocals(std::vector<linking::Link> links,
                                       const std::vector<std::size_t>& remap) {
  for (linking::Link& link : links) link.local_index = remap[link.local_index];
  return links;
}

TEST(ServeEngineTest, ServedAnswersMatchBatchRun) {
  for (const std::uint64_t seed : {42u, 1337u}) {
    const Workload w = MakeWorkload(seed, 3000, 600);
    for (const linking::Linker::Strategy strategy :
         {linking::Linker::Strategy::kBestPerExternal,
          linking::Linker::Strategy::kAllAboveThreshold}) {
      const auto expected = BatchReference(w.catalog, w.queries, strategy);
      linking::ServeEngine engine;
      engine.Publish(MakeSnapshot(w.catalog, strategy));
      for (const std::size_t clients :
           {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
        std::vector<std::vector<linking::Link>> answers(w.queries.size());
        std::atomic<std::size_t> ticket{0};
        auto client = [&] {
          linking::ServeEngine::Session session(&engine);
          std::size_t q;
          while ((q = ticket.fetch_add(1, std::memory_order_relaxed)) <
                 w.queries.size()) {
            const std::uint64_t generation =
                session.Query(w.queries[q], &answers[q], q);
            EXPECT_EQ(generation, 1u);
          }
        };
        if (clients == 1) {
          client();
        } else {
          std::vector<std::thread> workers;
          for (std::size_t c = 0; c < clients; ++c) {
            workers.emplace_back(client);
          }
          for (std::thread& worker : workers) worker.join();
        }
        std::size_t mismatches = 0;
        for (std::size_t q = 0; q < w.queries.size(); ++q) {
          if (!SameLinks(answers[q], expected[q])) ++mismatches;
        }
        EXPECT_EQ(mismatches, 0u)
            << "seed " << seed << ", clients " << clients;
      }
    }
  }
}

// The paper's blocker over a workload catalog: rules learnt from the
// catalog's items and classes block each query to the extents of its
// predicted classes (PAPER.md §4.4). Not movable: the classifier and the
// blocker point into it.
struct RuleBlockerSetup {
  RuleBlockerSetup()
      : catalog(MakeCatalog(42, 3000)),
        queries(MakeQueries(catalog, 43, 600)),
        rules(Learn(catalog, segmenter)),
        classifier(&rules, &segmenter),
        blocker(&classifier, &catalog.ontology(), &catalog.classes) {}
  RuleBlockerSetup(const RuleBlockerSetup&) = delete;
  RuleBlockerSetup& operator=(const RuleBlockerSetup&) = delete;

  static core::RuleSet Learn(const datagen::WorkloadCatalog& catalog,
                             const text::Segmenter& segmenter) {
    core::TrainingSet training(catalog.ontology());
    for (std::size_t i = 0; i < catalog.items.size(); ++i) {
      training.AddExample(catalog.items[i], catalog.items[i].iri,
                          {catalog.classes[i]});
    }
    core::LearnerOptions options;
    options.support_threshold = 0.005;
    options.segmenter = &segmenter;
    options.properties = {datagen::props::kPartNumber};
    auto rules = core::RuleLearner(options).Learn(training);
    RL_CHECK(rules.ok()) << rules.status();
    return std::move(rules).value();
  }

  const datagen::WorkloadCatalog catalog;
  const std::vector<core::Item> queries;
  const text::SeparatorSegmenter segmenter;
  const core::RuleSet rules;
  const core::RuleClassifier classifier;
  const blocking::RuleBlocker blocker;
};

// A warmed session serves `queries` again without one heap allocation.
void ExpectSteadyStateAllocationFree(
    std::unique_ptr<linking::ServeSnapshot> snapshot,
    const std::vector<core::Item>& queries) {
  linking::ServeEngine engine;
  engine.Publish(std::move(snapshot));
  linking::ServeEngine::Session session(&engine);
  std::vector<linking::Link> answer;
  // Warm pass: grows every per-session buffer to its high-water mark and
  // fills the overlay dictionary and score memo.
  std::size_t linked = 0;
  for (std::size_t q = 0; q < queries.size(); ++q) {
    session.Query(queries[q], &answer, q);
    linked += !answer.empty();
  }
  EXPECT_GT(linked, 0u);
  // Steady state: the same stream again must not allocate at all.
  const std::uint64_t before =
      g_allocations.load(std::memory_order_relaxed);
  for (std::size_t q = 0; q < queries.size(); ++q) {
    session.Query(queries[q], &answer, q);
  }
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u)
      << "steady-state query path allocated " << (after - before)
      << " times over " << queries.size() << " queries";
}

TEST(ServeEngineTest, SteadyStateQueriesAreAllocationFree) {
  {
    SCOPED_TRACE("StandardBlocker");
    const Workload w = MakeWorkload(42, 2000, 400);
    ExpectSteadyStateAllocationFree(
        MakeSnapshot(w.catalog, linking::Linker::Strategy::kBestPerExternal),
        w.queries);
  }
  {
    // The probe classifies every query (RuleClassifier::ClassifyInto).
    SCOPED_TRACE("RuleBlocker");
    const RuleBlockerSetup setup;
    ExpectSteadyStateAllocationFree(
        std::make_unique<linking::ServeSnapshot>(
            setup.catalog.items, linking::ItemMatcher{ServeRules()},
            kThreshold, linking::Linker::Strategy::kBestPerExternal,
            setup.blocker),
        setup.queries);
  }
}

TEST(ServeEngineTest, ServeDefaultMatcherScoresNewPairsWithoutAllocating) {
  // The replayed stream above repeats its warm pairs, so every
  // Monge-Elkan score there is a memo hit. Here every scored value pair
  // is new: the `rulelink serve` defaults (one Jaro-Winkler rule on the
  // blocking key, 5-byte key prefix, threshold 0.75) answer catalog items
  // as queries, and the measured queries are other items of each warm
  // query's block with a different part number. Every value is known to
  // the snapshot and each measured run is as long as its warm run, so
  // only the kernels, or a memo insert, could allocate. The Jaro bound
  // and the running-best floor prune part of each run, but every query
  // scores at least its seed.
  datagen::WorkloadConfig config;
  config.seed = 42;
  config.catalog_size = 2000;
  auto generated = datagen::GenerateWorkloadCatalog(config);
  ASSERT_TRUE(generated.ok()) << generated.status();
  const std::vector<core::Item> catalog = std::move(generated).value().items;
  constexpr std::size_t kKeyPrefix = 5;
  const std::string part = datagen::props::kPartNumber;

  std::map<std::string, std::vector<std::size_t>> blocks;
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    const std::string key = blocking::BlockingKey(catalog[i], part, kKeyPrefix);
    if (!key.empty()) blocks[key].push_back(i);
  }
  std::vector<core::Item> warm, measured;
  for (const auto& [key, members] : blocks) {
    const std::vector<std::string> first = catalog[members[0]].ValuesOf(part);
    for (const std::size_t other : members) {
      if (catalog[other].ValuesOf(part) == first) continue;
      warm.push_back(catalog[members[0]]);
      measured.push_back(catalog[other]);
      break;
    }
  }
  ASSERT_GE(measured.size(), 100u);

  linking::ServeEngine engine;
  engine.Publish(std::make_unique<linking::ServeSnapshot>(
      catalog,
      linking::ItemMatcher{{{part, part,
                             linking::SimilarityMeasure::kJaroWinkler, 1.0}}},
      0.75, linking::Linker::Strategy::kBestPerExternal,
      blocking::StandardBlocker(part, kKeyPrefix)));
  linking::ServeEngine::Session session(&engine);
  std::vector<linking::Link> answer;
  for (std::size_t q = 0; q < warm.size(); ++q) {
    session.Query(warm[q], &answer, q);
  }
  const std::size_t scored_before = session.pairs_scored();
  const std::uint64_t pruned_before = session.filter_stats().pairs_pruned;
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (std::size_t q = 0; q < measured.size(); ++q) {
    session.Query(measured[q], &answer, q);
  }
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  // Each measured query's run is its whole block, two items at least, and
  // each scores its seed at least.
  const std::size_t scored = session.pairs_scored() - scored_before;
  const std::uint64_t pruned =
      session.filter_stats().pairs_pruned - pruned_before;
  EXPECT_GE(scored + pruned, 2 * measured.size());
  EXPECT_GE(scored, measured.size());
  EXPECT_EQ(after - before, 0u)
      << "scoring new value pairs allocated " << (after - before)
      << " times over " << measured.size() << " queries";
}

TEST(ServeEngineTest, ConcurrentQueriesRacingSwaps) {
  // Two distinct catalogs alternate across generations; the queries come
  // from catalog A. An answer must match the reference of exactly the
  // generation that served it.
  const Workload a = MakeWorkload(42, 2000, 400);
  const Workload b = MakeWorkload(99, 2000, 1);
  const auto strategy = linking::Linker::Strategy::kBestPerExternal;
  const auto expected_a = BatchReference(a.catalog, a.queries, strategy);
  const auto expected_b = BatchReference(b.catalog, a.queries, strategy);

  constexpr std::size_t kClients = 4;
  constexpr std::uint64_t kSwaps = 6;
  linking::ServeEngine engine;
  engine.Publish(MakeSnapshot(a.catalog, strategy));  // generation 1 = A
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> mismatches{0};
  std::atomic<std::uint64_t> served{0};

  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      linking::ServeEngine::Session session(&engine);
      std::vector<linking::Link> answer;
      std::uint64_t bad = 0, count = 0;
      while (true) {
        const bool final_pass = done.load(std::memory_order_acquire);
        for (std::size_t q = c; q < a.queries.size(); q += kClients) {
          const std::uint64_t generation =
              session.Query(a.queries[q], &answer, q);
          // Odd generations serve catalog A, even ones catalog B. A torn
          // query (candidates from one snapshot, scores or catalog from
          // another) would match neither reference.
          const auto& expected =
              generation % 2 == 1 ? expected_a[q] : expected_b[q];
          if (!SameLinks(answer, expected)) ++bad;
          ++count;
        }
        if (final_pass) break;
      }
      mismatches.fetch_add(bad, std::memory_order_relaxed);
      served.fetch_add(count, std::memory_order_relaxed);
    });
  }
  for (std::uint64_t s = 0; s < kSwaps; ++s) {
    engine.Publish(
        MakeSnapshot(s % 2 == 0 ? b.catalog : a.catalog, strategy));
  }
  done.store(true, std::memory_order_release);
  for (std::thread& client : clients) client.join();

  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_GT(served.load(), 0u);
  engine.ReclaimRetired();
  const util::EpochStats epochs = engine.epoch_stats();
  EXPECT_EQ(epochs.retired, kSwaps);
  EXPECT_EQ(epochs.reclaimed, kSwaps);
  EXPECT_EQ(epochs.limbo, 0u);
  EXPECT_EQ(epochs.reader_blocks, 0u);
  EXPECT_EQ(engine.current_generation(), kSwaps + 1);
}

// The delta-publish acceptance differential (ISSUE 10): a snapshot
// reached via K = 3 delta publishes — mixed appends, retirements (from
// both the original catalog and an earlier delta's appended range), and a
// final policy hot-swap (threshold + rule set) — answers every query
// byte-identically to a from-scratch snapshot of the same final catalog
// and policy, across 2 seeds x both strategies x clients {1, 2, 8}.
TEST(ServeEngineTest, DeltaPublishesMatchFromScratchSnapshot) {
  const blocking::StandardBlocker blocker(datagen::props::kPartNumber, 4);
  constexpr std::size_t kN0 = 2400, kN1 = 2700, kN = 3000;
  const std::vector<std::size_t> kRetired = {3, 100, 771, 5, 2500, 2950};
  const double final_threshold = kThreshold + 0.1;
  for (const std::uint64_t seed : {42u, 1337u}) {
    const Workload w = MakeWorkload(seed, kN, 600);
    for (const linking::Linker::Strategy strategy :
         {linking::Linker::Strategy::kBestPerExternal,
          linking::Linker::Strategy::kAllAboveThreshold}) {
      linking::ServeEngine engine;
      std::vector<core::Item> base(w.catalog.begin(), w.catalog.begin() + kN0);
      engine.Publish(std::make_unique<linking::ServeSnapshot>(
          std::move(base), linking::ItemMatcher{ServeRules()}, kThreshold,
          strategy, blocker));

      linking::CatalogDelta d1;
      d1.appended.assign(w.catalog.begin() + kN0, w.catalog.begin() + kN1);
      d1.retired = {3, 100, 771};
      EXPECT_EQ(engine.PublishDelta(std::move(d1), blocker), 2u);

      linking::CatalogDelta d2;  // 2500 retires out of delta 1's appends
      d2.appended.assign(w.catalog.begin() + kN1, w.catalog.end());
      d2.retired = {5, 2500};
      EXPECT_EQ(engine.PublishDelta(std::move(d2), blocker), 3u);

      // Pure hot-swap: no appends, one retirement, new threshold and an
      // attached rule set — all riding one generation stamp.
      const auto rules = std::make_shared<const core::RuleSet>();
      linking::ServePolicy policy;
      policy.threshold = final_threshold;
      policy.strategy = strategy;
      policy.rules = rules;
      linking::CatalogDelta d3;
      d3.retired = {2950};
      EXPECT_EQ(engine.PublishDelta(std::move(d3), blocker, &policy), 4u);
      EXPECT_EQ(engine.current_rules().get(), rules.get());

      const CompactedCatalog compacted = Compact(w.catalog, kRetired);
      const auto expected = BatchReference(compacted.items, w.queries,
                                           strategy, final_threshold);
      for (const std::size_t clients :
           {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
        std::vector<std::vector<linking::Link>> answers(w.queries.size());
        std::atomic<std::size_t> ticket{0};
        auto client = [&] {
          linking::ServeEngine::Session session(&engine);
          std::size_t q;
          while ((q = ticket.fetch_add(1, std::memory_order_relaxed)) <
                 w.queries.size()) {
            const std::uint64_t generation =
                session.Query(w.queries[q], &answers[q], q);
            EXPECT_EQ(generation, 4u);
          }
        };
        if (clients == 1) {
          client();
        } else {
          std::vector<std::thread> workers;
          for (std::size_t c = 0; c < clients; ++c) {
            workers.emplace_back(client);
          }
          for (std::thread& worker : workers) worker.join();
        }
        std::size_t mismatches = 0;
        for (std::size_t q = 0; q < w.queries.size(); ++q) {
          if (!SameLinks(RemapLocals(answers[q], compacted.remap),
                         expected[q])) {
            ++mismatches;
          }
        }
        EXPECT_EQ(mismatches, 0u)
            << "seed " << seed << ", clients " << clients;
      }
      engine.ReclaimRetired();
      const util::EpochStats epochs = engine.epoch_stats();
      EXPECT_EQ(epochs.retired, 3u);
      EXPECT_EQ(epochs.reclaimed, 3u);
      EXPECT_EQ(epochs.limbo, 0u);
      EXPECT_EQ(epochs.reader_blocks, 0u);
    }
  }
}

// Same differential through the CartesianBlocker's extension path (the
// other ExtendItemIndex implementation).
TEST(ServeEngineTest, CartesianDeltaChainMatchesFromScratch) {
  const blocking::CartesianBlocker blocker;
  const Workload w = MakeWorkload(7, 300, 100);
  const auto strategy = linking::Linker::Strategy::kBestPerExternal;
  linking::ServeEngine engine;
  std::vector<core::Item> base(w.catalog.begin(), w.catalog.begin() + 200);
  engine.Publish(std::make_unique<linking::ServeSnapshot>(
      std::move(base), linking::ItemMatcher{ServeRules()}, kThreshold,
      strategy, blocker));
  linking::CatalogDelta d1;
  d1.appended.assign(w.catalog.begin() + 200, w.catalog.end());
  d1.retired = {10, 199};
  EXPECT_EQ(engine.PublishDelta(std::move(d1), blocker), 2u);
  linking::CatalogDelta d2;
  d2.retired = {40, 250};
  EXPECT_EQ(engine.PublishDelta(std::move(d2), blocker), 3u);

  const CompactedCatalog compacted = Compact(w.catalog, {10, 199, 40, 250});
  const auto expected = BatchReference(compacted.items, w.queries, strategy,
                                       kThreshold, &blocker);
  linking::ServeEngine::Session session(&engine);
  std::vector<linking::Link> answer;
  for (std::size_t q = 0; q < w.queries.size(); ++q) {
    EXPECT_EQ(session.Query(w.queries[q], &answer, q), 3u);
    EXPECT_TRUE(SameLinks(RemapLocals(answer, compacted.remap), expected[q]))
        << "query " << q;
  }
}

// The paper's blocker on the serving path: rules learnt from a workload
// catalog's items and classes block each query to the extents of its
// predicted classes (PAPER.md §4.4), and a snapshot under that
// RuleBlocker answers exactly as the batch streaming run under it does,
// before and after a retire-only delta (a RuleBlocker index cannot take
// appended items yet).
TEST(ServeEngineTest, RuleBlockerSnapshotMatchesBatchRun) {
  const RuleBlockerSetup setup;
  const datagen::WorkloadCatalog& catalog = setup.catalog;
  const std::vector<core::Item>& queries = setup.queries;
  const core::RuleClassifier& classifier = setup.classifier;
  const blocking::RuleBlocker& blocker = setup.blocker;
  ASSERT_GT(setup.rules.size(), 0u);

  const std::vector<std::size_t> retired = {3, 100, 771, 2950};
  const CompactedCatalog compacted = Compact(catalog.items, retired);
  std::vector<ontology::ClassId> compacted_classes;
  for (std::size_t i = 0; i < catalog.items.size(); ++i) {
    if (compacted.remap[i] != static_cast<std::size_t>(-1)) {
      compacted_classes.push_back(catalog.classes[i]);
    }
  }
  const blocking::RuleBlocker compacted_blocker(
      &classifier, &catalog.ontology(), &compacted_classes);

  // The rules block: runs are non-empty for some queries and narrower
  // than the catalog overall.
  const auto index = blocker.BuildIndex(queries, catalog.items);
  std::size_t candidates = 0;
  std::vector<std::size_t> run;
  for (std::size_t q = 0; q < queries.size(); ++q) {
    index->CandidatesOf(q, &run);
    candidates += run.size();
  }
  EXPECT_GT(candidates, 0u);
  EXPECT_LT(candidates, queries.size() * catalog.items.size() / 2);

  for (const linking::Linker::Strategy strategy :
       {linking::Linker::Strategy::kBestPerExternal,
        linking::Linker::Strategy::kAllAboveThreshold}) {
    linking::ServeEngine engine;
    engine.Publish(std::make_unique<linking::ServeSnapshot>(
        catalog.items, linking::ItemMatcher{ServeRules()}, kThreshold,
        strategy, blocker));
    const auto expected = BatchReference(catalog.items, queries, strategy,
                                         kThreshold, &blocker);
    std::size_t linked = 0;
    linking::ServeEngine::Session session(&engine);
    std::vector<linking::Link> answer;
    for (std::size_t q = 0; q < queries.size(); ++q) {
      EXPECT_EQ(session.Query(queries[q], &answer, q), 1u);
      EXPECT_TRUE(SameLinks(answer, expected[q])) << "query " << q;
      linked += !answer.empty();
    }
    EXPECT_GT(linked, 0u);

    linking::CatalogDelta delta;
    delta.retired = retired;
    EXPECT_EQ(engine.PublishDelta(std::move(delta), blocker), 2u);
    const auto expected2 = BatchReference(compacted.items, queries, strategy,
                                          kThreshold, &compacted_blocker);
    for (std::size_t q = 0; q < queries.size(); ++q) {
      EXPECT_EQ(session.Query(queries[q], &answer, q), 2u);
      EXPECT_TRUE(
          SameLinks(RemapLocals(answer, compacted.remap), expected2[q]))
          << "query " << q << " after the retire-only delta";
    }
  }
}

// Satellite: one session across delta publishes. The overlay dictionary
// and score memo must rebase on every generation change — a delta
// generation's dictionary interns past exactly the universe the session's
// overlay extended, so stale overlay ids would alias the delta's new
// value ids and corrupt exact-match scoring. The cumulative counters
// (pairs_scored, FilterStats) are pinned: they double when the same
// stream replays within one generation and keep accumulating (never
// reset) across swaps.
TEST(ServeEngineTest, SessionOverlayAndCountersAcrossDeltaPublishes) {
  const blocking::StandardBlocker blocker(datagen::props::kPartNumber, 4);
  const Workload w = MakeWorkload(42, 2000, 300);
  const auto strategy = linking::Linker::Strategy::kBestPerExternal;
  linking::ServeEngine engine;
  std::vector<core::Item> prefix(w.catalog.begin(),
                                 w.catalog.begin() + 1500);
  const auto expected1 = BatchReference(prefix, w.queries, strategy);
  engine.Publish(std::make_unique<linking::ServeSnapshot>(
      std::move(prefix), linking::ItemMatcher{ServeRules()}, kThreshold,
      strategy, blocker));

  linking::ServeEngine::Session session(&engine);
  std::vector<linking::Link> answer;
  for (std::size_t q = 0; q < w.queries.size(); ++q) {
    EXPECT_EQ(session.Query(w.queries[q], &answer, q), 1u);
    EXPECT_TRUE(SameLinks(answer, expected1[q])) << "query " << q;
  }
  const std::size_t scored1 = session.pairs_scored();
  const std::uint64_t pruned1 = session.filter_stats().pairs_pruned;
  ASSERT_GT(scored1, 0u);

  // Same stream, same generation: every counter advances by exactly the
  // same amount again (scored pairs are memo-independent).
  for (std::size_t q = 0; q < w.queries.size(); ++q) {
    session.Query(w.queries[q], &answer, q);
  }
  EXPECT_EQ(session.pairs_scored(), 2 * scored1);
  EXPECT_EQ(session.filter_stats().pairs_pruned, 2 * pruned1);

  // Delta publish: the remaining 500 items appear (the zipfian stream
  // queries them, so answers change) and two items retire.
  linking::CatalogDelta delta;
  delta.appended.assign(w.catalog.begin() + 1500, w.catalog.end());
  delta.retired = {7, 1600};
  EXPECT_EQ(engine.PublishDelta(std::move(delta), blocker), 2u);

  const CompactedCatalog compacted = Compact(w.catalog, {7, 1600});
  const auto expected2 = BatchReference(compacted.items, w.queries, strategy);
  for (std::size_t q = 0; q < w.queries.size(); ++q) {
    EXPECT_EQ(session.Query(w.queries[q], &answer, q), 2u);
    EXPECT_TRUE(SameLinks(RemapLocals(answer, compacted.remap), expected2[q]))
        << "query " << q;
  }
  // Counters accumulated across the swap — monotone, never reset.
  EXPECT_GT(session.pairs_scored(), 2 * scored1);
  EXPECT_GE(session.filter_stats().pairs_pruned, 2 * pruned1);
}

// Satellite: repeated publishes with no explicit ReclaimRetired keep
// limbo bounded — Publish/PublishDelta attempt reclamation themselves
// (the serve_engine.h contract). The serial phase is deterministic: with
// no reader pinned at publish time, limbo drains to zero on every swap.
// The concurrent phase paces the publisher two completed reader queries
// behind: any pin active at the next publish then began after the last
// retirement epoch, so only the just-retired snapshot can linger —
// limbo <= 1, deterministically, even under sanizer-skewed scheduling.
TEST(ServeEngineTest, RepeatedPublishesKeepLimboBounded) {
  const Workload w = MakeWorkload(7, 1000, 50);
  const auto strategy = linking::Linker::Strategy::kBestPerExternal;
  linking::ServeEngine engine;
  engine.Publish(MakeSnapshot(w.catalog, strategy));
  {
    linking::ServeEngine::Session session(&engine);
    std::vector<linking::Link> answer;
    for (int i = 0; i < 10; ++i) {
      session.Query(w.queries[i % w.queries.size()], &answer, 0);
      engine.Publish(MakeSnapshot(w.catalog, strategy));
      const util::EpochStats stats = engine.epoch_stats();
      EXPECT_EQ(stats.limbo, 0u) << "publish " << i;
      EXPECT_EQ(stats.reclaimed, stats.retired);
    }

    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> queries_done{0};
    std::thread client([&] {
      linking::ServeEngine::Session worker(&engine);
      std::vector<linking::Link> links;
      std::size_t q = 0;
      while (!stop.load(std::memory_order_acquire)) {
        worker.Query(w.queries[q++ % w.queries.size()], &links, 0);
        queries_done.fetch_add(1, std::memory_order_release);
      }
    });
    for (int i = 0; i < 20; ++i) {
      engine.Publish(MakeSnapshot(w.catalog, strategy));
      EXPECT_LE(engine.epoch_stats().limbo, 1u) << "publish " << i;
      // Two full queries after this retirement: the first may have been
      // in flight (pinned before it), the second provably pinned after.
      const std::uint64_t mark =
          queries_done.load(std::memory_order_acquire);
      while (queries_done.load(std::memory_order_acquire) < mark + 2) {
        std::this_thread::yield();
      }
    }
    stop.store(true, std::memory_order_release);
    client.join();
  }
  // One more publish with every reader quiesced: the writer-side sweep
  // must drain limbo completely, with nobody ever calling ReclaimRetired.
  engine.Publish(MakeSnapshot(w.catalog, strategy));
  const util::EpochStats stats = engine.epoch_stats();
  EXPECT_EQ(stats.limbo, 0u);
  EXPECT_EQ(stats.reclaimed, stats.retired);
  EXPECT_EQ(stats.retired, 31u);
  EXPECT_EQ(stats.reader_blocks, 0u);
}

}  // namespace
}  // namespace rulelink
