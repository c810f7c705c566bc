// Differential tests for the batched filter cascade (DESIGN.md §5h):
// StreamingLinker must emit links byte-identical to the string-path
// oracle Linker::Run, and identical FilterStats, at every thread count,
// down to 1-item morsels, on the paper-shaped corpus AND a dirty 50k
// workload catalog, under a five-kind matcher and a matcher of Jaro
// plans. PruneBatch is additionally pinned pair-for-pair against
// PairwiseCascade, the per-pair reference below: under a matcher with
// every kind of bound but Jaro's, over multi-valued slots on both sides
// at three thresholds (where stage B's capped probe must prune some
// pairs), under a matcher of Jaro plans and under a matcher with no
// bound, where only the pairs with every rule inactive may be pruned,
// plus a one-rule Jaccard fixture on which the distinct-token count
// decides a pair, single- and multi-valued.
#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "blocking/blocker.h"
#include "blocking/standard_blocking.h"
#include "datagen/generator.h"
#include "datagen/workload.h"
#include "linking/feature_cache.h"
#include "linking/filters.h"
#include "linking/linker.h"
#include "linking/matcher.h"
#include "linking/streaming_linker.h"
#include "text/similarity.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace rulelink {
namespace {

constexpr std::size_t kThreadCounts[] = {1, 2, 8};
constexpr double kThreshold = 0.6;

using linking::FeatureCache;
using linking::FeatureDictionary;
using linking::FilterStats;
using linking::ValueId;

// --- The per-pair reference cascade -----------------------------------
//
// FilterCascade as it decides one pair at a time, written for clarity
// rather than speed: stage A adds every active rule's bound over the
// pair's value-id cross product in rule order (the scorer's skip-and-
// renormalize treatment of missing properties), stage B probes every
// Levenshtein value pair with the single-pair capped kernel. PruneBatch
// must reproduce its decisions and FilterStats exactly.

// Mirrors the cascade's stage-B rounding slack (DESIGN.md §5e).
constexpr double kStageBSlack = 1e-9;

// Each value's count signature is built from its string, as FeatureCache
// builds the lanes, and the bound is taken per value pair.
double LevenshteinBagBound(const FeatureDictionary& dict, const ValueId* ext,
                           std::size_t num_ext, const ValueId* loc,
                           std::size_t num_loc) {
  double bound = 0.0;
  for (std::size_t i = 0; i < num_ext; ++i) {
    const std::string_view va = dict.View(ext[i]);
    std::uint8_t sig_a[text::kSignatureBytes];
    text::ByteSignature(va, sig_a);
    for (std::size_t j = 0; j < num_loc; ++j) {
      const std::string_view vb = dict.View(loc[j]);
      std::uint8_t sig_b[text::kSignatureBytes];
      text::ByteSignature(vb, sig_b);
      bound = std::max(bound, text::LevenshteinSignatureBound(
                                  sig_a, va.size(), sig_b, vb.size()));
    }
  }
  return bound;
}

double JaccardCountBound(const FeatureDictionary& dict, const ValueId* ext,
                         std::size_t num_ext, const ValueId* loc,
                         std::size_t num_loc) {
  double bound = 0.0;
  for (std::size_t i = 0; i < num_ext; ++i) {
    const auto fa = dict.Features(ext[i]);
    std::uint8_t sig_a[text::kSignatureBytes];
    text::TokenSetSignature(fa.text, sig_a);
    for (std::size_t j = 0; j < num_loc; ++j) {
      const auto fb = dict.Features(loc[j]);
      std::uint8_t sig_b[text::kSignatureBytes];
      text::TokenSetSignature(fb.text, sig_b);
      bound = std::max(bound, text::JaccardSignatureBound(
                                  sig_a, fa.num_unique_tokens, sig_b,
                                  fb.num_unique_tokens));
    }
  }
  return bound;
}

double DiceCountBound(const FeatureDictionary& dict, const ValueId* ext,
                      std::size_t num_ext, const ValueId* loc,
                      std::size_t num_loc) {
  double bound = 0.0;
  for (std::size_t i = 0; i < num_ext; ++i) {
    const auto fa = dict.Features(ext[i]);
    std::uint8_t sig_a[text::kSignatureBytes];
    text::BigramSignature(fa.text, sig_a);
    for (std::size_t j = 0; j < num_loc; ++j) {
      const auto fb = dict.Features(loc[j]);
      std::uint8_t sig_b[text::kSignatureBytes];
      text::BigramSignature(fb.text, sig_b);
      bound = std::max(bound,
                       text::DiceSignatureBound(sig_a, fa.num_bigrams, sig_b,
                                                fb.num_bigrams));
    }
  }
  return bound;
}

double JaroCountBound(const FeatureDictionary& dict, const ValueId* ext,
                      std::size_t num_ext, const ValueId* loc,
                      std::size_t num_loc, bool winkler) {
  double bound = 0.0;
  for (std::size_t i = 0; i < num_ext; ++i) {
    const std::string_view va = dict.View(ext[i]);
    std::uint8_t sig_a[text::kSignatureBytes];
    text::ByteSignature(va, sig_a);
    for (std::size_t j = 0; j < num_loc; ++j) {
      const std::string_view vb = dict.View(loc[j]);
      std::uint8_t sig_b[text::kSignatureBytes];
      text::ByteSignature(vb, sig_b);
      const double jaro =
          text::JaroSignatureBound(sig_a, va.size(), sig_b, vb.size());
      bound = std::max(
          bound, winkler ? text::JaroWinklerSignatureBound(
                               jaro, text::JaroPrefixBytes(va), va.size(),
                               text::JaroPrefixBytes(vb), vb.size())
                         : jaro);
    }
  }
  return bound;
}

double ExactValue(const ValueId* ext, std::size_t num_ext,
                  const ValueId* loc, std::size_t num_loc) {
  for (std::size_t i = 0; i < num_ext; ++i) {
    for (std::size_t j = 0; j < num_loc; ++j) {
      if (ext[i] == loc[j]) return 1.0;
    }
  }
  return 0.0;
}

class PairwiseCascade {
 public:
  PairwiseCascade(const linking::ItemMatcher* matcher, double threshold)
      : matcher_(matcher), threshold_(threshold) {}

  // True when the pair's aggregate score is provably below the threshold;
  // counts the prune in `stats` like FilterCascade.
  bool Prune(const FeatureCache& external_features,
             std::size_t external_index, const FeatureCache& local_features,
             std::size_t local_index, FilterStats* stats) const {
    using linking::SimilarityMeasure;
    const FeatureDictionary& dict = external_features.dict();
    const auto& rules = matcher_->rules();

    double bound_sum = 0.0;
    double weight_total = 0.0;
    bool length_participated = false;
    bool token_participated = false;
    bool exact_participated = false;
    bool jaro_participated = false;
    bool any_levenshtein_active = false;
    for (std::size_t r = 0; r < rules.size(); ++r) {
      std::size_t num_ext = 0, num_loc = 0;
      const ValueId* ext =
          external_features.Values(external_index, r, &num_ext);
      const ValueId* loc = local_features.Values(local_index, r, &num_loc);
      if (num_ext == 0 || num_loc == 0) continue;
      double bound = 1.0;
      switch (rules[r].measure) {
        case SimilarityMeasure::kLevenshtein:
          bound = LevenshteinBagBound(dict, ext, num_ext, loc, num_loc);
          any_levenshtein_active = true;
          if (bound < 1.0) length_participated = true;
          break;
        case SimilarityMeasure::kJaccardTokens:
          bound = JaccardCountBound(dict, ext, num_ext, loc, num_loc);
          if (bound < 1.0) token_participated = true;
          break;
        case SimilarityMeasure::kDiceBigram:
          bound = DiceCountBound(dict, ext, num_ext, loc, num_loc);
          if (bound < 1.0) token_participated = true;
          break;
        case SimilarityMeasure::kExact:
          bound = ExactValue(ext, num_ext, loc, num_loc);
          if (bound < 1.0) exact_participated = true;
          break;
        case SimilarityMeasure::kJaro:
        case SimilarityMeasure::kJaroWinkler:
          bound = JaroCountBound(
              dict, ext, num_ext, loc, num_loc,
              rules[r].measure == SimilarityMeasure::kJaroWinkler);
          if (bound < 1.0) jaro_participated = true;
          break;
        case SimilarityMeasure::kMongeElkan:  // no cheap bound: assume 1.0
          break;
      }
      bound_sum += rules[r].weight * bound;
      weight_total += rules[r].weight;
    }

    const auto record = [&](bool distance_cap) {
      ++stats->pairs_pruned;
      if (length_participated) ++stats->by_length;
      if (token_participated) ++stats->by_token_count;
      if (exact_participated) ++stats->by_exact;
      if (jaro_participated) ++stats->by_jaro;
      if (distance_cap) ++stats->by_distance_cap;
    };

    if (weight_total == 0.0) {
      // Every rule inactive: the scorer returns 0.0.
      if (threshold_ <= 0.0) return false;
      record(false);
      return true;
    }
    if (bound_sum / weight_total < threshold_) {
      record(false);
      return true;
    }

    if (!any_levenshtein_active || threshold_ <= 0.0) return false;
    const double threshold_weight = threshold_ * weight_total;
    for (std::size_t r = 0; r < rules.size(); ++r) {
      if (rules[r].measure != SimilarityMeasure::kLevenshtein) continue;
      std::size_t num_ext = 0, num_loc = 0;
      const ValueId* ext =
          external_features.Values(external_index, r, &num_ext);
      const ValueId* loc = local_features.Values(local_index, r, &num_loc);
      if (num_ext == 0 || num_loc == 0) continue;
      const double own =
          rules[r].weight *
          LevenshteinBagBound(dict, ext, num_ext, loc, num_loc);
      const double floor =
          (threshold_weight - (bound_sum - own)) / rules[r].weight;
      const double floor_cap = floor - kStageBSlack;
      if (floor_cap <= 0.0) continue;
      double best = -1.0;
      for (std::size_t i = 0; i < num_ext; ++i) {
        const std::string_view va = dict.View(ext[i]);
        for (std::size_t j = 0; j < num_loc; ++j) {
          const std::string_view vb = dict.View(loc[j]);
          const std::size_t longest = std::max(va.size(), vb.size());
          if (longest == 0) {
            best = std::max(best, 1.0);
            continue;
          }
          double allowed = (1.0 - floor_cap) * static_cast<double>(longest);
          if (allowed < 0.0) allowed = 0.0;
          const std::size_t cap = static_cast<std::size_t>(allowed) + 1;
          const std::size_t d = text::BoundedLevenshteinDistance(va, vb, cap);
          if (d <= cap) {
            best = std::max(
                best, text::LevenshteinSimilarityFromDistance(d, longest));
          }
        }
      }
      if (best < floor_cap) {
        record(true);
        return true;
      }
    }
    return false;
  }

 private:
  const linking::ItemMatcher* matcher_;
  double threshold_;
};

// Exercises every filter in the cascade at once, like the streaming
// differential suite: Levenshtein (bag-distance bound + capped probe),
// Jaccard and Dice (signature count bounds), kExact (id equality) and
// Monge-Elkan as the unboundable measure the cascade treats
// optimistically.
linking::ItemMatcher FilteredMatcher() {
  return linking::ItemMatcher({
      {datagen::props::kPartNumber, datagen::props::kPartNumber,
       linking::SimilarityMeasure::kLevenshtein, 2.5},
      {datagen::props::kPartNumber, datagen::props::kPartNumber,
       linking::SimilarityMeasure::kJaccardTokens, 1.5},
      {datagen::props::kPartNumber, datagen::props::kPartNumber,
       linking::SimilarityMeasure::kDiceBigram, 1.0},
      {datagen::props::kManufacturer, datagen::props::kManufacturer,
       linking::SimilarityMeasure::kExact, 0.5},
      {datagen::props::kManufacturer, datagen::props::kManufacturer,
       linking::SimilarityMeasure::kMongeElkan, 0.5},
  });
}

// Jaro-Winkler on the part number and Jaro on the label: the two plans
// the cascade bounds from the signature and prefix lanes.
linking::ItemMatcher JaroMatcher() {
  return linking::ItemMatcher({
      {datagen::props::kPartNumber, datagen::props::kPartNumber,
       linking::SimilarityMeasure::kJaroWinkler, 2.0},
      {datagen::props::kLabel, datagen::props::kLabel,
       linking::SimilarityMeasure::kJaro, 1.0},
  });
}

const datagen::Dataset& PaperCorpus() {
  static datagen::Dataset* corpus = [] {
    datagen::DatasetConfig config;
    config.seed = 23;
    config.num_classes = 50;
    config.num_leaves = 20;
    config.catalog_size = 700;
    config.num_links = 320;
    config.num_signal_classes = 5;
    config.num_other_frequent_classes = 5;
    config.signal_class_min_links = 20;
    config.signal_class_max_links = 40;
    config.frequent_class_min_links = 6;
    config.frequent_class_max_links = 11;
    config.tail_class_cap_links = 4;
    auto dataset = datagen::DatasetGenerator(config).Generate();
    RL_CHECK(dataset.ok()) << dataset.status();
    return new datagen::Dataset(std::move(dataset).value());
  }();
  return *corpus;
}

struct Workload {
  datagen::WorkloadCatalog catalog;
  datagen::QueryStream stream;
};

// Dirty 50k regime from the workload differential suite: Zipf-skewed
// queries with typos and truncations against a 50k-item catalog.
const Workload& DirtyWorkload() {
  static Workload* workload = [] {
    datagen::WorkloadConfig catalog_config;
    catalog_config.seed = 77;
    catalog_config.catalog_size = 50000;
    auto catalog = datagen::GenerateWorkloadCatalog(catalog_config);
    RL_CHECK(catalog.ok()) << catalog.status();

    datagen::QueryStreamConfig query_config;
    query_config.seed = 78;
    query_config.num_queries = 800;
    query_config.chooser.distribution = datagen::Distribution::kZipfian;
    query_config.typo_prob = 0.1;
    query_config.truncate_prob = 0.05;
    auto stream =
        datagen::GenerateQueryStream(catalog.value(), query_config);
    RL_CHECK(stream.ok()) << stream.status();

    auto* w = new Workload();
    w->catalog = std::move(catalog).value();
    w->stream = std::move(stream).value();
    return w;
  }();
  return *workload;
}

struct Caches {
  linking::FeatureDictionary dict;
  linking::FeatureCache external;
  linking::FeatureCache local;

  Caches(const std::vector<core::Item>& external_items,
         const std::vector<core::Item>& local_items,
         const linking::ItemMatcher& matcher, std::size_t num_threads) {
    external = linking::FeatureCache::Build(
        external_items, matcher, linking::FeatureCache::Side::kExternal,
        &dict, num_threads);
    local = linking::FeatureCache::Build(local_items, matcher,
                                         linking::FeatureCache::Side::kLocal,
                                         &dict, num_threads);
  }
};

void ExpectLinksIdentical(const std::vector<linking::Link>& actual,
                          const std::vector<linking::Link>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual[i].external_index, expected[i].external_index) << i;
    EXPECT_EQ(actual[i].local_index, expected[i].local_index) << i;
    EXPECT_EQ(actual[i].score, expected[i].score) << i;  // bit-identical
  }
}

void ExpectFilterStatsIdentical(const linking::LinkerStats& actual,
                                const linking::LinkerStats& expected) {
  EXPECT_EQ(actual.pairs_scored, expected.pairs_scored);
  EXPECT_EQ(actual.pairs_pruned_by_filter, expected.pairs_pruned_by_filter);
  EXPECT_EQ(actual.pruned_by_length, expected.pruned_by_length);
  EXPECT_EQ(actual.pruned_by_token_count, expected.pruned_by_token_count);
  EXPECT_EQ(actual.pruned_by_exact, expected.pruned_by_exact);
  EXPECT_EQ(actual.pruned_by_distance_cap, expected.pruned_by_distance_cap);
  EXPECT_EQ(actual.pruned_by_jaro, expected.pruned_by_jaro);
  EXPECT_EQ(actual.pruned_by_running_best, expected.pruned_by_running_best);
  EXPECT_EQ(actual.links_emitted, expected.links_emitted);
}

// Streaming links at every thread count must be byte-identical to the
// Linker::Run oracle over the blocker's candidates, and FilterStats
// identical to the first (serial) run's.
void RunThreadDifferential(const linking::ItemMatcher& matcher,
                           const std::vector<core::Item>& external_items,
                           const std::vector<core::Item>& local_items,
                           std::size_t blocker_prefix,
                           bool one_item_morsels) {
  SCOPED_TRACE(linking::SimilarityMeasureName(matcher.rules()[0].measure));
  const blocking::StandardBlocker blocker(datagen::props::kPartNumber,
                                          blocker_prefix);
  const auto candidates = blocker.Generate(external_items, local_items);
  const auto index = blocker.BuildIndex(external_items, local_items);
  ASSERT_EQ(index->num_external(), external_items.size());
  const linking::StreamingLinker streaming(&matcher, kThreshold);
  // The oracle is deterministic at every thread count, so it may use them
  // all.
  const auto reference =
      linking::Linker(&matcher, kThreshold)
          .Run(external_items, local_items, candidates, nullptr,
               /*num_threads=*/0);
  ASSERT_GT(reference.size(), 0u);

  linking::LinkerStats reference_stats;
  bool have_reference_stats = false;
  for (const std::size_t threads : kThreadCounts) {
    SCOPED_TRACE(threads);
    // Caches are rebuilt per thread count on purpose: the build takes the
    // thread count too, and neither it nor the links may depend on it.
    const Caches caches(external_items, local_items, matcher, threads);
    std::unique_ptr<util::ScopedMorselItems> morsels;
    if (one_item_morsels) {
      morsels = std::make_unique<util::ScopedMorselItems>(1);
    }
    linking::LinkerStats stats;
    const auto links = streaming.Run(*index, caches.external, caches.local,
                                     &stats, threads);
    ExpectLinksIdentical(links, reference);
    if (!have_reference_stats) {
      reference_stats = stats;
      have_reference_stats = true;
      continue;
    }
    ExpectFilterStatsIdentical(stats, reference_stats);
  }
}

// The thread differential under the five-kind matcher and the Jaro
// matcher.
void RunThreadDifferential(const std::vector<core::Item>& external_items,
                           const std::vector<core::Item>& local_items,
                           std::size_t blocker_prefix,
                           bool one_item_morsels) {
  for (const linking::ItemMatcher& matcher :
       {FilteredMatcher(), JaroMatcher()}) {
    RunThreadDifferential(matcher, external_items, local_items,
                          blocker_prefix, one_item_morsels);
  }
}

TEST(FilterBatchDifferential, PaperCorpusAllThreadCounts) {
  const datagen::Dataset& dataset = PaperCorpus();
  RunThreadDifferential(dataset.external_items, dataset.catalog_items,
                        /*blocker_prefix=*/3, /*one_item_morsels=*/false);
}

TEST(FilterBatchDifferential, PaperCorpusOneItemMorsels) {
  // 1-item morsels scatter neighbouring external items across threads and
  // put every item's run in its own scratch epoch — the adversarial
  // chunking for the batch path.
  const datagen::Dataset& dataset = PaperCorpus();
  RunThreadDifferential(dataset.external_items, dataset.catalog_items,
                        /*blocker_prefix=*/3, /*one_item_morsels=*/true);
}

TEST(FilterBatchDifferential, DirtyWorkloadAllThreadCounts) {
  const Workload& workload = DirtyWorkload();
  RunThreadDifferential(workload.stream.queries, workload.catalog.items,
                        /*blocker_prefix=*/4, /*one_item_morsels=*/false);
}

// PruneBatch pinned pair-for-pair against PairwiseCascade over every
// candidate run of `blocker`: decisions and FilterStats must replicate
// the per-pair cascade exactly, run by run. Sets *stats to PruneBatch's
// counters and *candidates to the pairs checked.
void ExpectPruneBatchMatchesPrune(const linking::ItemMatcher& matcher,
                                  const std::vector<core::Item>& external,
                                  const std::vector<core::Item>& local,
                                  const blocking::CandidateGenerator& blocker,
                                  double threshold, FilterStats* stats,
                                  std::size_t* candidates) {
  const Caches caches(external, local, matcher, /*num_threads=*/1);
  const auto index = blocker.BuildIndex(external, local);
  const linking::FilterCascade cascade(&matcher, threshold);
  const PairwiseCascade reference(&matcher, threshold);

  linking::FilterBatchScratch scratch;
  FilterStats batch_stats;
  FilterStats pair_stats;
  std::vector<std::size_t> run;
  std::size_t runs_checked = 0;
  *candidates = 0;
  for (std::size_t e = 0; e < index->num_external(); ++e) {
    index->CandidatesOf(e, &run);
    if (run.empty()) continue;
    cascade.PruneBatch(caches.external, e, caches.local, run.data(),
                       run.size(), &batch_stats, &scratch);
    ASSERT_EQ(scratch.pruned.size(), run.size());
    for (std::size_t i = 0; i < run.size(); ++i) {
      const bool pruned = reference.Prune(caches.external, e, caches.local,
                                          run[i], &pair_stats);
      ASSERT_EQ(scratch.pruned[i] != 0, pruned)
          << "external=" << e << " local=" << run[i];
    }
    *candidates += run.size();
    ++runs_checked;
  }
  EXPECT_GT(runs_checked, 0u);
  EXPECT_EQ(batch_stats.pairs_pruned, pair_stats.pairs_pruned);
  EXPECT_EQ(batch_stats.by_length, pair_stats.by_length);
  EXPECT_EQ(batch_stats.by_token_count, pair_stats.by_token_count);
  EXPECT_EQ(batch_stats.by_exact, pair_stats.by_exact);
  EXPECT_EQ(batch_stats.by_distance_cap, pair_stats.by_distance_cap);
  EXPECT_EQ(batch_stats.by_jaro, pair_stats.by_jaro);
  *stats = batch_stats;
}

void AddFact(core::Item* item, const char* property, std::string value) {
  item->facts.push_back({property, std::move(value)});
}

void DropProperty(core::Item* item, const char* property) {
  std::erase_if(item->facts, [&](const core::PropertyValue& pv) {
    return pv.property == property;
  });
}

// A part number one substitution away from `value`, appended after the
// item's own: the blocking key still comes from the first value.
std::string NearCopy(std::string value, std::size_t salt) {
  if (value.empty()) return "Q";
  char& c = value[salt % value.size()];
  c = c == 'Q' ? 'R' : 'Q';
  return value;
}

TEST(FilterBatchDifferential, PruneBatchMatchesPrunePairwise) {
  const datagen::Dataset& dataset = PaperCorpus();
  const blocking::StandardBlocker part_blocker(datagen::props::kPartNumber,
                                               /*prefix_length=*/3);
  FilterStats stats;
  std::size_t candidates = 0;
  ExpectPruneBatchMatchesPrune(FilteredMatcher(), dataset.external_items,
                               dataset.catalog_items, part_blocker,
                               kThreshold, &stats, &candidates);
  EXPECT_GT(stats.pairs_pruned, 0u);
  // Stage B must see work here, or the pair-for-pair check above would
  // not exercise the capped probe at all.
  EXPECT_GT(stats.by_distance_cap, 0u);

  // Two more matchers, over candidates of which some have every rule
  // inactive: provider documents carry no label, every fifth one loses its
  // part number, and so does every third catalog item, while every
  // seventh catalog item holds two part numbers (a multi-valued slot).
  // Blocking on the manufacturer keeps all of them candidates. The Jaro
  // plans bound a pair from the signature lanes, and a multi-valued slot
  // through the cross-product helper. The Monge-Elkan matcher has no bound
  // at all (every plan optimistic), so only the pairs with every rule
  // inactive may be pruned.
  const linking::ItemMatcher jaro = JaroMatcher();
  const linking::ItemMatcher optimistic({
      {datagen::props::kPartNumber, datagen::props::kPartNumber,
       linking::SimilarityMeasure::kMongeElkan, 2.0},
      {datagen::props::kLabel, datagen::props::kLabel,
       linking::SimilarityMeasure::kMongeElkan, 1.0},
  });
  std::vector<core::Item> external = dataset.external_items;
  for (std::size_t e = 0; e < external.size(); e += 5) {
    DropProperty(&external[e], datagen::props::kPartNumber);
  }
  std::vector<core::Item> local = dataset.catalog_items;
  for (std::size_t l = 0; l < local.size(); ++l) {
    if (l % 3 == 0) {
      DropProperty(&local[l], datagen::props::kPartNumber);
    } else if (l % 7 == 0) {
      AddFact(&local[l], datagen::props::kPartNumber,
              "X-" + std::to_string(l));
    }
  }
  const blocking::StandardBlocker mfr_blocker(datagen::props::kManufacturer,
                                              /*prefix_length=*/3);
  for (const linking::ItemMatcher* matcher : {&jaro, &optimistic}) {
    ExpectPruneBatchMatchesPrune(*matcher, external, local, mfr_blocker,
                                 kThreshold, &stats, &candidates);
    EXPECT_GT(stats.pairs_pruned, 0u);
    EXPECT_LT(stats.pairs_pruned, candidates);
    // At threshold 0 a pair scoring 0.0 still links, so nothing is pruned.
    ExpectPruneBatchMatchesPrune(*matcher, external, local, mfr_blocker, 0.0,
                                 &stats, &candidates);
    EXPECT_EQ(stats.pairs_pruned, 0u);
  }

  // The five-kind matcher over multi-valued slots on both sides: a second
  // part number (a near copy, so either value's probe can decide) on
  // every 4th provider document and every 5th catalog item, an empty
  // extra part number on some items of each side, a second manufacturer
  // on every 6th catalog item and none on every 11th.
  std::vector<core::Item> multi_external = dataset.external_items;
  for (std::size_t e = 0; e < multi_external.size(); ++e) {
    const auto parts =
        multi_external[e].ValuesOf(datagen::props::kPartNumber);
    if (parts.empty()) continue;
    if (e % 4 == 0) {
      AddFact(&multi_external[e], datagen::props::kPartNumber,
              NearCopy(parts.front(), e));
    }
    if (e % 9 == 0) {
      AddFact(&multi_external[e], datagen::props::kPartNumber, "");
    }
  }
  std::vector<core::Item> multi_local = dataset.catalog_items;
  for (std::size_t l = 0; l < multi_local.size(); ++l) {
    const auto parts = multi_local[l].ValuesOf(datagen::props::kPartNumber);
    if (!parts.empty() && l % 5 == 0) {
      AddFact(&multi_local[l], datagen::props::kPartNumber,
              NearCopy(parts.front(), l));
    }
    if (l % 13 == 0) {
      AddFact(&multi_local[l], datagen::props::kPartNumber, "");
    }
    if (l % 11 == 0) {
      DropProperty(&multi_local[l], datagen::props::kManufacturer);
    } else if (l % 6 == 0) {
      const auto other = multi_local[(l + 1) % multi_local.size()].ValuesOf(
          datagen::props::kManufacturer);
      if (!other.empty()) {
        AddFact(&multi_local[l], datagen::props::kManufacturer,
                other.front());
      }
    }
  }
  FilterStats at[3];
  const double thresholds[3] = {0.3, 0.6, 0.85};
  for (int t = 0; t < 3; ++t) {
    SCOPED_TRACE(thresholds[t]);
    ExpectPruneBatchMatchesPrune(FilteredMatcher(), multi_external,
                                 multi_local, part_blocker, thresholds[t],
                                 &at[t], &candidates);
  }
  EXPECT_GT(at[1].pairs_pruned, at[0].pairs_pruned);
  EXPECT_GT(at[2].pairs_pruned, at[1].pairs_pruned);
  EXPECT_LT(at[2].pairs_pruned, candidates);
  // Stage B probes multi-valued slots here, on both sides.
  EXPECT_GT(at[0].by_distance_cap, 0u);
  EXPECT_GT(at[1].by_distance_cap, 0u);
  // The Jaro plans over the same slots: a multi-valued external slot
  // takes the cross-product helper for every candidate. Candidates share
  // a 3-byte prefix here, which lifts every Jaro-Winkler bound to at
  // least 0.3 + 0.7 * Jaro's, so only a high threshold prunes.
  ExpectPruneBatchMatchesPrune(jaro, multi_external, multi_local,
                               part_blocker, thresholds[2], &stats,
                               &candidates);
  EXPECT_GT(stats.pairs_pruned, 0u);
  EXPECT_LT(stats.pairs_pruned, candidates);
}

// Both Jaccard paths must read each value's distinct-token count, the set
// TokenSetSignature hashes: the slot record's count for single values and
// the cross-product helper's for several. Here the only values that share
// a token repeat it: "AB AB CD" holds 3 tokens but 2 distinct ones, so
// against "AB AB EF" the bound is 1 / (2 + 2 - 1) = 1/3, while the token
// counts would give 1 / (3 + 3 - 1) = 1/5. At threshold 0.25 the two
// counts decide the pair differently. A two-valued slot sends the pair
// through the helper, on the local side and then on the external side.
TEST(FilterBatchDifferential, JaccardBoundsReadDistinctTokens) {
  const char* part = datagen::props::kPartNumber;
  constexpr double kJaccardThreshold = 0.25;
  const linking::ItemMatcher matcher(
      {{part, part, linking::SimilarityMeasure::kJaccardTokens, 1.0}});
  core::Item single;
  single.iri = "single";
  AddFact(&single, part, "AB AB CD");
  core::Item repeated;
  repeated.iri = "repeated";
  AddFact(&repeated, part, "AB AB EF");
  AddFact(&repeated, part, "CD CD GH");
  core::Item repeated_once;
  repeated_once.iri = "repeated_once";
  AddFact(&repeated_once, part, "AB AB EF");

  // The premise, from the signatures themselves: each value pair shares
  // one token, and only the distinct counts keep its bound at the
  // threshold or above.
  const auto bound = [](std::string_view a, std::string_view b,
                        bool distinct) {
    std::uint8_t sig_a[text::kSignatureBytes];
    std::uint8_t sig_b[text::kSignatureBytes];
    text::TokenSetSignature(a, sig_a);
    text::TokenSetSignature(b, sig_b);
    return distinct ? text::JaccardSignatureBound(sig_a, 2, sig_b, 2)
                    : text::JaccardSignatureBound(sig_a, 3, sig_b, 3);
  };
  for (const std::string_view other : {"AB AB EF", "CD CD GH"}) {
    ASSERT_EQ(bound("AB AB CD", other, true), 1.0 / 3.0) << other;
    ASSERT_LT(bound("AB AB CD", other, false), kJaccardThreshold) << other;
  }

  const blocking::CartesianBlocker every_pair;
  const std::pair<core::Item, core::Item> pairs[] = {
      {single, repeated_once}, {single, repeated}, {repeated, single}};
  for (const auto& [external, local] : pairs) {
    SCOPED_TRACE(external.iri + " vs " + local.iri);
    FilterStats stats;
    std::size_t candidates = 0;
    ExpectPruneBatchMatchesPrune(matcher, {external}, {local}, every_pair,
                                 kJaccardThreshold, &stats, &candidates);
    EXPECT_EQ(candidates, 1u);
    EXPECT_EQ(stats.pairs_pruned, 0u);
  }
}

}  // namespace
}  // namespace rulelink
