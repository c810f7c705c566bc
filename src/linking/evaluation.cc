#include "linking/evaluation.h"

#include <algorithm>
#include <memory>

#include "linking/feature_cache.h"
#include "linking/streaming_linker.h"

namespace rulelink::linking {

LinkageQuality EvaluateLinks(
    const std::vector<Link>& links,
    const std::vector<blocking::CandidatePair>& gold) {
  LinkageQuality quality;
  // Sorted + deduplicated gold with binary-search probes: one O(g log g)
  // sort instead of a node-based std::set (one allocation per pair), and
  // the probe loop touches contiguous memory.
  std::vector<blocking::CandidatePair> gold_sorted(gold);
  std::sort(gold_sorted.begin(), gold_sorted.end());
  gold_sorted.erase(std::unique(gold_sorted.begin(), gold_sorted.end()),
                    gold_sorted.end());
  quality.gold = gold_sorted.size();
  quality.emitted = links.size();
  for (const Link& link : links) {
    if (std::binary_search(
            gold_sorted.begin(), gold_sorted.end(),
            blocking::CandidatePair{link.external_index, link.local_index})) {
      ++quality.correct;
    }
  }
  // Guarded divisions: every measure is exactly 0.0 — never NaN — when its
  // denominator is empty.
  if (quality.emitted > 0) {
    quality.precision = static_cast<double>(quality.correct) /
                        static_cast<double>(quality.emitted);
  }
  if (quality.gold > 0) {
    quality.recall = static_cast<double>(quality.correct) /
                     static_cast<double>(quality.gold);
  }
  if (quality.precision + quality.recall > 0.0) {
    quality.f1 = 2.0 * quality.precision * quality.recall /
                 (quality.precision + quality.recall);
  }
  return quality;
}

LinkagePipelineResult RunStreamingLinkagePipeline(
    const std::vector<core::Item>& external,
    const std::vector<core::Item>& local,
    const blocking::CandidateGenerator& generator, const ItemMatcher& matcher,
    double threshold, Linker::Strategy strategy,
    const std::vector<blocking::CandidatePair>* gold,
    std::size_t num_threads, obs::MetricsRegistry* metrics) {
  const obs::MetricsRegistry::StageScope stage(metrics, "pipeline/streaming");
  FeatureDictionary dict;
  const FeatureCache external_features =
      FeatureCache::Build(external, matcher, FeatureCache::Side::kExternal,
                          &dict, num_threads, metrics);
  const FeatureCache local_features =
      FeatureCache::Build(local, matcher, FeatureCache::Side::kLocal, &dict,
                          num_threads, metrics);

  std::unique_ptr<blocking::CandidateIndex> index;
  {
    const obs::MetricsRegistry::StageScope index_stage(
        metrics, "blocking/build_index");
    index = generator.BuildIndex(external, local);
  }

  LinkagePipelineResult result;
  result.distinct_values = dict.num_values();
  result.dictionary_symbols = dict.num_symbols();
  result.dictionary_bytes = dict.memory_bytes();

  const StreamingLinker linker(&matcher, threshold, strategy);
  result.links = linker.Run(*index, external_features, local_features,
                            &result.stats, num_threads, &result.memo, metrics);
  result.num_candidates =
      result.stats.pairs_scored + result.stats.pairs_pruned_by_filter;
  if (gold != nullptr) {
    const obs::MetricsRegistry::StageScope eval_stage(metrics,
                                                      "pipeline/evaluate");
    result.quality = EvaluateLinks(result.links, *gold);
  }
  if (metrics == nullptr) return result;
  // Item counts, dictionary sizes and quality counts are functions of the
  // input alone (never of the chunking), so they belong in the
  // deterministic snapshot. Run sizes are observed by the streaming
  // linker, which sees every run exactly once.
  metrics->AddCounter("blocking/external_items", external.size());
  metrics->AddCounter("blocking/local_items", local.size());
  metrics->AddCounter("pipeline/candidates", result.num_candidates);
  metrics->AddCounter("pipeline/links", result.links.size());
  metrics->SetGauge("linking/dict/distinct_values",
                    static_cast<double>(result.distinct_values));
  metrics->SetGauge("linking/dict/symbols",
                    static_cast<double>(result.dictionary_symbols));
  metrics->SetGauge("linking/dict/bytes",
                    static_cast<double>(result.dictionary_bytes));
  if (gold != nullptr) {
    metrics->AddCounter("quality/emitted", result.quality.emitted);
    metrics->AddCounter("quality/correct", result.quality.correct);
    metrics->AddCounter("quality/gold", result.quality.gold);
    metrics->SetGauge("quality/precision", result.quality.precision);
    metrics->SetGauge("quality/recall", result.quality.recall);
    metrics->SetGauge("quality/f1", result.quality.f1);
  }
  return result;
}

}  // namespace rulelink::linking
