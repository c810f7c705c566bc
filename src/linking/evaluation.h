// End-to-end linkage evaluation against a gold standard of true matches.
#ifndef RULELINK_LINKING_EVALUATION_H_
#define RULELINK_LINKING_EVALUATION_H_

#include <vector>

#include "blocking/blocker.h"
#include "linking/linker.h"
#include "obs/metrics.h"

namespace rulelink::linking {

struct LinkageQuality {
  std::size_t emitted = 0;
  std::size_t correct = 0;
  std::size_t gold = 0;
  double precision = 0.0;  // correct / emitted; exactly 0.0 when emitted == 0
  double recall = 0.0;     // correct / gold; exactly 0.0 when gold == 0
  double f1 = 0.0;         // exactly 0.0 when precision + recall == 0
};

// `gold` lists the true (external, local) matches; duplicates are counted
// once. All three quality measures are exactly 0.0 (never NaN) on empty
// links and/or empty gold.
LinkageQuality EvaluateLinks(const std::vector<Link>& links,
                             const std::vector<blocking::CandidatePair>& gold);

// Everything the fused streaming pipeline produces in one pass.
struct LinkagePipelineResult {
  std::vector<Link> links;
  LinkerStats stats;
  ScoreMemoStats memo;      // aggregated over the linker's workers
  LinkageQuality quality;   // zero-initialized unless `gold` was given
  std::size_t num_candidates = 0;
  std::size_t distinct_values = 0;     // dictionary build statistics
  std::size_t dictionary_symbols = 0;  // values + tokens + bigrams
  std::size_t dictionary_bytes = 0;
};

// The fused linking pipeline over any candidate generator (the classic
// blockers or the paper's RuleBlocker): builds one shared
// FeatureDictionary and both per-source FeatureCaches (serially), streams
// the generator's CandidateIndex through StreamingLinker (`num_threads`
// workers) and — when `gold` is non-null — evaluates the links.
// Links, order and scores are byte-identical to the oracle Linker::Run
// over generator.Generate at every thread count. num_candidates is
// pairs_scored + pairs_pruned_by_filter (runs are never materialized).
//
// A non-null `metrics` traces the run under the "pipeline/streaming" stage
// and records the pipeline counters and gauges, the per-filter prune
// counters and the candidate-run-length histogram (DESIGN.md §5f). Every
// recorded quantity is thread-invariant, so the deterministic snapshot is
// byte-identical at every `num_threads`.
LinkagePipelineResult RunStreamingLinkagePipeline(
    const std::vector<core::Item>& external,
    const std::vector<core::Item>& local,
    const blocking::CandidateGenerator& generator, const ItemMatcher& matcher,
    double threshold,
    Linker::Strategy strategy = Linker::Strategy::kBestPerExternal,
    const std::vector<blocking::CandidatePair>* gold = nullptr,
    std::size_t num_threads = 0, obs::MetricsRegistry* metrics = nullptr);

}  // namespace rulelink::linking

#endif  // RULELINK_LINKING_EVALUATION_H_
