// Streaming linker, the production linking engine of the batch pipeline,
// the CLI and the serve engine: fuses candidate generation and cached
// scoring. It walks a blocking::CandidateIndex external item by external
// item, holds only the current per-external candidate run, and pushes
// each run through a threshold-aware FilterCascade before the cached
// run scorer sees it; under best-per-external a running-best floor then
// drops the survivors that cannot beat the best score seen. Links are
// byte-identical to the string-path oracle Linker::Run over the same
// candidate space at every thread count — the cascade and the floor are
// sound bounds, never a heuristic (DESIGN.md §5e).
#ifndef RULELINK_LINKING_STREAMING_LINKER_H_
#define RULELINK_LINKING_STREAMING_LINKER_H_

#include <vector>

#include "blocking/blocker.h"
#include "linking/filters.h"
#include "linking/linker.h"
#include "linking/matcher.h"
#include "linking/query_scratch.h"
#include "obs/metrics.h"

namespace rulelink::linking {

class StreamingLinker {
 public:
  // `matcher` is borrowed and must outlive the linker. Threshold and
  // strategy have Linker semantics.
  StreamingLinker(const ItemMatcher* matcher, double threshold,
                  Linker::Strategy strategy = Linker::Strategy::kBestPerExternal);

  // Streams the index's per-external candidate runs into the filter
  // cascade and the cached scorer. Both caches must have been built
  // against this linker's matcher and share one FeatureDictionary, and
  // the index must cover exactly the cache's external items.
  //
  // External items are partitioned across `num_threads` workers (0 =
  // hardware concurrency, 1 = serial); a per-external run never straddles
  // a chunk boundary, so per-worker links concatenate in chunk order with
  // no boundary folding and the output is identical at every thread
  // count. Each worker keeps a private ScoreMemo; `memo_stats`
  // accumulates their counters (they depend on the chunking).
  // `stats` additionally reports the cascade's prune counters and
  // peak_candidate_run, all thread-count invariant.
  //
  // `metrics`, when non-null, gets the "linking/stream" stage, the
  // thread-invariant pair/prune/link counters (the per-filter cascade
  // counters live here under "linking/filter/*") and a log2 histogram of
  // per-external candidate run lengths. Workers observe into shard-local
  // histograms that merge in chunk order, so the recorded metrics are
  // byte-identical at every thread count; the chunking-dependent memo and
  // kernel counters stay out (DESIGN.md §5f).
  std::vector<Link> Run(const blocking::CandidateIndex& index,
                        const FeatureCache& external_features,
                        const FeatureCache& local_features,
                        LinkerStats* stats = nullptr,
                        std::size_t num_threads = 0,
                        ScoreMemoStats* memo_stats = nullptr,
                        obs::MetricsRegistry* metrics = nullptr) const;

  // The per-external core both Run's workers and the serve engine's
  // sessions execute: pushes the already-fetched candidate run in
  // scratch->run through the batched cascade, scores the survivors
  // through ItemMatcher::ScoreRun (gather every candidate's values, then
  // score them against each external value prepared once), and appends
  // this external's links to *links under the linker's strategy and
  // tie-break. kAllAboveThreshold scores every survivor as one run.
  // kBestPerExternal first scores the survivor with the highest cascade
  // bound alone, then drops every survivor whose bound shows it cannot
  // displace that one, and scores the rest as one run. Links and scores
  // are those of ItemMatcher::Score called pair by pair in run order;
  // every prune, the running-best drops included, is counted in
  // *filters (non-null). Allocation-free once `scratch` and `links` are
  // warm. Thread-safe across callers with distinct scratches.
  void QueryRun(const FeatureCache& external_features,
                std::size_t external_index,
                const FeatureCache& local_features, QueryScratch* scratch,
                FilterStats* filters, std::uint64_t* measures_computed,
                std::size_t* pairs_scored, std::vector<Link>* links) const;

 private:
  const ItemMatcher* matcher_;
  double threshold_;
  Linker::Strategy strategy_;
  FilterCascade cascade_;
};

// Adds the cascade's and the running-best floor's prune counters to the
// matching LinkerStats fields.
void AddFilterStats(const FilterStats& filters, LinkerStats* stats);

}  // namespace rulelink::linking

#endif  // RULELINK_LINKING_STREAMING_LINKER_H_
