// Reusable per-worker scratch for one streaming query context: the score
// memo, the filter cascade's batch scratch, the candidate-run buffer and
// the run scorer's gather buffers. Before this struct existed,
// StreamingLinker::Run materialized all of them per worker chunk on every
// call — fine for batch runs, but the serving engine answers millions of
// single-item queries, where per-call setup was the dominant allocation
// source. One QueryScratch per worker (streaming shard or serve session)
// makes the steady-state query path allocation-free for known values of
// at most 64 bytes under measures other than Monge-Elkan: every member
// reuses its warm capacity across requests, and only a new Monge-Elkan
// value pair grows the memo.
#ifndef RULELINK_LINKING_QUERY_SCRATCH_H_
#define RULELINK_LINKING_QUERY_SCRATCH_H_

#include <cstddef>
#include <string_view>
#include <vector>

#include "linking/feature_cache.h"
#include "linking/filters.h"
#include "linking/matcher.h"

namespace rulelink::linking {

// Buffers of ItemMatcher::ScoreRun. `scores` is the output of the last
// call, one score per candidate; the rest is per-rule staging. While a
// rule is scored, candidate c's local values are gathered[value_begin[c],
// value_begin[c + 1]) — an empty span means the property is missing.
struct ScoreRunScratch {
  std::vector<double> scores;
  std::vector<double> weight_total;  // per candidate, over active rules
  std::vector<double> best;          // per candidate, this rule's best
  std::vector<std::size_t> value_begin;
  std::vector<ValueId> value_ids;  // the gathered local values
  std::vector<std::string_view> views;  // their strings (character measures)
  std::vector<FeatureDictionary::ValueFeatures> features;  // set measures
  std::vector<double> similarity;  // one external value vs every value
};

struct QueryScratch {
  ScoreMemo memo;             // (value-id, value-id) Monge-Elkan replay
  FilterBatchScratch filter;  // PruneBatch sums and probe staging
  std::vector<std::size_t> run;        // current per-external candidate run
  std::vector<std::size_t> survivors;  // the run's unpruned candidates
  ScoreRunScratch score;               // the survivors' scores and staging

  // Drops memoized scores but keeps every buffer's capacity. Required
  // whenever the value-id universe changes under the scratch — the serve
  // engine calls this on snapshot-generation change, where ids renumber
  // and stale memo keys would alias fresh pairs.
  void InvalidateMemo() { memo.Clear(); }
};

}  // namespace rulelink::linking

#endif  // RULELINK_LINKING_QUERY_SCRATCH_H_
