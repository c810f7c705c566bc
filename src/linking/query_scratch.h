// Reusable per-worker scratch for one streaming query context: the score
// memo, the filter cascade's batch scratch and the candidate-run buffer.
// Before this struct existed, StreamingLinker::Run materialized all three
// per worker chunk on every call — fine for batch runs, but the serving
// engine answers millions of single-item queries, where per-call setup was
// the dominant allocation source. One QueryScratch per worker (streaming
// shard or serve session) makes the steady-state query path allocation-free
// for known values of at most 64 bytes under measures other than
// Monge-Elkan: every member reuses its warm capacity across requests, and
// only a new Monge-Elkan value pair grows the memo.
#ifndef RULELINK_LINKING_QUERY_SCRATCH_H_
#define RULELINK_LINKING_QUERY_SCRATCH_H_

#include <cstddef>
#include <vector>

#include "linking/filters.h"
#include "linking/matcher.h"

namespace rulelink::linking {

struct QueryScratch {
  ScoreMemo memo;             // (value-id, value-id) Monge-Elkan replay
  FilterBatchScratch filter;  // PruneBatch lanes, gathers, probe staging
  std::vector<std::size_t> run;  // current per-external candidate run

  // Drops memoized scores but keeps every buffer's capacity. Required
  // whenever the value-id universe changes under the scratch — the serve
  // engine calls this on snapshot-generation change, where ids renumber
  // and stale memo keys would alias fresh pairs.
  void InvalidateMemo() { memo.Clear(); }
};

}  // namespace rulelink::linking

#endif  // RULELINK_LINKING_QUERY_SCRATCH_H_
