// One batch linking pass, as every workload runs it: both feature caches,
// the candidate index, StreamingLinker::Run and the quality evaluation,
// rebuilt from the inputs on every call so nothing but the inputs carries
// from one pass to the next.
#ifndef RULELINK_PERFBENCH_PASS_H_
#define RULELINK_PERFBENCH_PASS_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "blocking/blocker.h"
#include "core/item.h"
#include "linking/evaluation.h"
#include "linking/feature_cache.h"
#include "linking/linker.h"
#include "linking/matcher.h"
#include "linking/streaming_linker.h"
#include "support.h"
#include "util/thread_pool.h"

namespace rulelink::perfbench {

// What a pass builds before it links. Heap-allocated and never moved: the
// caches point into the dictionary.
struct PassState {
  linking::FeatureDictionary dict;
  linking::FeatureCache external;
  linking::FeatureCache local;
  std::unique_ptr<blocking::CandidateIndex> index;

  std::size_t feature_bytes() const {
    return external.memory_bytes() + local.memory_bytes() +
           dict.memory_bytes();
  }
};

struct PassInputs {
  const std::vector<core::Item>& externals;
  const std::vector<core::Item>& locals;
  const std::vector<blocking::CandidatePair>& gold;
  const linking::ItemMatcher& matcher;
  const blocking::CandidateGenerator& blocker;
  const linking::StreamingLinker& linker;
};

struct Pass {
  std::unique_ptr<PassState> state;
  std::vector<linking::Link> links;
  linking::LinkerStats stats;
  linking::ScoreMemoStats memo;
  linking::LinkageQuality quality;
  std::int64_t total_ns = 0;
  std::int64_t build_ns = 0;  // caches and index: built before any link
  util::SchedulerTotals pool;
};

// Runs one pass on kThreads contexts. With `trace`, records batch.pass >
// linking.featurize, blocking.build_index, linking.stream, linking.evaluate.
Pass RunPass(const PassInputs& inputs, SpanRecorder* trace, std::uint64_t id);

// Same links, scores and deterministic counters.
bool SamePass(const Pass& a, const Pass& b);
bool SameLinks(const std::vector<linking::Link>& a,
               const std::vector<linking::Link>& b);

// CandidatesOf over every external in a loop of its own (span
// blocking.fetch): the candidate fetch StreamingLinker::Run performs
// inside, timed apart.
struct Fetch {
  double candidates = 0.0;
  double empty_runs = 0.0;
  std::vector<double> run_lengths;  // one per external
};
Fetch FetchAll(const PassState& state, SpanRecorder* trace, std::uint64_t id);

}  // namespace rulelink::perfbench

#endif  // RULELINK_PERFBENCH_PASS_H_
