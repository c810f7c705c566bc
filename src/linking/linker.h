// The linker consumes candidate pairs (from any CandidateGenerator) and
// decides same-as links. Under the Unique Name Assumption of §3 each
// external item links to at most one local item, so the default strategy
// keeps the best-scoring local candidate above the decision threshold.
//
// Linker::Run is the string-path oracle: it scores every pair with
// ItemMatcher::Score and nothing else. The production linker is
// StreamingLinker (linking/streaming_linker.h), whose links the
// differential suites pin bit-identical to Run's.
#ifndef RULELINK_LINKING_LINKER_H_
#define RULELINK_LINKING_LINKER_H_

#include <cstdint>
#include <vector>

#include "blocking/blocker.h"
#include "core/item.h"
#include "linking/matcher.h"

namespace rulelink::linking {

struct Link {
  std::size_t external_index = 0;
  std::size_t local_index = 0;
  double score = 0.0;

  friend bool operator==(const Link& a, const Link& b) {
    return a.external_index == b.external_index &&
           a.local_index == b.local_index;
  }
};

struct LinkerStats {
  // Candidate pairs the scorer evaluated (after dedup, minus any pruned by
  // the streaming filter cascade). Identical at every thread count.
  std::size_t pairs_scored = 0;
  // Similarity kernels actually executed — memo hits are replays, not
  // computations, so they do not count. On the streaming path this
  // depends on how external items chunked across per-worker memos (a
  // consequence of the memo-hit exclusion; the scores never vary).
  std::uint64_t comparisons = 0;
  std::size_t links_emitted = 0;
  // Streaming-path (StreamingLinker) prune counters; zero for
  // Linker::Run. A pair the cascade prunes increments every filter whose
  // bound was below the optimistic 1.0, so the per-filter counters can
  // sum to more than pairs_pruned_by_filter; a running-best prune counts
  // in pruned_by_running_best alone. All identical at every thread count.
  std::size_t pairs_pruned_by_filter = 0;
  std::size_t pruned_by_length = 0;       // Levenshtein length gap
  std::size_t pruned_by_token_count = 0;  // Jaccard/Dice count bounds
  std::size_t pruned_by_exact = 0;        // kExact id mismatch
  std::size_t pruned_by_distance_cap = 0; // capped Levenshtein probe
  std::size_t pruned_by_jaro = 0;         // Jaro/Jaro-Winkler count bound
  std::size_t pruned_by_running_best = 0; // cannot beat the best so far
  // Longest per-external candidate run the streaming path buffered — the
  // peak working-set size that replaces the materialized candidate vector.
  std::size_t peak_candidate_run = 0;
};

class Linker {
 public:
  enum class Strategy {
    kBestPerExternal,  // UNA: argmax candidate above threshold
    kAllAboveThreshold,
  };

  // `matcher` is borrowed and must outlive the linker.
  Linker(const ItemMatcher* matcher, double threshold,
         Strategy strategy = Strategy::kBestPerExternal);

  // Scores the given candidate pairs and emits links. Candidates may be
  // unsorted and may contain duplicates (scored once).
  //
  // Scoring is partitioned across `num_threads` workers (0 = hardware
  // concurrency, 1 = serial) over the deduplicated, sorted candidate list;
  // per-worker results are merged in chunk order, so the emitted links,
  // their order and the stats are identical at every thread count. Ties in
  // the best-per-external strategy resolve to the earliest pair in
  // candidate order, exactly as in the serial path.
  std::vector<Link> Run(const std::vector<core::Item>& external,
                        const std::vector<core::Item>& local,
                        const std::vector<blocking::CandidatePair>& candidates,
                        LinkerStats* stats = nullptr,
                        std::size_t num_threads = 0) const;

 private:
  const ItemMatcher* matcher_;
  double threshold_;
  Strategy strategy_;
};

}  // namespace rulelink::linking

#endif  // RULELINK_LINKING_LINKER_H_
