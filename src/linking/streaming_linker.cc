#include "linking/streaming_linker.h"

#include <algorithm>
#include <cstdint>

#include "linking/feature_cache.h"
#include "linking/query_scratch.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace rulelink::linking {

StreamingLinker::StreamingLinker(const ItemMatcher* matcher, double threshold,
                                 Linker::Strategy strategy)
    : matcher_(matcher),
      threshold_(threshold),
      strategy_(strategy),
      cascade_(matcher, threshold) {
  RL_CHECK(matcher_ != nullptr);
  RL_CHECK(threshold_ >= 0.0 && threshold_ <= 1.0);
}

void AddFilterStats(const FilterStats& filters, LinkerStats* stats) {
  stats->pairs_pruned_by_filter += filters.pairs_pruned;
  stats->pruned_by_length += filters.by_length;
  stats->pruned_by_token_count += filters.by_token_count;
  stats->pruned_by_exact += filters.by_exact;
  stats->pruned_by_distance_cap += filters.by_distance_cap;
  stats->pruned_by_jaro += filters.by_jaro;
  stats->pruned_by_running_best += filters.by_running_best;
}

void StreamingLinker::QueryRun(const FeatureCache& external_features,
                               std::size_t external_index,
                               const FeatureCache& local_features,
                               QueryScratch* scratch, FilterStats* filters,
                               std::uint64_t* measures_computed,
                               std::size_t* pairs_scored,
                               std::vector<Link>* links) const {
  const std::vector<std::size_t>& run = scratch->run;
  if (run.empty()) return;
  cascade_.PruneBatch(external_features, external_index, local_features,
                      run.data(), run.size(), filters, &scratch->filter);
  const std::vector<std::uint8_t>& pruned = scratch->filter.pruned;
  const std::vector<double>& bound = scratch->filter.bound;
  const std::vector<double>& scores = scratch->score.scores;
  std::vector<std::size_t>& survivors = scratch->survivors;
  survivors.clear();

  if (strategy_ == Linker::Strategy::kAllAboveThreshold) {
    for (std::size_t idx = 0; idx < run.size(); ++idx) {
      RL_DCHECK(run[idx] < local_features.num_items());
      if (pruned[idx] == 0) survivors.push_back(run[idx]);
    }
    matcher_->ScoreRun(external_features, external_index, local_features,
                       survivors.data(), survivors.size(), &scratch->memo,
                       measures_computed, &scratch->score);
    *pairs_scored += survivors.size();
    for (std::size_t i = 0; i < survivors.size(); ++i) {
      if (scores[i] >= threshold_) {
        links->push_back({external_index, survivors[i], scores[i]});
      }
    }
    return;
  }

  // Best per external, under a running-best floor (DESIGN.md §5e). The
  // seed is the survivor with the highest bound, the earliest on ties;
  // it is scored alone.
  std::size_t seed = run.size();
  for (std::size_t idx = 0; idx < run.size(); ++idx) {
    RL_DCHECK(run[idx] < local_features.num_items());
    if (pruned[idx] == 0 && (seed == run.size() || bound[idx] > bound[seed])) {
      seed = idx;
    }
  }
  if (seed == run.size()) return;
  matcher_->ScoreRun(external_features, external_index, local_features,
                     &run[seed], 1, &scratch->memo, measures_computed,
                     &scratch->score);
  const double seed_score = scores[0];
  // A bound is at least its pair's score, and the reduction keeps the
  // highest score, the earliest in run order on ties. So only a survivor
  // whose bound exceeds the seed's score, or equals it from an earlier
  // position, can still displace the seed; the rest are dropped unscored.
  std::size_t before_seed = 0;
  for (std::size_t idx = 0; idx < run.size(); ++idx) {
    if (pruned[idx] != 0 || idx == seed) continue;
    if (bound[idx] > seed_score || (bound[idx] == seed_score && idx < seed)) {
      survivors.push_back(run[idx]);
      before_seed += idx < seed;
    } else {
      ++filters->pairs_pruned;
      ++filters->by_running_best;
    }
  }
  if (!survivors.empty()) {
    matcher_->ScoreRun(external_features, external_index, local_features,
                       survivors.data(), survivors.size(), &scratch->memo,
                       measures_computed, &scratch->score);
  }
  *pairs_scored += 1 + survivors.size();

  // The survivors before the seed, the seed, then the rest: run order, so
  // strict > keeps the earliest local on ties, matching Linker's serial
  // tie-break.
  Link best;
  bool best_set = false;
  const auto offer = [&](std::size_t local, double score) {
    if (score < threshold_ || (best_set && score <= best.score)) return;
    best = {external_index, local, score};
    best_set = true;
  };
  for (std::size_t i = 0; i < before_seed; ++i) offer(survivors[i], scores[i]);
  offer(run[seed], seed_score);
  for (std::size_t i = before_seed; i < survivors.size(); ++i) {
    offer(survivors[i], scores[i]);
  }
  if (best_set) links->push_back(best);
}

std::vector<Link> StreamingLinker::Run(const blocking::CandidateIndex& index,
                                       const FeatureCache& external_features,
                                       const FeatureCache& local_features,
                                       LinkerStats* stats,
                                       std::size_t num_threads,
                                       ScoreMemoStats* memo_stats,
                                       obs::MetricsRegistry* metrics) const {
  RL_DCHECK(&external_features.dict().root() == &local_features.dict().root());
  RL_CHECK(index.num_external() == external_features.num_items())
      << "candidate index and external feature cache disagree";
  const obs::MetricsRegistry::StageScope stage(metrics, "linking/stream");
  const bool observe = metrics != nullptr;
  const std::size_t num_external = index.num_external();

  struct StreamShard {
    std::vector<Link> links;
    std::size_t pairs_scored = 0;
    std::uint64_t measures_computed = 0;
    std::size_t peak_run = 0;
    FilterStats filters;
    ScoreMemoStats memo;
    obs::Histogram run_lengths;  // one observation per external item
  };
  // Run lengths are exactly the skew the morsel scheduler exists for: one
  // hot external with a huge candidate run no longer serializes its whole
  // static chunk. Memo + histogram per slot keeps the hint moderate.
  constexpr std::size_t kExternalsPerMorsel = 256;
  const std::size_t num_shards =
      util::ParallelSlots(num_threads, num_external, kExternalsPerMorsel);
  std::vector<StreamShard> shards(std::max<std::size_t>(1, num_shards));
  // Chunks partition external items, not pairs, so every per-external run
  // lives entirely inside one shard: the serial best-per-external logic
  // applies locally and shard outputs concatenate without folding.
  util::ParallelFor(
      num_threads, num_external,
      [&](std::size_t chunk, std::size_t begin, std::size_t end) {
        StreamShard& shard = shards[chunk];
        QueryScratch scratch;  // every buffer reused per external item
        for (std::size_t e = begin; e < end; ++e) {
          index.CandidatesOf(e, &scratch.run);
          shard.peak_run = std::max(shard.peak_run, scratch.run.size());
          if (observe) shard.run_lengths.Observe(scratch.run.size());
          QueryRun(external_features, e, local_features, &scratch,
                   &shard.filters, &shard.measures_computed,
                   &shard.pairs_scored, &shard.links);
        }
        shard.memo = scratch.memo.stats();
      },
      kExternalsPerMorsel);

  std::vector<Link> links;
  LinkerStats total;
  ScoreMemoStats memo_total;
  obs::Histogram run_lengths;  // shards fold in chunk order
  for (const StreamShard& shard : shards) {
    if (observe) run_lengths.Merge(shard.run_lengths);
    total.pairs_scored += shard.pairs_scored;
    total.comparisons += shard.measures_computed;
    AddFilterStats(shard.filters, &total);
    total.peak_candidate_run =
        std::max(total.peak_candidate_run, shard.peak_run);
    memo_total.Add(shard.memo);
    links.insert(links.end(), shard.links.begin(), shard.links.end());
  }
  total.links_emitted = links.size();
  if (metrics != nullptr) {
    // Only thread-invariant quantities: `comparisons` (kernels run) and
    // the memo counters depend on the chunking, so they stay out of the
    // deterministic snapshot.
    metrics->AddCounter("linking/stream/external_items", num_external);
    metrics->AddCounter("linking/stream/pairs_scored", total.pairs_scored);
    metrics->AddCounter("linking/stream/links_emitted", total.links_emitted);
    metrics->AddCounter("linking/filter/pairs_pruned",
                        total.pairs_pruned_by_filter);
    metrics->AddCounter("linking/filter/by_length", total.pruned_by_length);
    metrics->AddCounter("linking/filter/by_token_count",
                        total.pruned_by_token_count);
    metrics->AddCounter("linking/filter/by_exact", total.pruned_by_exact);
    metrics->AddCounter("linking/filter/by_distance_cap",
                        total.pruned_by_distance_cap);
    metrics->AddCounter("linking/filter/by_jaro", total.pruned_by_jaro);
    metrics->AddCounter("linking/filter/by_running_best",
                        total.pruned_by_running_best);
    metrics->MergeHistogram("linking/stream/run_length", run_lengths);
  }
  if (stats != nullptr) *stats = total;
  if (memo_stats != nullptr) memo_stats->Add(memo_total);
  return links;
}

}  // namespace rulelink::linking
