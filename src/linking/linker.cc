#include "linking/linker.h"

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "util/logging.h"
#include "util/thread_pool.h"

namespace rulelink::linking {
namespace {

// Per-worker scoring results over one contiguous chunk of the sorted
// candidate list. Merged on the calling thread in chunk order.
struct ScoreShard {
  std::vector<Link> links;  // kAllAboveThreshold: links in candidate order
  std::unordered_map<std::size_t, Link> best;  // kBestPerExternal
  std::size_t pairs_scored = 0;
  std::uint64_t measures_computed = 0;
};

}  // namespace

Linker::Linker(const ItemMatcher* matcher, double threshold,
               Strategy strategy)
    : matcher_(matcher), threshold_(threshold), strategy_(strategy) {
  RL_CHECK(matcher_ != nullptr);
  RL_CHECK(threshold_ >= 0.0 && threshold_ <= 1.0);
}

std::vector<Link> Linker::Run(
    const std::vector<core::Item>& external,
    const std::vector<core::Item>& local,
    const std::vector<blocking::CandidatePair>& candidates,
    LinkerStats* stats, std::size_t num_threads) const {
  // Deduplicate into (external, local) order; chunks of this list are then
  // themselves sorted, which the tie-break merge below relies on.
  std::vector<blocking::CandidatePair> unique(candidates.begin(),
                                              candidates.end());
  std::sort(unique.begin(), unique.end());
  unique.erase(std::unique(unique.begin(), unique.end()), unique.end());

  // Uncached scoring is expensive per pair but uniform; medium morsels
  // bound the shard count while leaving room for stealing.
  constexpr std::size_t kPairsPerMorsel = 512;
  const std::size_t num_shards =
      util::ParallelSlots(num_threads, unique.size(), kPairsPerMorsel);
  std::vector<ScoreShard> shards(std::max<std::size_t>(1, num_shards));
  util::ParallelFor(
      num_threads, unique.size(),
      [&](std::size_t chunk, std::size_t begin, std::size_t end) {
        ScoreShard& shard = shards[chunk];
        for (std::size_t i = begin; i < end; ++i) {
          const blocking::CandidatePair& pair = unique[i];
          RL_DCHECK(pair.external_index < external.size());
          RL_DCHECK(pair.local_index < local.size());
          const double score =
              matcher_->Score(external[pair.external_index],
                              local[pair.local_index],
                              &shard.measures_computed);
          ++shard.pairs_scored;
          if (score < threshold_) continue;
          const Link link{pair.external_index, pair.local_index, score};
          if (strategy_ == Strategy::kAllAboveThreshold) {
            shard.links.push_back(link);
          } else {
            auto [it, inserted] = shard.best.try_emplace(
                pair.external_index, link);
            if (!inserted && score > it->second.score) it->second = link;
          }
        }
      },
      kPairsPerMorsel);

  std::size_t pairs_scored = 0;
  std::uint64_t measures_computed = 0;
  std::vector<Link> links;
  if (strategy_ == Strategy::kAllAboveThreshold) {
    for (const ScoreShard& shard : shards) {
      pairs_scored += shard.pairs_scored;
      measures_computed += shard.measures_computed;
      links.insert(links.end(), shard.links.begin(), shard.links.end());
    }
  } else {
    // Chunk-order merge keeps the serial tie-break: an equal score never
    // displaces the link found earlier in candidate order.
    std::unordered_map<std::size_t, Link> best;
    for (ScoreShard& shard : shards) {
      pairs_scored += shard.pairs_scored;
      measures_computed += shard.measures_computed;
      for (const auto& [external_index, link] : shard.best) {
        auto [it, inserted] = best.try_emplace(external_index, link);
        if (!inserted && link.score > it->second.score) it->second = link;
      }
    }
    links.reserve(best.size());
    for (const auto& [external_index, link] : best) links.push_back(link);
  }

  std::sort(links.begin(), links.end(), [](const Link& a, const Link& b) {
    if (a.external_index != b.external_index) {
      return a.external_index < b.external_index;
    }
    return a.local_index < b.local_index;
  });
  if (stats != nullptr) {
    stats->pairs_scored = pairs_scored;
    stats->comparisons = measures_computed;
    stats->links_emitted = links.size();
  }
  return links;
}

}  // namespace rulelink::linking
