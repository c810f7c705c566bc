#include "pass.h"

#include "workloads.h"

namespace rulelink::perfbench {

Pass RunPass(const PassInputs& in, SpanRecorder* trace, std::uint64_t id) {
  Pass pass;
  pass.state = std::make_unique<PassState>();
  PassState& state = *pass.state;
  const util::SchedulerTotals pool_before = util::GlobalSchedulerTotals();
  const std::int64_t start = NowNs();
  std::int64_t built = 0;
  {
    const ScopedSpan root(trace, "batch.pass", id);
    {
      const ScopedSpan span(trace, "linking.featurize", id);
      state.external = linking::FeatureCache::Build(
          in.externals, in.matcher, linking::FeatureCache::Side::kExternal,
          &state.dict, kThreads);
      state.local = linking::FeatureCache::Build(
          in.locals, in.matcher, linking::FeatureCache::Side::kLocal,
          &state.dict, kThreads);
    }
    {
      const ScopedSpan span(trace, "blocking.build_index", id);
      state.index = in.blocker.BuildIndex(in.externals, in.locals);
    }
    built = NowNs();
    {
      const ScopedSpan span(trace, "linking.stream", id);
      pass.links = in.linker.Run(*state.index, state.external, state.local,
                                 &pass.stats, kThreads, &pass.memo);
    }
    {
      const ScopedSpan span(trace, "linking.evaluate", id);
      pass.quality = linking::EvaluateLinks(pass.links, in.gold);
    }
  }
  const std::int64_t end = NowNs();
  pass.total_ns = end - start;
  pass.build_ns = built - start;
  pass.pool = util::GlobalSchedulerTotals().Minus(pool_before);
  return pass;
}

bool SameLinks(const std::vector<linking::Link>& a,
               const std::vector<linking::Link>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].external_index != b[i].external_index ||
        a[i].local_index != b[i].local_index || a[i].score != b[i].score) {
      return false;
    }
  }
  return true;
}

bool SamePass(const Pass& a, const Pass& b) {
  const linking::LinkerStats& x = a.stats;
  const linking::LinkerStats& y = b.stats;
  return SameLinks(a.links, b.links) && x.pairs_scored == y.pairs_scored &&
         x.comparisons == y.comparisons &&
         x.links_emitted == y.links_emitted &&
         x.pairs_pruned_by_filter == y.pairs_pruned_by_filter &&
         x.pruned_by_length == y.pruned_by_length &&
         x.pruned_by_token_count == y.pruned_by_token_count &&
         x.pruned_by_exact == y.pruned_by_exact &&
         x.pruned_by_distance_cap == y.pruned_by_distance_cap &&
         x.peak_candidate_run == y.peak_candidate_run &&
         a.memo.lookups == b.memo.lookups && a.memo.hits == b.memo.hits &&
         a.quality.emitted == b.quality.emitted &&
         a.quality.correct == b.quality.correct;
}

Fetch FetchAll(const PassState& state, SpanRecorder* trace, std::uint64_t id) {
  Fetch fetch;
  const std::size_t n = state.index->num_external();
  fetch.run_lengths.reserve(n);
  std::vector<std::size_t> run;
  {
    const ScopedSpan span(trace, "blocking.fetch", id);
    for (std::size_t e = 0; e < n; ++e) {
      state.index->CandidatesOf(e, &run);
      fetch.run_lengths.push_back(static_cast<double>(run.size()));
    }
  }
  for (const double length : fetch.run_lengths) {
    fetch.candidates += length;
    if (length == 0.0) fetch.empty_runs += 1.0;
  }
  return fetch;
}

}  // namespace rulelink::perfbench
