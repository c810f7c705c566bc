#include "linking/serve_engine.h"

#include <utility>

#include "util/logging.h"

namespace rulelink::linking {

ServeSnapshot::ServeSnapshot(ItemMatcher matcher, double threshold,
                             Linker::Strategy strategy,
                             std::shared_ptr<const core::RuleSet> rules)
    : matcher_(std::move(matcher)),
      threshold_(threshold),
      strategy_(strategy),
      rules_(std::move(rules)),
      linker_(&matcher_, threshold, strategy) {}

ServeSnapshot::ServeSnapshot(std::vector<core::Item> catalog,
                             ItemMatcher matcher, double threshold,
                             Linker::Strategy strategy,
                             const blocking::CandidateGenerator& blocker,
                             std::size_t /*num_threads*/,
                             obs::MetricsRegistry* metrics,
                             std::shared_ptr<const core::RuleSet> rules)
    : ServeSnapshot(std::move(matcher), threshold, strategy,
                    std::move(rules)) {
  auto segment =
      std::make_shared<std::vector<core::Item>>(std::move(catalog));
  num_items_ = segment->size();
  segment_begin_.push_back(0);
  segments_.push_back(std::move(segment));
  live_.assign(num_items_, 1);
  dict_link_ = std::make_shared<DictLink>();
  local_features_ =
      FeatureCache::Build(*segments_[0], matcher_, FeatureCache::Side::kLocal,
                          &dict_link_->dict, /*num_threads=*/1, metrics);
  index_ = blocker.BuildItemIndex(*segments_[0]);
  RL_CHECK(index_ != nullptr)
      << "blocker '" << blocker.name()
      << "' cannot build a probe-by-item index (BuildItemIndex returned "
         "null); serving needs a key-based, cartesian or rule blocker, not "
         "a list-based one";
}

std::unique_ptr<ServeSnapshot> ServeSnapshot::BuildDelta(
    const ServeSnapshot& base, CatalogDelta delta,
    const blocking::CandidateGenerator& blocker, const ServePolicy* policy,
    obs::MetricsRegistry* metrics) {
  const obs::MetricsRegistry::StageScope stage(metrics, "serve/delta_build");
  std::unique_ptr<ServeSnapshot> next(new ServeSnapshot(
      base.matcher_, policy != nullptr ? policy->threshold : base.threshold_,
      policy != nullptr ? policy->strategy : base.strategy_,
      policy != nullptr ? policy->rules : base.rules_));

  // Share the predecessor's item segments wholesale (shared_ptr copies,
  // no item copies) and extend the bookkeeping that rides them.
  next->segments_ = base.segments_;
  next->segment_begin_ = base.segment_begin_;
  next->num_items_ = base.num_items_;
  next->live_ = base.live_;
  next->num_retired_ = base.num_retired_;

  // Dictionary chain: a fresh overlay level whose base is the
  // predecessor's (now frozen) dictionary. The link holds the whole
  // ancestor chain alive independently of the predecessor snapshot's
  // lifetime.
  next->dict_link_ = std::make_shared<DictLink>();
  next->dict_link_->base = base.dict_link_;
  next->dict_link_->dict = FeatureDictionary(&base.dict_link_->dict);

  const std::vector<core::Item>* appended = nullptr;
  if (!delta.appended.empty()) {
    auto segment =
        std::make_shared<std::vector<core::Item>>(std::move(delta.appended));
    appended = segment.get();
    next->segment_begin_.push_back(next->num_items_);
    next->num_items_ += segment->size();
    next->live_.resize(next->num_items_, 1);
    next->segments_.push_back(std::move(segment));
  }

  // Retirements apply after the appends so a single delta may retire an
  // index out of its own appended range (indices are global and stable,
  // so ordering changes nothing for base-range retirements).
  for (const std::size_t index : delta.retired) {
    RL_CHECK(index < next->num_items_)
        << "retired index " << index << " out of range (catalog has "
        << next->num_items_ << " items)";
    if (next->live_[index] != 0) {
      next->live_[index] = 0;
      ++next->num_retired_;
    }
  }

  const std::vector<core::Item> empty;
  next->local_features_ = FeatureCache::ExtendFrom(
      base.local_features_, appended != nullptr ? *appended : empty,
      next->matcher_, FeatureCache::Side::kLocal, &next->dict_link_->dict,
      metrics);

  if (appended == nullptr) {
    // Nothing appended: the predecessor's inverted index answers the new
    // generation verbatim (tombstones are filtered outside the index).
    next->index_ = base.index_;
  } else {
    next->index_ = blocker.ExtendItemIndex(base.index_, *appended);
    RL_CHECK(next->index_ != nullptr)
        << "blocker '" << blocker.name()
        << "' cannot extend the base snapshot's candidate index "
           "(ExtendItemIndex returned null); a delta that appends needs a "
           "key-based or cartesian blocker, the same generator and key "
           "parameters that built the base";
  }
  return next;
}

ServeEngine::~ServeEngine() {
  ServeSnapshot* last = current_.exchange(nullptr, std::memory_order_acq_rel);
  delete last;
  // epochs_ destructor drains whatever is still in limbo.
}

std::uint64_t ServeEngine::InstallLocked(
    std::unique_ptr<ServeSnapshot> snapshot) {
  snapshot->generation_ = ++next_generation_;
  const std::uint64_t generation = snapshot->generation_;
  // The exchange is the linearization point: a reader's acquire-load sees
  // either the old snapshot (fully published earlier) or this one (fully
  // constructed above — release ordering covers its initialization).
  ServeSnapshot* old =
      current_.exchange(snapshot.release(), std::memory_order_acq_rel);
  if (old != nullptr) {
    epochs_.Retire(
        old, +[](void* p) { delete static_cast<ServeSnapshot*>(p); });
  }
  // Opportunistic reclamation, as the contract above promises: Retire
  // sweeps once itself, but a snapshot whose last reader unpinned after
  // that sweep would otherwise linger until the next retire or an
  // explicit ReclaimRetired. Writer-side only — readers never touch the
  // domain mutex.
  epochs_.TryReclaim();
  return generation;
}

std::uint64_t ServeEngine::Publish(std::unique_ptr<ServeSnapshot> snapshot) {
  RL_CHECK(snapshot != nullptr);
  const std::lock_guard<std::mutex> lock(publish_mutex_);
  return InstallLocked(std::move(snapshot));
}

std::uint64_t ServeEngine::PublishDelta(
    CatalogDelta delta, const blocking::CandidateGenerator& blocker,
    const ServePolicy* policy, obs::MetricsRegistry* metrics) {
  const std::lock_guard<std::mutex> lock(publish_mutex_);
  // Safe to read the current snapshot without a pin: only a publisher
  // retires snapshots, publishers serialize on publish_mutex_, and the
  // installed snapshot is never in limbo.
  const ServeSnapshot* base = current_.load(std::memory_order_acquire);
  RL_CHECK(base != nullptr) << "PublishDelta before the first Publish";
  return InstallLocked(
      ServeSnapshot::BuildDelta(*base, std::move(delta), blocker, policy,
                                metrics));
}

ServeEngine::Session::Session(ServeEngine* engine)
    : engine_(engine), slot_(engine->epochs_.RegisterReader()) {}

ServeEngine::Session::~Session() {
  engine_->epochs_.UnregisterReader(slot_);
}

std::uint64_t ServeEngine::Session::Query(const core::Item& item,
                                          std::vector<Link>* links,
                                          std::size_t external_index) {
  // Pin for the whole query: every pointer read below (snapshot, its
  // dictionary, caches, index) stays valid until the guard drops, even if
  // a writer publishes and retires mid-query.
  const util::EpochDomain::Guard guard(&engine_->epochs_, slot_);
  const ServeSnapshot* snapshot =
      engine_->current_.load(std::memory_order_acquire);
  RL_CHECK(snapshot != nullptr) << "Query before the first Publish";

  if (snapshot->generation() != generation_seen_) {
    // New generation: value ids renumber (a delta generation's dictionary
    // interns past the very universe this overlay extended), so the
    // overlay universe and the id-keyed score memo restart. This path may
    // allocate — swaps are rare and the steady state (same generation)
    // never comes here.
    generation_seen_ = snapshot->generation();
    overlay_ = FeatureDictionary(&snapshot->dict());
    scratch_.InvalidateMemo();
  }

  query_features_.AssignSingle(item, snapshot->matcher(),
                               FeatureCache::Side::kExternal, &overlay_);
  snapshot->index().CandidatesOfItem(item, &key_scratch_, &scratch_.run);
  snapshot->FilterLiveCandidates(&scratch_.run);
  staged_links_.clear();
  snapshot->linker().QueryRun(query_features_, 0, snapshot->local_features(),
                              &scratch_, &filters_, &measures_computed_,
                              &pairs_scored_, &staged_links_);
  // QueryRun stamped the single-item cache's index (0); rewrite to the
  // caller's query ordinal so served answers compare byte-identically
  // against a batch run over the full query list.
  links->clear();
  for (Link link : staged_links_) {
    link.external_index = external_index;
    links->push_back(link);
  }
  return generation_seen_;
}

}  // namespace rulelink::linking
