// Resident serving engine: lock-free snapshot queries over a live catalog
// (DESIGN.md §5i), with delta-based republish (§5j).
//
// Every pipeline before this one was batch — build caches, stream
// candidates, exit. ServeEngine keeps an immutable ServeSnapshot (owned
// catalog segments + FeatureDictionary chain + FeatureCache +
// ItemCandidateIndex + rule set/matcher + filter cascade) resident behind
// a single atomic pointer, guarded by epoch-based reclamation
// (util::EpochDomain):
//
//   * Readers (Session::Query) pin an epoch, load the snapshot pointer
//     with one acquire-load, answer entirely from that snapshot, and
//     unpin. No lock, no reference count, no write to any shared line
//     except the session's own epoch slot.
//   * A writer (Publish/PublishDelta) installs the next snapshot with one
//     release-exchange and retires the old one into the epoch domain; it
//     is freed only after every pinned reader epoch has advanced past the
//     swap, so an in-flight query keeps dereferencing the snapshot it
//     loaded. Queries racing a swap are answered entirely from exactly
//     one generation — old until the pin that loaded old ends, new after.
//
// Publish rebuilds everything from scratch; PublishDelta builds
// generation N+1 *from* generation N given a CatalogDelta (appended and/or
// retired items) and optionally a new serving policy (threshold, strategy,
// rule set — the hot-swap path). The delta snapshot shares the
// predecessor's item segments, overlays a fresh dictionary level over the
// predecessor's frozen one (novel values intern past it, so every existing
// id — and the score-memo soundness invariant id equality ≡ string
// equality — is preserved), flat-copies + appends the feature cache, and
// layers the candidate index instead of re-inverting the catalog.
// Retirements tombstone items in place: indices stay stable, probes filter
// tombstones out of each candidate run.
//
// The per-query path reuses the streaming machinery end to end —
// ItemCandidateIndex run -> FilterCascade::PruneBatch ->
// ItemMatcher::ScoreRun over the survivors, one gather pass and one
// score pass per rule against the query's values prepared once. A
// best-per-external query does not score every survivor: it scores the
// one with the highest cascade bound, then only those whose bound can
// still beat that score (StreamingLinker::QueryRun). This runs with
// per-session scratch (QueryScratch, an overlay FeatureDictionary for
// novel query values, the single-item query FeatureCache, the
// blocking-key buffer) allocated once and reused, so under a key-based,
// cartesian or rule blocker the steady-state query path performs zero heap
// allocations on values the session already knows, of at most 64 bytes,
// under measures other than Monge-Elkan, whose new value pairs insert
// memo entries (asserted by the serve differential test). Served answers
// are byte-identical to batch StreamingLinker::Run over the same
// snapshot, and a snapshot reached via K delta publishes answers
// byte-identically to a from-scratch snapshot of the same final catalog +
// rules (the delta differential test).
#ifndef RULELINK_LINKING_SERVE_ENGINE_H_
#define RULELINK_LINKING_SERVE_ENGINE_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "blocking/blocker.h"
#include "core/item.h"
#include "core/rule.h"
#include "linking/feature_cache.h"
#include "linking/linker.h"
#include "linking/matcher.h"
#include "linking/query_scratch.h"
#include "linking/streaming_linker.h"
#include "obs/metrics.h"
#include "util/epoch.h"

namespace rulelink::linking {

// One incremental catalog edit: items to append after the current
// catalog's indices, and current global indices to retire. Retired items
// are tombstoned, not compacted — indices issued to clients stay stable
// and the slots are simply skipped by every later query.
struct CatalogDelta {
  std::vector<core::Item> appended;
  std::vector<std::size_t> retired;
};

// Serving policy riding a snapshot generation: the linker's threshold and
// strategy plus the materialized classification rule set the serving
// matcher was derived from. PublishDelta swaps all three atomically with
// the generation stamp — the rule hot-swap path. `rules` may be null when
// the matcher was hand-built rather than learned.
struct ServePolicy {
  double threshold = 0.0;
  Linker::Strategy strategy = Linker::Strategy::kBestPerExternal;
  std::shared_ptr<const core::RuleSet> rules;
};

// One immutable serving generation. Construction is the expensive batch
// phase (a serial feature build over the whole catalog); BuildDelta is
// the cheap path that extends a predecessor. After Publish the
// snapshot is read-only forever and freed by the engine's epoch domain.
// Not movable: sessions hold interior pointers (dictionary, caches,
// index) for the engine's lifetime.
class ServeSnapshot {
 public:
  // Takes ownership of `catalog` and a copy of the rule set. `blocker`
  // must support BuildItemIndex: the key-based, cartesian and rule
  // blockers do, the list-based ones do not. A RuleBlocker snapshot
  // cannot yet take appended items (it has no ExtendItemIndex, so a
  // BuildDelta that appends aborts).
  // `threshold`/`strategy` have Linker semantics and are part of the
  // snapshot: a republish can change rules and policy atomically.
  // `rules`, when given, is the learned rule set this serving
  // configuration was materialized from (carried for introspection and
  // hot-swap bookkeeping; scoring goes through `matcher`). `num_threads`
  // is accepted for callers' source compatibility and does not change the
  // build, which is serial (FeatureCache::Build).
  ServeSnapshot(std::vector<core::Item> catalog, ItemMatcher matcher,
                double threshold, Linker::Strategy strategy,
                const blocking::CandidateGenerator& blocker,
                std::size_t num_threads = 0,
                obs::MetricsRegistry* metrics = nullptr,
                std::shared_ptr<const core::RuleSet> rules = nullptr);

  ServeSnapshot(const ServeSnapshot&) = delete;
  ServeSnapshot& operator=(const ServeSnapshot&) = delete;

  // Builds the successor generation from `base` without re-featurizing
  // the predecessor's catalog: shares `base`'s item segments (appending
  // one for `delta.appended`), tombstones `delta.retired`, chains a new
  // dictionary overlay over `base`'s frozen dictionary, flat-copies +
  // appends the feature cache (FeatureCache::ExtendFrom), and extends the
  // candidate index (CandidateGenerator::ExtendItemIndex) instead of
  // re-inverting. `blocker` must be the same generator (same key
  // parameters) that built `base`'s index, and the matcher must not
  // change across delta publishes — a new policy swaps threshold,
  // strategy and rule set only (all snapshot-local; caches depend only on
  // the matcher's properties, which are fixed). `policy` null inherits
  // `base`'s policy wholesale.
  static std::unique_ptr<ServeSnapshot> BuildDelta(
      const ServeSnapshot& base, CatalogDelta delta,
      const blocking::CandidateGenerator& blocker,
      const ServePolicy* policy = nullptr,
      obs::MetricsRegistry* metrics = nullptr);

  // Catalog accessors. Items live in shared segments (one per publish
  // that appended), addressed by a single global index space; item(i) is
  // valid for any i < num_items(), including tombstoned ones.
  std::size_t num_items() const { return num_items_; }
  const core::Item& item(std::size_t index) const {
    const std::size_t seg =
        static_cast<std::size_t>(std::upper_bound(segment_begin_.begin(),
                                                  segment_begin_.end(),
                                                  index) -
                                 segment_begin_.begin()) -
        1;
    return (*segments_[seg])[index - segment_begin_[seg]];
  }
  bool live(std::size_t index) const { return live_[index] != 0; }
  std::size_t num_retired() const { return num_retired_; }

  // Removes tombstoned locals from an ascending candidate run in place
  // (order preserved). No-op when nothing is retired — the common case
  // pays one load and a branch.
  void FilterLiveCandidates(std::vector<std::size_t>* run) const {
    if (num_retired_ == 0) return;
    std::size_t kept = 0;
    for (const std::size_t index : *run) {
      if (live_[index] != 0) (*run)[kept++] = index;
    }
    run->resize(kept);
  }

  const ItemMatcher& matcher() const { return matcher_; }
  const FeatureDictionary& dict() const { return dict_link_->dict; }
  const FeatureCache& local_features() const { return local_features_; }
  const blocking::ItemCandidateIndex& index() const { return *index_; }
  const StreamingLinker& linker() const { return linker_; }
  double threshold() const { return threshold_; }
  Linker::Strategy strategy() const { return strategy_; }
  // The rule set this generation serves under (null when none was
  // attached).
  const std::shared_ptr<const core::RuleSet>& rules() const { return rules_; }
  // Assigned by ServeEngine::Publish; 0 until published. Monotone across
  // publishes, so sessions detect swaps by comparing it.
  std::uint64_t generation() const { return generation_; }

 private:
  friend class ServeEngine;

  // One level of the dictionary chain. Each delta generation overlays the
  // predecessor's dictionary; the shared link keeps every ancestor level
  // alive for as long as any descendant snapshot (or a session overlay
  // over one) can still resolve ids through it — even after the ancestor
  // snapshot itself was reclaimed. Heap-allocated so the dictionary's
  // address is stable for the overlay base pointers.
  struct DictLink {
    std::shared_ptr<const DictLink> base;
    FeatureDictionary dict;
  };

  // Shell: policy + matcher + linker only; catalog state is filled by the
  // public constructor or BuildDelta.
  ServeSnapshot(ItemMatcher matcher, double threshold,
                Linker::Strategy strategy,
                std::shared_ptr<const core::RuleSet> rules);

  // Catalog segments, shared across delta generations. segment_begin_[s]
  // is the global index of segments_[s]'s first item.
  std::vector<std::shared_ptr<const std::vector<core::Item>>> segments_;
  std::vector<std::size_t> segment_begin_;
  std::size_t num_items_ = 0;
  std::vector<std::uint8_t> live_;  // by global index; 0 = tombstoned
  std::size_t num_retired_ = 0;
  ItemMatcher matcher_;
  double threshold_;
  Linker::Strategy strategy_;
  std::shared_ptr<const core::RuleSet> rules_;
  std::shared_ptr<DictLink> dict_link_;  // top of this generation's chain
  FeatureCache local_features_;
  std::shared_ptr<const blocking::ItemCandidateIndex> index_;
  StreamingLinker linker_;  // borrows matcher_; shares the cascade
  std::uint64_t generation_ = 0;
};

class ServeEngine {
 public:
  ServeEngine() = default;
  // Deletes the current snapshot and everything still in limbo. Every
  // Session must already be destroyed.
  ~ServeEngine();

  ServeEngine(const ServeEngine&) = delete;
  ServeEngine& operator=(const ServeEngine&) = delete;

  // Atomically installs `snapshot` as the serving generation (one
  // release-exchange — readers never wait) and retires the previous one
  // into the epoch domain. Thread-safe against concurrent Publish calls
  // and against any number of querying sessions. Returns the generation
  // assigned (1 for the first publish).
  std::uint64_t Publish(std::unique_ptr<ServeSnapshot> snapshot);

  // Builds the successor of the current generation from `delta` (see
  // ServeSnapshot::BuildDelta) and installs it like Publish — the cheap
  // republish path. `policy` non-null additionally hot-swaps threshold,
  // strategy and rule set, atomically with the generation stamp. Requires
  // a prior Publish; thread-safe like Publish.
  std::uint64_t PublishDelta(CatalogDelta delta,
                             const blocking::CandidateGenerator& blocker,
                             const ServePolicy* policy = nullptr,
                             obs::MetricsRegistry* metrics = nullptr);

  // Generation currently being served; 0 before the first Publish.
  std::uint64_t current_generation() const {
    const ServeSnapshot* snapshot =
        current_.load(std::memory_order_acquire);
    return snapshot == nullptr ? 0 : snapshot->generation();
  }

  // The rule set riding the current generation (null before the first
  // Publish or when none was attached). Like current_generation(), the
  // caller must not race a publish that could retire the snapshot
  // mid-call; sessions read the pinned snapshot's rules() instead.
  std::shared_ptr<const core::RuleSet> current_rules() const {
    const ServeSnapshot* snapshot =
        current_.load(std::memory_order_acquire);
    return snapshot == nullptr ? nullptr : snapshot->rules();
  }

  // Frees retired snapshots whose readers have all moved on. Publish and
  // PublishDelta attempt this after every swap (so repeated publishes
  // keep limbo bounded without anyone calling this); benches and tests
  // call it to assert complete drainage.
  std::size_t ReclaimRetired() { return epochs_.TryReclaim(); }

  util::EpochStats epoch_stats() const { return epochs_.Stats(); }

  // One worker's query context: an epoch reader slot plus all per-query
  // scratch — the candidate run, the cascade's sums, the run scorer's
  // gather buffers — allocated once and reused so steady-state queries
  // are allocation-free (known values of at most 64 bytes, no
  // Monge-Elkan).
  // Sessions are single-threaded (one per worker) and must not outlive
  // the engine. Any number of sessions query concurrently with each other
  // and with Publish.
  class Session {
   public:
    explicit Session(ServeEngine* engine);
    ~Session();
    Session(const Session&) = delete;
    Session& operator=(const Session&) = delete;

    // Answers one link query: candidates of `item` from the snapshot's
    // index (tombstoned locals filtered out), filter cascade, the
    // survivors scored as one run, the linker's strategy and tie-break. Replaces *links with
    // the answer, each link's external_index stamped with
    // `external_index` (the caller's query ordinal) so answers compare
    // byte-identically against a batch StreamingLinker::Run. Returns the
    // generation that answered — the whole query runs against exactly one
    // snapshot, even mid-swap.
    std::uint64_t Query(const core::Item& item, std::vector<Link>* links,
                        std::size_t external_index = 0);

    // Cumulative counters across this session's queries — they accumulate
    // monotonically across generation swaps too (thread-variant
    // bookkeeping for benches; the links themselves are deterministic).
    std::size_t pairs_scored() const { return pairs_scored_; }
    const FilterStats& filter_stats() const { return filters_; }

   private:
    ServeEngine* engine_;
    util::EpochDomain::ReaderSlot* slot_;
    std::uint64_t generation_seen_ = 0;
    // Per-generation state: value ids renumber across snapshots (and a
    // delta generation's dictionary extends a universe this overlay's ids
    // would collide with), so the overlay dictionary and the id-keyed
    // score memo reset on every generation change, full or delta.
    FeatureDictionary overlay_;
    FeatureCache query_features_;  // single-item cache over overlay_
    QueryScratch scratch_;
    std::string key_scratch_;
    std::vector<Link> staged_links_;
    FilterStats filters_;
    std::size_t pairs_scored_ = 0;
    std::uint64_t measures_computed_ = 0;
  };

 private:
  // Stamps, installs and retires under publish_mutex_ (held by caller).
  std::uint64_t InstallLocked(std::unique_ptr<ServeSnapshot> snapshot);

  std::atomic<ServeSnapshot*> current_{nullptr};
  util::EpochDomain epochs_;
  std::mutex publish_mutex_;        // serializes writers only
  std::uint64_t next_generation_ = 0;  // guarded by publish_mutex_
};

}  // namespace rulelink::linking

#endif  // RULELINK_LINKING_SERVE_ENGINE_H_
