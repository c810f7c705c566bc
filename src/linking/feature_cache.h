// Precomputed per-item features for the linking hot path.
//
// ItemMatcher::Score re-tokenizes and re-bigrams both raw value strings
// for every candidate pair, so an item scored against k candidates pays
// its string-preparation cost k times. The feature cache moves that work
// to a build phase that runs once per item: for every distinct property
// value it interns the value itself through a shared util::StringInterner
// and, when the matcher's measures read them, its whitespace tokens
// (Jaccard, Monge-Elkan) and character bigrams (Dice), storing the
// token/bigram id sequences the cached scorer needs. Part catalogs repeat
// values heavily, so the dictionary doubles as a build-time memo: a value
// seen before costs one hash lookup, not a re-tokenization.
//
// Ownership and lifetime (see DESIGN.md §5d):
//   * FeatureDictionary owns the StringInterner and the pooled feature
//     arrays. It is append-only and shared by every cache scored against
//     the same matcher, so value ids are comparable across sources (the
//     kExact measure and the scoring memo key on them).
//   * FeatureCache borrows the dictionary and indexes it per (item, rule)
//     slot. It holds no string data of its own; the backing item vector
//     may be destroyed after Build returns.
//   * Both are immutable once built. They never observe later mutations
//     of the item vectors: edit the items (or the matcher's rules) and
//     the caches must be rebuilt.
//
// Determinism: every build is serial. Build, ExtendFrom and AssignSingle
// append items, in order, through one routine that interns each slot's
// values straight into the target dictionary, so value ids — and the
// dictionary's symbol, value, reuse and byte counts — are a pure function
// of the dictionary's prior contents and the item order. Scores depend on
// the strings alone (ids are only compared for equality or sort-merged),
// so cached scores are byte-identical to the string path.
#ifndef RULELINK_LINKING_FEATURE_CACHE_H_
#define RULELINK_LINKING_FEATURE_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "core/item.h"
#include "linking/matcher.h"
#include "obs/metrics.h"
#include "text/similarity.h"
#include "util/interner.h"

namespace rulelink::linking {

// Dense id of an interned property value (a util::SymbolId in the
// dictionary's symbol universe, which also holds the tokens and bigrams it
// builds).
using ValueId = util::SymbolId;

class FeatureDictionary {
 public:
  // The features a dictionary builds per value beside its text, as bits:
  // tokens, which Jaccard and Monge-Elkan read, and bigrams, which Dice
  // reads. The other measures read the text alone (DESIGN.md §5d).
  using FeatureMask = std::uint8_t;
  static constexpr FeatureMask kTokens = 1;
  static constexpr FeatureMask kBigrams = 2;
  static constexpr FeatureMask kAllFeatures = kTokens | kBigrams;

  // The features `matcher`'s measures read.
  static FeatureMask FeaturesReadBy(const ItemMatcher& matcher);

  // Read-only view of one distinct value's precomputed features. Pointers
  // alias the dictionary pools and stay valid for its lifetime. A feature
  // the dictionary does not build reads as empty.
  struct ValueFeatures {
    std::string_view text;                  // the value string itself
    const text::TokenId* ordered_tokens = nullptr;  // occurrence order
    const text::TokenId* sorted_tokens = nullptr;   // sorted by id
    std::uint32_t num_tokens = 0;
    std::uint32_t num_unique_tokens = 0;
    const text::TokenId* sorted_bigrams = nullptr;  // sorted by id
    std::uint32_t num_bigrams = 0;
  };

  // A root dictionary. It builds every feature until a FeatureCache build
  // brings a matcher while it is still empty: it then builds exactly what
  // that matcher's measures read. A build whose matcher reads a feature
  // the dictionary does not build fails an RL_CHECK, so no cache scores
  // with features that were never built.
  FeatureDictionary() = default;
  // Overlay over an immutable `base` (which must outlive this object and
  // never grow while overlaid): AddValue answers from the base chain when
  // any level already built the value, and interns novel strings locally
  // with ids offset past the base's universe — the base is never mutated.
  // Ids from base and overlay never collide and id equality still implies
  // string equality across the union (a locally-interned value exists in
  // the chain at most as an unbuilt token/bigram symbol, which no scorer
  // ever uses as a value id), so every score stays a pure function of the
  // strings. Overlays stack: the serving engine chains one per delta
  // publish (DESIGN.md §5j) and hangs each session's private overlay off
  // the current snapshot's dictionary (§5i). At most one level of a chain
  // ever holds a given string as a *built value*, so the reuse lookup is
  // unambiguous. An overlay builds its base's features.
  explicit FeatureDictionary(const FeatureDictionary* base);
  FeatureDictionary(const FeatureDictionary&) = delete;
  FeatureDictionary& operator=(const FeatureDictionary&) = delete;
  FeatureDictionary(FeatureDictionary&&) noexcept = default;
  FeatureDictionary& operator=(FeatureDictionary&&) noexcept = default;

  // Interns `value` and builds its features on first sight; a repeated
  // value is a single hash lookup (the build-time memo).
  ValueId AddValue(std::string_view value);

  // Features of a value previously returned by AddValue (resolved through
  // the base for overlay dictionaries).
  ValueFeatures Features(ValueId id) const;

  // The value string for `id`.
  std::string_view View(ValueId id) const {
    if (base_ != nullptr && id < base_offset_) return base_->View(id);
    return strings_.View(id - base_offset_);
  }

  // The bottom of the overlay chain (itself for a root dictionary). Two
  // caches are scoreable against each other iff their dictionaries share a
  // root: their ids then live in one consistent universe.
  const FeatureDictionary& root() const {
    return base_ != nullptr ? base_->root() : *this;
  }

  // The immediate base of an overlay (null for a root dictionary).
  const FeatureDictionary* base() const { return base_; }

  // The features this dictionary builds per value.
  FeatureMask features() const { return features_; }

  // Distinct symbols (values plus the tokens and bigrams it builds),
  // including the base's for overlay dictionaries.
  std::size_t num_symbols() const { return base_offset_ + strings_.size(); }
  // Distinct values with built features.
  std::size_t num_values() const { return num_values_; }
  // AddValue calls answered by the build-time memo.
  std::size_t values_reused() const { return values_reused_; }
  // Memory held by the interner (arena, id table and hash slots) plus the
  // feature pools.
  std::size_t memory_bytes() const;

 private:
  friend class FeatureCache;

  struct Spans {
    std::uint32_t tok_begin = 0;
    std::uint32_t tok_end = 0;
    std::uint32_t tok_unique = 0;
    std::uint32_t big_begin = 0;
    std::uint32_t big_end = 0;
    bool built = false;
  };

  // Called by every FeatureCache build before it adds a value: an empty
  // root adopts the features `matcher` reads; then RL_CHECKs that this
  // dictionary builds every one of them.
  void RequireFeaturesOf(const ItemMatcher& matcher);
  // Grows spans_ to cover local index `local`.
  void EnsureSlot(ValueId local);
  // Whether local symbol `local` is a built value. A dictionary that
  // builds no features interns nothing but values, so there every local
  // symbol is one and spans_ stays empty.
  bool IsBuiltLocal(ValueId local) const {
    return features_ == 0 ? local < strings_.size()
                          : local < spans_.size() && spans_[local].built;
  }
  // Tokenizes/bigrams the value at local index `local`, as far as
  // features_ asks, and records its spans.
  void BuildFeatures(ValueId local);
  // Resolves `s` to an id in the combined universe: the base's id when it
  // knows the string (any symbol kind), else a locally-interned offset id.
  text::TokenId InternSymbol(std::string_view s);
  // The chain walks below take `hash` = util::StringInterner::Hash(s),
  // computed once by the caller and probed at every level.
  // Public id of `s` anywhere in the chain, or util::kInvalidSymbolId.
  // Read-only: never allocates.
  ValueId FindSymbol(std::string_view s, std::uint64_t hash) const;
  // Public id of `s` where it is a *built value*, searching the whole
  // chain deepest-first, or util::kInvalidSymbolId. Distinct from
  // FindSymbol: a string can be an unbuilt token at one level and a built
  // value at a shallower one, and value reuse must find the built id.
  ValueId FindBuiltValue(std::string_view s, std::uint64_t hash) const;

  // Overlay state. For root dictionaries base_ is null and base_offset_ 0,
  // so local indices equal public ids and every path below is unchanged.
  const FeatureDictionary* base_ = nullptr;
  ValueId base_offset_ = 0;  // public id = local index + base_offset_

  FeatureMask features_ = kAllFeatures;
  util::StringInterner strings_;  // values, tokens and bigrams together
  // By local index, for values; empty when features_ is 0.
  std::vector<Spans> spans_;
  std::vector<text::TokenId> ordered_tokens_;  // per value, occurrence order
  std::vector<text::TokenId> sorted_tokens_;   // same spans, sorted by id
  std::vector<text::TokenId> sorted_bigrams_;  // per value, sorted by id
  // BuildFeatures' token or bigram views, reused so a new value allocates
  // nothing once the pools have grown.
  std::vector<std::string_view> pieces_;
  std::size_t num_values_ = 0;
  std::size_t values_reused_ = 0;
};

// Writes `value`'s count signature for a rule of `measure` to
// out[0, text::kSignatureBytes) and returns true: text::ByteSignature for
// Levenshtein, Jaro and Jaro-Winkler, text::BigramSignature for Dice and
// text::TokenSetSignature for Jaccard. Returns false, writing nothing, for
// a measure the filter cascade bounds without a signature.
bool SlotSignature(SimilarityMeasure measure, std::string_view value,
                   std::uint8_t* out);

// One (item, rule) slot's stage-A record (DESIGN.md §5d): everything the
// filter cascade's stage A reads of a slot, in one 32-byte record. A slot
// holding exactly one value carries its id, the count the slot rule's
// bound reads (bytes under Levenshtein, Jaro and Jaro-Winkler, bigrams
// under Dice, distinct tokens under Jaccard, 0 under any other rule), its
// text::JaroPrefixBytes and its SlotSignature for the slot rule (zeros
// under a rule without one). A missing or multi-valued slot carries an
// invalid id and zeros, so readers take its values from
// FeatureCache::Values(); `num_values` tells the two apart.
struct alignas(32) SlotRecord {
  ValueId value_id = util::kInvalidSymbolId;
  std::uint32_t count = 0;
  std::uint32_t jaro_prefix = 0;
  std::uint32_t num_values = 0;
  std::uint8_t signature[text::kSignatureBytes] = {};
};
static_assert(sizeof(SlotRecord) == 32, "one record per half cache line");

// Per-source index: for every (item, attribute-rule) slot, the ids of the
// item's values under that rule's property on this cache's side.
class FeatureCache {
 public:
  enum class Side { kExternal, kLocal };

  // Precomputes features for `items` against `matcher`'s rules, reading
  // rule.external_property or rule.local_property according to `side`,
  // interning values into `dict` serially in item order. An empty root
  // `dict` adopts the features the matcher's measures read; any other
  // must already build them (RL_CHECK, see FeatureDictionary's
  // constructors). So do ExtendFrom and AssignSingle. `num_threads` is
  // accepted for callers' source compatibility and does not change the
  // build. `dict` must outlive the returned cache; `items` may not.
  // `metrics`, when non-null, gets the "linking/cache_build" stage plus
  // the item counter (DESIGN.md §5f).
  static FeatureCache Build(const std::vector<core::Item>& items,
                            const ItemMatcher& matcher, Side side,
                            FeatureDictionary* dict,
                            std::size_t num_threads = 0,
                            obs::MetricsRegistry* metrics = nullptr);

  // Builds a cache over `base`'s items plus `delta_items` appended after
  // them, without re-featurizing the base: the CSR index and the records
  // are flat-copied and only the delta items' slots are appended, through the
  // same routine as Build, interning their values through `dict`. `dict`
  // must be an overlay directly over `base.dict()` (or `&base.dict()`
  // itself, for a root that may still grow) so every copied id stays
  // resolvable and novel delta values intern past the base universe —
  // this is the serving engine's delta publish path (DESIGN.md §5j).
  // `metrics` gets the "linking/cache_extend" stage.
  static FeatureCache ExtendFrom(const FeatureCache& base,
                                 const std::vector<core::Item>& delta_items,
                                 const ItemMatcher& matcher, Side side,
                                 FeatureDictionary* dict,
                                 obs::MetricsRegistry* metrics = nullptr);

  // Rebuilds this cache in place over exactly one item — the serving
  // engine's per-query external cache. Allocation-free at steady state:
  // the index and record vectors reuse their capacity and dict->AddValue of
  // an already-known value hashes it once and probes each chain level
  // (only a never-seen value string allocates, in the overlay dictionary).
  void AssignSingle(const core::Item& item, const ItemMatcher& matcher,
                    Side side, FeatureDictionary* dict);

  // The value ids of item `item` under rule slot `rule` (positional:
  // slot r corresponds to matcher.rules()[r]). Empty when the property is
  // missing on the item.
  const ValueId* Values(std::size_t item, std::size_t rule,
                        std::size_t* count) const {
    const std::size_t slot = item * num_rules_ + rule;
    const std::uint32_t begin = offsets_[slot];
    *count = offsets_[slot + 1] - begin;
    return value_ids_.data() + begin;
  }

  const FeatureDictionary& dict() const { return *dict_; }
  std::size_t num_items() const { return num_items_; }
  std::size_t num_rules() const { return num_rules_; }

  // The stage-A records, slot-major: slot s = item * num_rules() + rule,
  // the same addressing as Values(), so one item's records are adjacent.
  const SlotRecord* records() const { return records_.data(); }

  // Memory held by the CSR index plus the records (the dictionary
  // reports its own pools separately).
  std::size_t memory_bytes() const;

 private:
  // Reserves the CSR index, the value pool and the records for `items`
  // items' slots (one value per slot).
  void Reserve(std::size_t items);
  // Appends `item`'s slots, one per rule in rule order: interns the
  // slot's values into `dict`, closes the slot's CSR edge and appends its
  // record. The only code that writes a slot.
  void AppendItem(const core::Item& item, const ItemMatcher& matcher,
                  Side side, FeatureDictionary* dict);

  const FeatureDictionary* dict_ = nullptr;
  std::size_t num_items_ = 0;
  std::size_t num_rules_ = 0;
  std::vector<std::uint32_t> offsets_;  // num_items * num_rules + 1 edges
  std::vector<ValueId> value_ids_;      // pooled per-slot value ids
  std::vector<SlotRecord> records_;    // one per (item, rule) slot
};

}  // namespace rulelink::linking

#endif  // RULELINK_LINKING_FEATURE_CACHE_H_
