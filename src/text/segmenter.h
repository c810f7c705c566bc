// Value segmentation: how a property value is split into the segments `a`
// that appear in classification rules p(X,Y) ∧ subsegment(Y,a) ⇒ c(X).
// The paper lets a domain expert choose the scheme — separation characters
// or n-grams — so the scheme is an interface with several implementations.
//
// Two call styles:
//   * SegmentViews appends string_views into `value` — every scheme here
//     emits substrings of the input, so no segment ever needs its own
//     allocation. The views are valid only while `value`'s bytes are.
//   * SegmentInto resolves those views through a util::StringInterner and
//     appends dense SegmentIds — the form the learning core counts with.
// The legacy Segment() (vector of owned strings) wraps SegmentViews and
// remains for I/O-boundary callers and tests.
#ifndef RULELINK_TEXT_SEGMENTER_H_
#define RULELINK_TEXT_SEGMENTER_H_

#include <string>
#include <string_view>
#include <vector>

#include "util/interner.h"

namespace rulelink::text {

// Dense id of an interned segment string (see util::StringInterner).
using SegmentId = util::SymbolId;
inline constexpr SegmentId kInvalidSegmentId = util::kInvalidSymbolId;

class Segmenter {
 public:
  virtual ~Segmenter() = default;

  // Appends the segments of `value` to `*out` as views into `value`. May
  // emit duplicates if a segment occurs several times; callers that need
  // per-item distinct semantics (the learner's support counting)
  // deduplicate themselves. `*out` is NOT cleared.
  virtual void SegmentViews(std::string_view value,
                            std::vector<std::string_view>* out) const = 0;

  // Appends the SegmentIds of `value` to `*out`, interning each segment
  // into `*interner`. Allocation-free apart from interner/out growth.
  void SegmentInto(std::string_view value, util::StringInterner* interner,
                   std::vector<SegmentId>* out) const;

  // Splits `value` into owned segment strings (I/O-boundary convenience).
  std::vector<std::string> Segment(std::string_view value) const;

  // Human-readable scheme name for reports ("separator", "ngram(3)", ...).
  virtual std::string name() const = 0;
};

// Splits on every character outside [A-Za-z0-9] — the scheme the paper's
// expert chose for part-numbers ("space, '-', '.', ...."). An explicit
// separator set may be supplied instead.
class SeparatorSegmenter : public Segmenter {
 public:
  // Default: any non-alphanumeric character separates.
  SeparatorSegmenter() = default;
  // Explicit separator set, e.g. ":-; ".
  explicit SeparatorSegmenter(std::string separators);

  void SegmentViews(std::string_view value,
                    std::vector<std::string_view>* out) const override;
  std::string name() const override { return "separator"; }

 private:
  bool IsSeparator(char c) const;

  std::string separators_;  // empty => any non-alphanumeric
};

// Character n-grams of fixed size n (the paper's alternative scheme).
// Values shorter than n produce the whole value as a single segment.
class NGramSegmenter : public Segmenter {
 public:
  explicit NGramSegmenter(std::size_t n);

  void SegmentViews(std::string_view value,
                    std::vector<std::string_view>* out) const override;
  std::string name() const override;

  std::size_t n() const { return n_; }

 private:
  std::size_t n_;
};

// Separator split followed by alpha/digit boundary split: "CRCW0805" ->
// {"CRCW", "0805"}, "63V" -> {"63", "V"}. Used as an ablation: it trades
// segment specificity for recall.
class AlphaDigitSegmenter : public Segmenter {
 public:
  AlphaDigitSegmenter() = default;

  void SegmentViews(std::string_view value,
                    std::vector<std::string_view>* out) const override;
  std::string name() const override { return "alpha-digit"; }
};

}  // namespace rulelink::text

#endif  // RULELINK_TEXT_SEGMENTER_H_
