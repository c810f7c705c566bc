#include "text/segmenter.h"

#include "util/logging.h"
#include "util/string_util.h"

namespace rulelink::text {

void Segmenter::SegmentInto(std::string_view value,
                            util::StringInterner* interner,
                            std::vector<SegmentId>* out) const {
  // Small inline scratch would need per-call state; a local vector's heap
  // buffer is reused by callers that hold their own scratch and call
  // SegmentViews directly. This wrapper favors simplicity.
  std::vector<std::string_view> views;
  SegmentViews(value, &views);
  out->reserve(out->size() + views.size());
  for (std::string_view view : views) out->push_back(interner->Intern(view));
}

std::vector<std::string> Segmenter::Segment(std::string_view value) const {
  std::vector<std::string_view> views;
  SegmentViews(value, &views);
  return {views.begin(), views.end()};
}

SeparatorSegmenter::SeparatorSegmenter(std::string separators)
    : separators_(std::move(separators)) {}

bool SeparatorSegmenter::IsSeparator(char c) const {
  if (separators_.empty()) return !util::IsAsciiAlnum(c);
  return separators_.find(c) != std::string::npos;
}

void SeparatorSegmenter::SegmentViews(
    std::string_view value, std::vector<std::string_view>* out) const {
  std::size_t start = 0;
  for (std::size_t i = 0; i <= value.size(); ++i) {
    if (i == value.size() || IsSeparator(value[i])) {
      if (i > start) out->push_back(value.substr(start, i - start));
      start = i + 1;
    }
  }
}

NGramSegmenter::NGramSegmenter(std::size_t n) : n_(n) {
  RL_CHECK(n > 0) << "n-gram size must be positive";
}

void NGramSegmenter::SegmentViews(std::string_view value,
                                  std::vector<std::string_view>* out) const {
  if (value.empty()) return;
  if (value.size() <= n_) {
    out->push_back(value);
    return;
  }
  out->reserve(out->size() + value.size() - n_ + 1);
  for (std::size_t i = 0; i + n_ <= value.size(); ++i) {
    out->push_back(value.substr(i, n_));
  }
}

std::string NGramSegmenter::name() const {
  return "ngram(" + std::to_string(n_) + ")";
}

void AlphaDigitSegmenter::SegmentViews(
    std::string_view value, std::vector<std::string_view>* out) const {
  const SeparatorSegmenter outer;
  const std::size_t first_token = out->size();
  outer.SegmentViews(value, out);
  const std::size_t last_token = out->size();
  // Split each separator token at alpha/digit boundaries; the intermediate
  // separator tokens are then replaced by the full run sequence.
  std::vector<std::string_view> runs;
  for (std::size_t t = first_token; t < last_token; ++t) {
    const std::string_view token = (*out)[t];
    std::size_t start = 0;
    for (std::size_t i = 1; i <= token.size(); ++i) {
      const bool boundary =
          i == token.size() ||
          util::IsAsciiDigit(token[i]) != util::IsAsciiDigit(token[i - 1]);
      if (boundary) {
        runs.push_back(token.substr(start, i - start));
        start = i;
      }
    }
  }
  out->resize(first_token);
  out->insert(out->end(), runs.begin(), runs.end());
}

}  // namespace rulelink::text
