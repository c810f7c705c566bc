#include "text/similarity.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>

#include "util/hash.h"
#include "util/logging.h"
#include "util/simd.h"
#include "util/string_util.h"

// The interleaved Myers kernel below is compiled once per ISA via
// per-function target attributes; only x86 has the multi-versioned
// wrappers (elsewhere the batch API degrades to single-pair calls).
#if defined(__x86_64__) || defined(__i386__)
#define RULELINK_X86_TARGETS 1
#include <immintrin.h>
#else
#define RULELINK_X86_TARGETS 0
#endif

namespace rulelink::text {

namespace {

// Sentinel cap meaning "compute the exact distance, never exit early".
constexpr std::size_t kNoCap = static_cast<std::size_t>(-1);

// Myers' bit-parallel Levenshtein (Hyyrö's formulation) for patterns of
// at most 64 bytes. Pv/Mv hold the vertical +1/-1 deltas of the current
// DP column; `score` tracks D[m][j] via the horizontal delta at the
// pattern's last row. `(Ph << 1) | 1` encodes the D[0][j] = j boundary.
// With a finite `cap`, returns cap + 1 as soon as even the remaining
// columns (one unit of decrease each, at best) cannot bring the final
// distance back under the cap.
std::size_t MyersDistance64(std::string_view a, std::string_view b,
                            std::size_t cap) {
  // Per-byte match masks, reset after use so only touched entries cost.
  static thread_local std::array<std::uint64_t, 256> peq{};
  const std::size_t m = a.size();
  const std::size_t n = b.size();
  for (std::size_t i = 0; i < m; ++i) {
    peq[static_cast<unsigned char>(a[i])] |= std::uint64_t{1} << i;
  }
  const std::uint64_t last_row = std::uint64_t{1} << (m - 1);
  std::uint64_t pv = ~std::uint64_t{0};
  std::uint64_t mv = 0;
  std::size_t score = m;
  std::size_t result = kNoCap;
  for (std::size_t j = 0; j < n; ++j) {
    const std::uint64_t eq = peq[static_cast<unsigned char>(b[j])];
    const std::uint64_t xv = eq | mv;
    const std::uint64_t xh = (((eq & pv) + pv) ^ pv) | eq;
    std::uint64_t ph = mv | ~(xh | pv);
    std::uint64_t mh = pv & xh;
    if (ph & last_row) ++score;
    if (mh & last_row) --score;
    ph = (ph << 1) | 1;
    mh <<= 1;
    pv = mh | ~(xv | ph);
    mv = ph & xv;
    if (cap != kNoCap && score > cap + (n - 1 - j)) {
      result = cap + 1;
      break;
    }
  }
  if (result == kNoCap) result = score;
  for (std::size_t i = 0; i < m; ++i) {
    peq[static_cast<unsigned char>(a[i])] = 0;
  }
  return result;
}

// The blocked variant for patterns longer than 64 bytes: one Pv/Mv word
// per 64-byte block, horizontal deltas carried block to block through
// `hin`/`hout` in {-1, 0, +1}. Padding bits above the last pattern row
// are harmless: information only flows upward within a column (carry and
// left-shift), and the score is read at bit (m-1) % 64 of the last block
// before the shift.
std::size_t MyersDistanceBlocked(std::string_view a, std::string_view b,
                                 std::size_t cap) {
  const std::size_t m = a.size();
  const std::size_t n = b.size();
  const std::size_t w = (m + 63) / 64;
  std::vector<std::uint64_t> peq(w * 256, 0);
  for (std::size_t i = 0; i < m; ++i) {
    peq[(i / 64) * 256 + static_cast<unsigned char>(a[i])] |=
        std::uint64_t{1} << (i % 64);
  }
  std::vector<std::uint64_t> pv(w, ~std::uint64_t{0});
  std::vector<std::uint64_t> mv(w, 0);
  const std::uint64_t block_top = std::uint64_t{1} << 63;
  const std::uint64_t last_row = std::uint64_t{1} << ((m - 1) % 64);
  std::size_t score = m;
  for (std::size_t j = 0; j < n; ++j) {
    const unsigned char c = static_cast<unsigned char>(b[j]);
    int hin = 1;  // the D[0][j] = j boundary enters block 0 as +1
    for (std::size_t blk = 0; blk < w; ++blk) {
      const std::uint64_t pv_b = pv[blk];
      const std::uint64_t mv_b = mv[blk];
      const std::uint64_t eq = peq[blk * 256 + c];
      // A -1 carried in acts like a match in the block's first row.
      const std::uint64_t eq_in = hin < 0 ? eq | 1 : eq;
      const std::uint64_t xv = eq | mv_b;
      const std::uint64_t xh = (((eq_in & pv_b) + pv_b) ^ pv_b) | eq_in;
      std::uint64_t ph = mv_b | ~(xh | pv_b);
      std::uint64_t mh = pv_b & xh;
      if (blk == w - 1) {
        if (ph & last_row) ++score;
        if (mh & last_row) --score;
      }
      const int hout = (ph & block_top) ? 1 : ((mh & block_top) ? -1 : 0);
      ph <<= 1;
      mh <<= 1;
      if (hin > 0) ph |= 1;
      if (hin < 0) mh |= 1;
      pv[blk] = mh | ~(xv | ph);
      mv[blk] = ph & xv;
      hin = hout;
    }
    if (cap != kNoCap && score > cap + (n - 1 - j)) return cap + 1;
  }
  return score;
}

std::size_t MyersDistance(std::string_view a, std::string_view b,
                          std::size_t cap) {
  if (a.size() > b.size()) std::swap(a, b);
  if (a.empty()) return b.size();
  if (a.size() <= 64) return MyersDistance64(a, b, cap);
  return MyersDistanceBlocked(a, b, cap);
}

// --- Interleaved multi-pair Myers (DESIGN.md §5h) ----------------------
//
// Four independent single-word Myers computations advancing in lockstep
// in the 64-bit lanes of one AVX2 register set, all probing the SAME
// pattern against their own texts — the shape the filter cascade
// produces, where every stage-B probe of a candidate run shares the
// external item's value. Sharing the pattern lets one match-mask table
// serve every lane and be built once per segment instead of once per
// group, which removes the dominant per-group cost (2m table writes per
// pattern).
//
// Each lane is value-identical to BoundedLevenshteinDistance on its pair
// without replaying the scalar kernel's control flow. The kernel
// advances lane k through all n[k] columns (state updates masked off
// once its text is exhausted) and derives the result afterwards as
// score > cap ? cap + 1 : score. That is exactly what the scalar kernel
// returns: its early exit fires at column j only if
// score_j > cap + (n-1-j), which forces the final score above cap (the
// score drops by at most one per column), and conversely a final score
// <= cap means the exit condition can never have held — so both compute
// d <= cap ? d : cap + 1, a value that does not depend on orientation or
// on when the exit is detected. The per-column early exit is therefore
// pure throughput, and the lockstep kernel recovers it in bulk: every 8
// columns it stops if every lane is finished or provably past its cap.

// Per-thread match-mask table for the shared-pattern kernel; entries
// touched by a pattern are cleared again after each segment, the same
// discipline as the single-pair kernel's table.
std::uint64_t* InterleavedPeq() {
  static thread_local std::vector<std::uint64_t> table(256, 0);
  return table.data();
}

#if RULELINK_X86_TARGETS

// Runs one shared pattern (1..64 bytes) against `count` texts, four at a
// time; texts must be non-empty. The final partial group is padded with
// the group's own first element — the padded lanes compute a real value
// that is simply not written back, and reusing an in-group text keeps
// the padding from stretching the group's column count.
__attribute__((target("avx2"))) void MyersInterleavedShared4Avx2(
    std::string_view pattern, const std::string_view* text,
    const std::size_t* cap, std::size_t count, std::size_t* result) {
  std::uint64_t* table = InterleavedPeq();
  const std::size_t m = pattern.size();
  for (std::size_t i = 0; i < m; ++i) {
    table[static_cast<unsigned char>(pattern[i])] |= std::uint64_t{1} << i;
  }
  const auto i64 = [](std::uint64_t v) {
    return static_cast<long long>(v);
  };
  const __m256i lr = _mm256_set1_epi64x(i64(std::uint64_t{1} << (m - 1)));
  const __m256i m_vec = _mm256_set1_epi64x(i64(m));
  const __m256i ones = _mm256_set1_epi64x(-1);
  const __m256i one = _mm256_set1_epi64x(1);
  const __m256i zero = _mm256_setzero_si256();
  for (std::size_t g = 0; g < count; g += 4) {
    const unsigned char* txt[4];
    std::size_t last_col[4];
    std::size_t idx[4];
    std::size_t max_n = 0;
    for (int k = 0; k < 4; ++k) {
      idx[k] = g + k < count ? g + k : g;
      txt[k] = reinterpret_cast<const unsigned char*>(text[idx[k]].data());
      last_col[k] = text[idx[k]].size() - 1;
      max_n = std::max(max_n, text[idx[k]].size());
    }
    const __m256i n_vec = _mm256_set_epi64x(
        i64(last_col[3] + 1), i64(last_col[2] + 1), i64(last_col[1] + 1),
        i64(last_col[0] + 1));
    // cap + n per lane, for the bulk form of the early-exit predicate:
    // score_j > cap + (n-1-j)  <=>  score_j + (j+1) > cap + n.
    const __m256i cap_n = _mm256_set_epi64x(
        i64(cap[idx[3]] + last_col[3] + 1),
        i64(cap[idx[2]] + last_col[2] + 1),
        i64(cap[idx[1]] + last_col[1] + 1),
        i64(cap[idx[0]] + last_col[0] + 1));
    __m256i score = m_vec;
    __m256i pv = ones;
    __m256i mv = zero;
    __m256i j_vec = zero;
    for (std::size_t j = 0; j < max_n; ++j) {
      // Exhausted lanes read their last byte again (always in bounds);
      // the resulting eq is harmless because their updates are masked.
      const __m256i eq = _mm256_set_epi64x(
          i64(table[txt[3][std::min(j, last_col[3])]]),
          i64(table[txt[2][std::min(j, last_col[2])]]),
          i64(table[txt[1][std::min(j, last_col[1])]]),
          i64(table[txt[0][std::min(j, last_col[0])]]));
      const __m256i active = _mm256_cmpgt_epi64(n_vec, j_vec);
      const __m256i xv = _mm256_or_si256(eq, mv);
      const __m256i xh = _mm256_or_si256(
          _mm256_xor_si256(_mm256_add_epi64(_mm256_and_si256(eq, pv), pv),
                           pv),
          eq);
      __m256i ph = _mm256_or_si256(
          mv, _mm256_andnot_si256(_mm256_or_si256(xh, pv), ones));
      __m256i mh = _mm256_and_si256(pv, xh);
      // +1 where ph has the last-row bit, -1 where mh does: cmpeq-to-zero
      // yields -1 for "bit clear", adding one flips it into a 0/1 lane.
      const __m256i incp = _mm256_add_epi64(
          one, _mm256_cmpeq_epi64(_mm256_and_si256(ph, lr), zero));
      const __m256i incm = _mm256_add_epi64(
          one, _mm256_cmpeq_epi64(_mm256_and_si256(mh, lr), zero));
      score = _mm256_add_epi64(
          score, _mm256_and_si256(_mm256_sub_epi64(incp, incm), active));
      ph = _mm256_or_si256(_mm256_slli_epi64(ph, 1), one);
      mh = _mm256_slli_epi64(mh, 1);
      const __m256i pv_new = _mm256_or_si256(
          mh, _mm256_andnot_si256(_mm256_or_si256(xv, ph), ones));
      const __m256i mv_new = _mm256_and_si256(ph, xv);
      pv = _mm256_blendv_epi8(pv, pv_new, active);
      mv = _mm256_blendv_epi8(mv, mv_new, active);
      j_vec = _mm256_add_epi64(j_vec, one);
      if ((j & 7) == 7) {
        const __m256i finished =
            _mm256_cmpeq_epi64(_mm256_cmpgt_epi64(n_vec, j_vec), zero);
        const __m256i past_cap =
            _mm256_cmpgt_epi64(_mm256_add_epi64(score, j_vec), cap_n);
        if (_mm256_movemask_epi8(_mm256_or_si256(finished, past_cap)) ==
            -1) {
          break;
        }
      }
    }
    alignas(32) std::uint64_t fin[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(fin), score);
    for (int k = 0; k < 4 && g + k < count; ++k) {
      result[g + k] = fin[k] > cap[g + k] ? cap[g + k] + 1 : fin[k];
    }
  }
  for (std::size_t i = 0; i < m; ++i) {
    table[static_cast<unsigned char>(pattern[i])] = 0;
  }
}

#endif  // RULELINK_X86_TARGETS

}  // namespace

std::size_t LevenshteinDistance(std::string_view a, std::string_view b) {
  return MyersDistance(a, b, kNoCap);
}

std::size_t BoundedLevenshteinDistance(std::string_view a, std::string_view b,
                                       std::size_t cap) {
  if (a.size() > b.size()) std::swap(a, b);
  const std::size_t m = a.size();
  const std::size_t n = b.size();
  // |len(a)-len(b)| insertions are unavoidable.
  if (n - m > cap) return cap + 1;
  if (cap == 0) return a == b ? 0 : 1;
  if (m == 0) return n;  // n <= cap here, so this is the exact distance
  // Clamp so the early-exit arithmetic in the kernels cannot overflow; a
  // cap >= m + n can never fire anyway (the distance is at most n).
  cap = std::min(cap, m + n);
  if (m <= 64) return MyersDistance64(a, b, cap);
  return MyersDistanceBlocked(a, b, cap);
}

void BoundedLevenshteinDistanceBatch(const std::string_view* a,
                                     const std::string_view* b,
                                     const std::size_t* caps,
                                     std::size_t count, std::size_t* out) {
#if RULELINK_X86_TARGETS
  const bool interleave = util::ActiveSimdMode() == util::SimdMode::kAVX2;
#else
  const bool interleave = false;
#endif
  std::uint64_t batched = 0;
  std::uint64_t remainder = 0;
  // Pairs the interleaved kernel can take (a one-word pattern, nonzero
  // cap) are staged with the a-side kept as the pattern whenever it fits,
  // so that consecutive probes sharing their a-side — the cascade's
  // shape, one external value per candidate run — form shared-pattern
  // segments for the kernel above. The prologue mirrors
  // BoundedLevenshteinDistance but is written orientation-free, which is
  // sound because every return value (exact distance, cap + 1, the
  // prologue shortcuts) is symmetric in the two strings.
  static thread_local std::vector<std::string_view> staged_pat;
  static thread_local std::vector<std::string_view> staged_txt;
  static thread_local std::vector<std::size_t> staged_cap;
  static thread_local std::vector<std::size_t> staged_index;
  staged_pat.clear();
  staged_txt.clear();
  staged_cap.clear();
  staged_index.clear();
  for (std::size_t i = 0; i < count; ++i) {
    const std::string_view x = a[i];
    const std::string_view y = b[i];
    std::size_t cap = caps[i];
    const std::size_t mn = std::min(x.size(), y.size());
    const std::size_t mx = std::max(x.size(), y.size());
    if (mx - mn > cap) {
      out[i] = cap + 1;
      continue;
    }
    if (cap == 0) {
      out[i] = x == y ? 0 : 1;
      continue;
    }
    if (mn == 0) {
      out[i] = mx;
      continue;
    }
    cap = std::min(cap, mn + mx);
    const std::string_view shorter = x.size() <= y.size() ? x : y;
    const std::string_view longer = x.size() <= y.size() ? y : x;
    if (mn > 64) {
      out[i] = MyersDistanceBlocked(shorter, longer, cap);
      ++remainder;
      continue;
    }
    if (!interleave) {
      out[i] = MyersDistance64(shorter, longer, cap);
      ++remainder;
      continue;
    }
    if (x.size() <= 64) {
      staged_pat.push_back(x);
      staged_txt.push_back(y);
    } else {
      staged_pat.push_back(y);
      staged_txt.push_back(x);
    }
    staged_cap.push_back(cap);
    staged_index.push_back(i);
  }
#if RULELINK_X86_TARGETS
  if (!staged_pat.empty()) {
    static thread_local std::vector<std::string_view> seg_txt;
    static thread_local std::vector<std::size_t> seg_cap;
    static thread_local std::vector<std::size_t> seg_out;
    static thread_local std::vector<std::uint32_t> seg_src;
    std::size_t s = 0;
    while (s < staged_pat.size()) {
      const std::string_view pat = staged_pat[s];
      std::size_t e = s + 1;
      while (e < staged_pat.size() && staged_pat[e].data() == pat.data() &&
             staged_pat[e].size() == pat.size()) {
        ++e;
      }
      const std::size_t len = e - s;
      if (len < 2) {
        // A lone pattern would pay the shared kernel's table build for
        // one lane; the single-pair kernel computes the identical value.
        out[staged_index[s]] =
            MyersDistance64(pat, staged_txt[s], staged_cap[s]);
        ++remainder;
        s = e;
        continue;
      }
      seg_src.resize(len);
      if (len <= 4) {  // one lane group: nothing to sort
        for (std::size_t i = 0; i < len; ++i) {
          seg_src[i] = static_cast<std::uint32_t>(s + i);
        }
      } else {
        // Counting sort on min(text length, 255): the lanes of a group
        // run in lockstep to the group's longest text, so grouping
        // similar lengths turns masked idle columns into useful ones.
        // Stable and O(segment), where a comparison sort is not. Results
        // are exact regardless of grouping — ordering is pure throughput.
        std::uint32_t counts[257] = {0};
        const auto length_key = [](std::string_view t) {
          return std::min<std::size_t>(t.size(), 255);
        };
        for (std::size_t i = s; i < e; ++i) {
          ++counts[length_key(staged_txt[i]) + 1];
        }
        for (std::size_t k = 1; k < 257; ++k) counts[k] += counts[k - 1];
        for (std::size_t i = s; i < e; ++i) {
          seg_src[counts[length_key(staged_txt[i])]++] =
              static_cast<std::uint32_t>(i);
        }
      }
      seg_txt.resize(len);
      seg_cap.resize(len);
      seg_out.resize(len);
      for (std::size_t i = 0; i < len; ++i) {
        seg_txt[i] = staged_txt[seg_src[i]];
        seg_cap[i] = staged_cap[seg_src[i]];
      }
      MyersInterleavedShared4Avx2(pat, seg_txt.data(), seg_cap.data(), len,
                                  seg_out.data());
      for (std::size_t i = 0; i < len; ++i) {
        out[staged_index[seg_src[i]]] = seg_out[i];
      }
      batched += static_cast<std::uint64_t>(len);
      s = e;
    }
  }
#endif
  util::AddSimdKernelPairs(batched, remainder);
}

std::size_t DamerauLevenshteinDistance(std::string_view a,
                                       std::string_view b) {
  const std::size_t n = a.size();
  const std::size_t m = b.size();
  std::vector<std::vector<std::size_t>> d(n + 1,
                                          std::vector<std::size_t>(m + 1));
  for (std::size_t i = 0; i <= n; ++i) d[i][0] = i;
  for (std::size_t j = 0; j <= m; ++j) d[0][j] = j;
  for (std::size_t i = 1; i <= n; ++i) {
    for (std::size_t j = 1; j <= m; ++j) {
      const std::size_t cost = a[i - 1] == b[j - 1] ? 0 : 1;
      d[i][j] = std::min({d[i - 1][j] + 1, d[i][j - 1] + 1,
                          d[i - 1][j - 1] + cost});
      if (i > 1 && j > 1 && a[i - 1] == b[j - 2] && a[i - 2] == b[j - 1]) {
        d[i][j] = std::min(d[i][j], d[i - 2][j - 2] + 1);
      }
    }
  }
  return d[n][m];
}

double LevenshteinSimilarity(std::string_view a, std::string_view b) {
  return LevenshteinSimilarityFromDistance(LevenshteinDistance(a, b),
                                           std::max(a.size(), b.size()));
}

namespace {

// Jaro's closing expression over the match and transposition counts,
// shared by both kernels below so their doubles agree bit for bit.
double JaroFromCounts(std::size_t matches, std::size_t transpositions,
                      std::size_t a_size, std::size_t b_size) {
  const double m = static_cast<double>(matches);
  return (m / static_cast<double>(a_size) +
          m / static_cast<double>(b_size) +
          (m - static_cast<double>(transpositions) / 2.0) / m) /
         3.0;
}

// Longest string the word loop below holds as position masks: one bit
// per byte of a 64-bit word.
constexpr std::size_t kJaroWordBytes = 64;

std::size_t JaroMatchWindow(std::size_t a_size, std::size_t b_size) {
  return std::max<std::size_t>(1, std::max(a_size, b_size) / 2) - 1;
}

// Jaro's greedy matching of `text` against `pattern` (1..64 bytes) as
// word operations. Bit j of peq[c] is set when pattern[j] == c, and
// peq[c] must be 0 for every other byte c of `text`. Each byte of `text`
// takes the lowest set bit of peq[text[i]] & ~matched & window(i), which
// is exactly the first free equal byte inside the window the scalar loop
// scans with `text` as its first string. `text` may be of any length.
// Transpositions pair the k-th matched byte of `text` with the k-th
// matched byte of `pattern`, as the scalar walk does. Returns the match
// count and sets *transpositions.
std::size_t JaroWordLoop(const std::uint64_t* peq, std::string_view pattern,
                         std::string_view text, std::size_t match_window,
                         std::size_t* transpositions) {
  // `window` holds bits [max(0, i - match_window), i + match_window]
  // (peq has no bit at or past |pattern|, so the AND clips the top; bits
  // past 63 fall off the word). It starts as bits [0, match_window]. Each
  // step shifts both edges up one bit, and sets bit 0 again while the
  // lower edge is still clamped at 0; past bit 63 the window is empty.
  std::uint64_t window = match_window >= 63
                             ? ~std::uint64_t{0}
                             : (std::uint64_t{2} << match_window) - 1;
  std::uint64_t matched = 0;
  // The matched bytes of `text` in text order. At most 64 bytes match;
  // once all have, the unconditional store below lands in the spare slot.
  char text_matched[kJaroWordBytes + 1] = {};
  std::size_t matches = 0;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const std::uint64_t free =
        peq[static_cast<unsigned char>(text[i])] & ~matched & window;
    const std::uint64_t lowest = free & (~free + 1);
    matched |= lowest;
    text_matched[matches] = text[i];
    matches += lowest != 0;
    window = (window << 1) | static_cast<std::uint64_t>(i < match_window);
  }
  std::size_t t = 0;
  for (std::size_t k = 0; k < matches; ++k, matched &= matched - 1) {
    t += text_matched[k] != pattern[std::countr_zero(matched)];
  }
  *transpositions = t;
  return matches;
}

double JaroWinklerFromJaro(double jaro, std::string_view a,
                           std::string_view b) {
  std::size_t prefix = 0;
  const std::size_t max_prefix = std::min<std::size_t>(
      4, std::min(a.size(), b.size()));
  while (prefix < max_prefix && a[prefix] == b[prefix]) ++prefix;
  return jaro + static_cast<double>(prefix) * 0.1 * (1.0 - jaro);
}

// ByteSignature's bucket map (see similarity.h): digits take buckets 0-9,
// the 26 letters of each case share buckets 10-31 with a lowercase letter
// 11 buckets from its uppercase twin, and any other byte c takes c mod 32.
constexpr std::array<std::uint8_t, 256> kByteBuckets = [] {
  std::array<std::uint8_t, 256> bucket{};
  for (std::size_t c = 0; c < 256; ++c) {
    bucket[c] = static_cast<std::uint8_t>(c % 32);
  }
  for (std::size_t d = 0; d < 10; ++d) {
    bucket['0' + d] = static_cast<std::uint8_t>(d);
  }
  for (std::size_t l = 0; l < 26; ++l) {
    bucket['A' + l] = static_cast<std::uint8_t>(10 + l % 22);
    bucket['a' + l] = static_cast<std::uint8_t>(10 + (l + 11) % 22);
  }
  return bucket;
}();

}  // namespace

double JaroSimilarity(std::string_view a, std::string_view b) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  const std::size_t match_window = JaroMatchWindow(a.size(), b.size());
  if (a.size() <= kJaroWordBytes && b.size() <= kJaroWordBytes) {
    // Only the entries for bytes of `a` or `b` are written, and only
    // entries for bytes of `a` are read.
    std::uint64_t peq[256];
    for (const char c : a) peq[static_cast<unsigned char>(c)] = 0;
    for (const char c : b) peq[static_cast<unsigned char>(c)] = 0;
    for (std::size_t j = 0; j < b.size(); ++j) {
      peq[static_cast<unsigned char>(b[j])] |= std::uint64_t{1} << j;
    }
    std::size_t transpositions = 0;
    const std::size_t matches =
        JaroWordLoop(peq, b, a, match_window, &transpositions);
    if (matches == 0) return 0.0;
    return JaroFromCounts(matches, transpositions, a.size(), b.size());
  }

  std::vector<bool> a_matched(a.size(), false);
  std::vector<bool> b_matched(b.size(), false);
  std::size_t matches = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const std::size_t lo = i > match_window ? i - match_window : 0;
    const std::size_t hi = std::min(b.size(), i + match_window + 1);
    for (std::size_t j = lo; j < hi; ++j) {
      if (!b_matched[j] && a[i] == b[j]) {
        a_matched[i] = true;
        b_matched[j] = true;
        ++matches;
        break;
      }
    }
  }
  if (matches == 0) return 0.0;

  std::size_t transpositions = 0;
  std::size_t j = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!a_matched[i]) continue;
    while (!b_matched[j]) ++j;
    if (a[i] != b[j]) ++transpositions;
    ++j;
  }
  return JaroFromCounts(matches, transpositions, a.size(), b.size());
}

double JaroWinklerSimilarity(std::string_view a, std::string_view b) {
  return JaroWinklerFromJaro(JaroSimilarity(a, b), a, b);
}

void JaroSimilarityBatch(std::string_view a, const std::string_view* b,
                         std::size_t count, double* out) {
  if (a.empty() || a.size() > kJaroWordBytes) {
    for (std::size_t i = 0; i < count; ++i) out[i] = JaroSimilarity(a, b[i]);
    return;
  }
  // `a`'s position masks, built once for the whole batch. The per-thread
  // table is all zero between calls: only `a`'s entries are set, and they
  // are cleared again below.
  static thread_local std::array<std::uint64_t, 256> peq{};
  for (std::size_t j = 0; j < a.size(); ++j) {
    peq[static_cast<unsigned char>(a[j])] |= std::uint64_t{1} << j;
  }
  for (std::size_t i = 0; i < count; ++i) {
    if (b[i].empty()) {
      out[i] = 0.0;
      continue;
    }
    // Walking b[i] against `a` matches the very positions that walking
    // `a` against b[i] does (DESIGN.md §5d), so the counts are
    // JaroSimilarity(a, b[i])'s and so is the closing expression.
    std::size_t transpositions = 0;
    const std::size_t matches =
        JaroWordLoop(peq.data(), a, b[i],
                     JaroMatchWindow(a.size(), b[i].size()), &transpositions);
    out[i] = matches == 0 ? 0.0
                          : JaroFromCounts(matches, transpositions, a.size(),
                                           b[i].size());
  }
  for (const char c : a) peq[static_cast<unsigned char>(c)] = 0;
}

void JaroWinklerSimilarityBatch(std::string_view a, const std::string_view* b,
                                std::size_t count, double* out) {
  JaroSimilarityBatch(a, b, count, out);
  for (std::size_t i = 0; i < count; ++i) {
    out[i] = JaroWinklerFromJaro(out[i], a, b[i]);
  }
}

namespace {

// One more item in a signature bucket, saturating at 15.
void BumpBucket(std::uint8_t* counts, std::size_t bucket) {
  counts[bucket] += counts[bucket] < 15;
}

// Packs 32 bucket counts into a signature, bucket 2k in the low nibble of
// byte k.
void PackSignature(const std::uint8_t* counts, std::uint8_t* out) {
  for (std::size_t k = 0; k < kSignatureBytes; ++k) {
    out[k] = static_cast<std::uint8_t>(counts[2 * k] | counts[2 * k + 1] << 4);
  }
}

// BigramSignature's bucket of a gram key (two bytes, or a one-byte value
// keyed apart from every bigram): the top five bits of a Fibonacci hash.
std::size_t GramBucket(std::uint32_t key) {
  return (key * 0x9E3779B1u) >> 27;
}

// TokenSetSignature's bucket of a token.
std::size_t TokenBucket(std::string_view token) {
  return util::Mix64(util::Fnv1a64(token)) >> 59;
}

// The separators JaccardTokenSimilarity splits on.
bool IsTokenSeparator(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r';
}

}  // namespace

void ByteSignature(std::string_view s, std::uint8_t* out) {
  std::uint8_t counts[2 * kSignatureBytes] = {};
  for (const char c : s) {
    BumpBucket(counts, kByteBuckets[static_cast<unsigned char>(c)]);
  }
  PackSignature(counts, out);
}

void BigramSignature(std::string_view s, std::uint8_t* out) {
  std::uint8_t counts[2 * kSignatureBytes] = {};
  const auto byte = [s](std::size_t i) {
    return std::uint32_t{static_cast<unsigned char>(s[i])};
  };
  if (s.size() == 1) BumpBucket(counts, GramBucket(0x10000u | byte(0)));
  for (std::size_t i = 0; i + 1 < s.size(); ++i) {
    BumpBucket(counts, GramBucket(byte(i) << 8 | byte(i + 1)));
  }
  PackSignature(counts, out);
}

void TokenSetSignature(std::string_view s, std::uint8_t* out) {
  std::uint8_t counts[2 * kSignatureBytes] = {};
  // The first kTracked distinct tokens, against which each token is
  // checked for a repeat. A token past them counts at every occurrence,
  // which can only raise its bucket: sound, if looser.
  constexpr std::size_t kTracked = 32;
  std::string_view tracked[kTracked];
  std::size_t tracked_bucket[kTracked] = {};
  std::size_t num_tracked = 0;
  std::size_t i = 0;
  while (i < s.size()) {
    if (IsTokenSeparator(s[i])) {
      ++i;
      continue;
    }
    std::size_t end = i + 1;
    while (end < s.size() && !IsTokenSeparator(s[end])) ++end;
    const std::string_view token = s.substr(i, end - i);
    i = end;
    const std::size_t bucket = TokenBucket(token);
    bool repeat = false;
    for (std::size_t k = 0; k < num_tracked && !repeat; ++k) {
      repeat = tracked_bucket[k] == bucket && tracked[k] == token;
    }
    if (repeat) continue;
    if (num_tracked < kTracked) {
      tracked[num_tracked] = token;
      tracked_bucket[num_tracked++] = bucket;
    }
    BumpBucket(counts, bucket);
  }
  PackSignature(counts, out);
}

std::uint32_t JaroPrefixBytes(std::string_view s) {
  std::uint32_t prefix = 0;
  for (std::size_t i = 0; i < 4 && i < s.size(); ++i) {
    prefix |= std::uint32_t{static_cast<unsigned char>(s[i])} << (8 * i);
  }
  return prefix;
}

namespace {

// Sorted-unique view of `v` in place.
void SortUnique(std::vector<std::string_view>* v) {
  std::sort(v->begin(), v->end());
  v->erase(std::unique(v->begin(), v->end()), v->end());
}

// |a ∩ b| of two sorted-unique ranges (classic merge — no hashing, no
// per-call string allocations; counts are integers, so every measure
// built on them is bit-identical to the old hash-map formulation).
std::size_t SortedIntersectionSize(const std::vector<std::string_view>& a,
                                   const std::vector<std::string_view>& b) {
  std::size_t inter = 0, i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      ++inter;
      ++i;
      ++j;
    }
  }
  return inter;
}

// Multiset overlap sum(min(count_a, count_b)) of two sorted ranges.
std::size_t SortedMultisetOverlap(const std::vector<std::string_view>& a,
                                  const std::vector<std::string_view>& b) {
  std::size_t overlap = 0, i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      ++overlap;
      ++i;
      ++j;
    }
  }
  return overlap;
}

// The character n-grams of `s` as views (a string shorter than n yields
// itself), appended to *out.
void NGramViews(std::string_view s, std::size_t n,
                std::vector<std::string_view>* out) {
  if (s.size() < n) {
    if (!s.empty()) out->push_back(s);
    return;
  }
  out->reserve(out->size() + s.size() - n + 1);
  for (std::size_t i = 0; i + n <= s.size(); ++i) {
    out->push_back(s.substr(i, n));
  }
}

}  // namespace

double JaccardTokenSimilarity(std::string_view a, std::string_view b) {
  std::vector<std::string_view> ta = util::SplitAny(a, " \t\n\r");
  std::vector<std::string_view> tb = util::SplitAny(b, " \t\n\r");
  if (ta.empty() && tb.empty()) return 1.0;
  SortUnique(&ta);
  SortUnique(&tb);
  const std::size_t inter = SortedIntersectionSize(ta, tb);
  return static_cast<double>(inter) /
         static_cast<double>(ta.size() + tb.size() - inter);
}

std::vector<std::string> CharacterBigrams(std::string_view s) {
  std::vector<std::string> grams;
  if (s.size() < 2) {
    if (!s.empty()) grams.emplace_back(s);
    return grams;
  }
  grams.reserve(s.size() - 1);
  for (std::size_t i = 0; i + 2 <= s.size(); ++i) {
    grams.emplace_back(s.substr(i, 2));
  }
  return grams;
}

void CharacterBigramViews(std::string_view s,
                          std::vector<std::string_view>* out) {
  NGramViews(s, 2, out);
}

double DiceBigramSimilarity(std::string_view a, std::string_view b) {
  std::vector<std::string_view> ga, gb;
  NGramViews(a, 2, &ga);
  NGramViews(b, 2, &gb);
  if (ga.empty() && gb.empty()) return 1.0;
  if (ga.empty() || gb.empty()) return 0.0;
  const std::size_t total = ga.size() + gb.size();
  std::sort(ga.begin(), ga.end());
  std::sort(gb.begin(), gb.end());
  const std::size_t overlap = SortedMultisetOverlap(ga, gb);
  return 2.0 * static_cast<double>(overlap) / static_cast<double>(total);
}

double MongeElkanSimilarity(std::string_view a, std::string_view b) {
  const auto ta = util::SplitAny(a, " \t\n\r");
  const auto tb = util::SplitAny(b, " \t\n\r");
  if (ta.empty() && tb.empty()) return 1.0;
  if (ta.empty() || tb.empty()) return 0.0;
  double total = 0.0;
  for (const auto& x : ta) {
    double best = 0.0;
    for (const auto& y : tb) {
      best = std::max(best, JaroWinklerSimilarity(x, y));
    }
    total += best;
  }
  return total / static_cast<double>(ta.size());
}

void TfIdfCosine::AddDocument(const std::vector<std::string>& tokens) {
  RL_CHECK(!finalized_) << "AddDocument after Finalize";
  ++num_documents_;
  // Intern, then dedupe ids (sorted-unique) instead of hashing strings.
  std::vector<TokenId> ids;
  ids.reserve(tokens.size());
  for (const auto& t : tokens) {
    const TokenId id = tokens_.Intern(t);
    if (id == document_frequency_.size()) document_frequency_.push_back(0);
    ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  for (const TokenId id : ids) ++document_frequency_[id];
}

void TfIdfCosine::Finalize() { finalized_ = true; }

double TfIdfCosine::Idf(TokenId id) const {
  // Smoothed IDF; corpus-unseen tokens (kInvalidSymbolId) get the maximum
  // weight.
  const double df = id == util::kInvalidSymbolId
                        ? 0.0
                        : static_cast<double>(document_frequency_[id]);
  return std::log((1.0 + static_cast<double>(num_documents_)) / (1.0 + df)) +
         1.0;
}

double TfIdfCosine::Similarity(const std::vector<std::string>& a,
                               const std::vector<std::string>& b) const {
  RL_CHECK(finalized_) << "Similarity before Finalize";
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  // A document's sparse TF-IDF vector: one weighted entry per distinct
  // token. Vocabulary tokens are resolved read-only to TokenIds;
  // corpus-unseen tokens keep their string_view as the coordinate, so two
  // distinct unknown tokens stay distinct and matching unknowns (present
  // in both documents) still align. Entries sort by (id, view), making
  // the accumulation order deterministic rather than hash-dependent.
  struct Entry {
    TokenId id;             // kInvalidSymbolId for corpus-unseen tokens
    std::string_view view;  // coordinate tie-break among unseen tokens
    double weight;          // tf (then tf*idf)

    bool SameToken(const Entry& o) const {
      return id == o.id && (id != util::kInvalidSymbolId || view == o.view);
    }
    bool operator<(const Entry& o) const {
      if (id != o.id) return id < o.id;
      return view < o.view;
    }
  };
  const auto vectorize = [this](const std::vector<std::string>& tokens,
                                std::vector<Entry>* v) {
    v->reserve(tokens.size());
    for (const auto& t : tokens) {
      v->push_back(Entry{tokens_.Find(t), t, 1.0});
    }
    std::sort(v->begin(), v->end());
    // Collapse duplicates (term frequency), then weight by IDF.
    std::size_t out = 0;
    for (std::size_t i = 0; i < v->size();) {
      std::size_t j = i + 1;
      while (j < v->size() && (*v)[j].SameToken((*v)[i])) ++j;
      (*v)[out] = (*v)[i];
      (*v)[out].weight = static_cast<double>(j - i);
      ++out;
      i = j;
    }
    v->resize(out);
    double norm = 0.0;
    for (Entry& e : *v) {
      e.weight *= Idf(e.id);
      norm += e.weight * e.weight;
    }
    return std::sqrt(norm);
  };
  std::vector<Entry> va, vb;
  const double na = vectorize(a, &va);
  const double nb = vectorize(b, &vb);
  if (na == 0.0 || nb == 0.0) return 0.0;
  double dot = 0.0;
  std::size_t i = 0, j = 0;
  while (i < va.size() && j < vb.size()) {
    if (va[i].SameToken(vb[j])) {
      dot += va[i].weight * vb[j].weight;
      ++i;
      ++j;
    } else if (va[i] < vb[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return dot / (na * nb);
}

}  // namespace rulelink::text
