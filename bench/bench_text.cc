// Experiment E7 (micro): throughput of the text substrate — segmentation
// schemes and similarity measures — which backs both the learner's premise
// extraction and the linker's comparisons (§1 motivates the approach by
// the cost of pairwise similarity computation).
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "text/segmenter.h"
#include "text/similarity.h"
#include "util/rng.h"

namespace rulelink::text {
namespace {

std::vector<std::string> SamplePartNumbers(std::size_t count) {
  util::Rng rng(123);
  std::vector<std::string> values;
  values.reserve(count);
  const char* seps = "-. /_";
  for (std::size_t i = 0; i < count; ++i) {
    std::string value = rng.AlnumString(4 + rng.UniformUint64(5));
    for (int t = 0; t < 2; ++t) {
      value.push_back(seps[rng.UniformUint64(5)]);
      value += rng.AlnumString(3 + rng.UniformUint64(4));
    }
    values.push_back(std::move(value));
  }
  return values;
}

const std::vector<std::string>& Corpus() {
  static const std::vector<std::string>* corpus =
      new std::vector<std::string>(SamplePartNumbers(10000));
  return *corpus;
}

void BM_SeparatorSegmenter(benchmark::State& state) {
  const SeparatorSegmenter segmenter;
  const auto& corpus = Corpus();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(segmenter.Segment(corpus[i % corpus.size()]));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SeparatorSegmenter);

void BM_NGramSegmenter(benchmark::State& state) {
  const NGramSegmenter segmenter(static_cast<std::size_t>(state.range(0)));
  const auto& corpus = Corpus();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(segmenter.Segment(corpus[i % corpus.size()]));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NGramSegmenter)->Arg(2)->Arg(3)->Arg(4);

void BM_AlphaDigitSegmenter(benchmark::State& state) {
  const AlphaDigitSegmenter segmenter;
  const auto& corpus = Corpus();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(segmenter.Segment(corpus[i % corpus.size()]));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AlphaDigitSegmenter);

template <double (*F)(std::string_view, std::string_view)>
void BM_Similarity(benchmark::State& state) {
  const auto& corpus = Corpus();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        F(corpus[i % corpus.size()], corpus[(i + 1) % corpus.size()]));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Similarity<&LevenshteinSimilarity>)->Name("BM_Levenshtein");
BENCHMARK(BM_Similarity<&JaroSimilarity>)->Name("BM_Jaro");
BENCHMARK(BM_Similarity<&JaroWinklerSimilarity>)->Name("BM_JaroWinkler");
BENCHMARK(BM_Similarity<&JaccardTokenSimilarity>)->Name("BM_JaccardTokens");
BENCHMARK(BM_Similarity<&DiceBigramSimilarity>)->Name("BM_DiceBigram");
BENCHMARK(BM_Similarity<&MongeElkanSimilarity>)->Name("BM_MongeElkan");

}  // namespace
}  // namespace rulelink::text

BENCHMARK_MAIN();
