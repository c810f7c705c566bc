// Auto-configuration scenario: a brand-new provider source arrives with
// an unknown schema and no expert guidance yet. The library bootstraps
// the whole linking setup from the data and a handful of validated links:
//
//   1. key discovery        — which property is key-like on each side;
//   2. threshold tuning     — which (support, confidence) setting the
//                             rule learner should use, by held-out F1;
//   3. learn + compare      — rules vs standard blocking on the
//                             discovered key, against the validated links.
#include <iostream>
#include <vector>

#include "blocking/key_discovery.h"
#include "blocking/metrics.h"
#include "blocking/rule_blocker.h"
#include "blocking/standard_blocking.h"
#include "core/classifier.h"
#include "core/learner.h"
#include "datagen/generator.h"
#include "eval/tuner.h"
#include "text/segmenter.h"
#include "util/logging.h"
#include "util/string_util.h"

int main() {
  using namespace rulelink;

  datagen::DatasetConfig config;
  config.catalog_size = 6000;
  config.num_links = 2000;
  auto dataset_or = datagen::DatasetGenerator(config).Generate();
  if (!dataset_or.ok()) {
    std::cerr << dataset_or.status() << "\n";
    return 1;
  }
  const datagen::Dataset& dataset = *dataset_or;

  // 1. Key discovery on both sides.
  std::cout << "Key discovery (uniqueness x coverage):\n";
  for (const auto& [label, items] :
       {std::pair<const char*, const std::vector<core::Item>*>{
            "external", &dataset.external_items},
        std::pair<const char*, const std::vector<core::Item>*>{
            "local", &dataset.catalog_items}}) {
    std::cout << "  " << label << ":\n";
    for (const auto& keyness : blocking::DiscoverKeys(*items)) {
      std::cout << "    " << keyness.property << "  score="
                << util::FormatDouble(keyness.score, 3) << "\n";
    }
  }
  const std::string external_key =
      blocking::BestKeyProperty(dataset.external_items);

  // 2. Threshold tuning for the rule learner on held-out links.
  const core::TrainingSet ts = datagen::BuildTrainingSet(dataset);
  const text::SeparatorSegmenter segmenter;
  eval::TunerOptions tuner;
  tuner.segmenter = &segmenter;
  tuner.properties = {external_key};
  auto candidates = eval::TuneThresholds(ts, tuner);
  RL_CHECK(candidates.ok()) << candidates.status();
  std::cout << "\nThreshold tuning (held-out F1), top 3 of "
            << candidates->size() << ":\n";
  for (std::size_t i = 0; i < 3 && i < candidates->size(); ++i) {
    const auto& c = (*candidates)[i];
    std::cout << "  th=" << c.support_threshold
              << " minconf=" << c.min_confidence
              << "  F1=" << util::FormatDouble(c.f_beta, 3)
              << "  (precision "
              << util::FormatPercent(c.holdout.precision) << ", recall "
              << util::FormatPercent(c.holdout.recall) << ")\n";
  }

  // 3. Learn with the tuned setting and compare the rules, as a blocking
  // scheme, with standard blocking on the discovered key: completeness
  // and reduction against the validated links.
  core::LearnerOptions options;
  options.support_threshold = candidates->front().support_threshold;
  options.segmenter = &segmenter;
  options.properties = {external_key};
  auto rules = core::RuleLearner(options).Learn(ts);
  RL_CHECK(rules.ok());
  const core::RuleClassifier classifier(&*rules, &segmenter);
  const blocking::RuleBlocker rule_blocker(
      &classifier, &dataset.ontology(), &dataset.catalog_classes,
      candidates->front().min_confidence,
      /*compare_all_when_unclassified=*/true);
  const blocking::StandardBlocker key_blocker(external_key,
                                              /*prefix_length=*/5);
  std::vector<blocking::CandidatePair> gold;
  for (const auto& link : dataset.links) {
    gold.push_back({link.external_index, link.catalog_index});
  }
  const auto report = [&](const blocking::CandidateGenerator& generator) {
    const blocking::BlockingQuality quality = blocking::EvaluateBlocking(
        generator.Generate(dataset.external_items, dataset.catalog_items),
        gold, dataset.external_items.size(), dataset.catalog_items.size());
    std::cout << "  " << generator.name() << "  (PC "
              << util::FormatPercent(quality.pairs_completeness) << ", RR "
              << util::FormatPercent(quality.reduction_ratio, 2) << ")\n";
  };
  std::cout << "\nLearnt rules vs standard blocking on the discovered key:\n";
  report(rule_blocker);
  report(key_blocker);
  return 0;
}
