// Auto-configuration scenario: a brand-new provider source arrives with
// an unknown schema and no expert guidance yet. The library bootstraps
// the whole linking setup from the data and a handful of validated links:
//
//   1. key discovery        — which property is key-like on each side;
//   2. scheme selection     — which classic blocking scheme works best on
//                             the validated sample;
//   3. threshold tuning     — which (support, confidence) setting the
//                             rule learner should use, by held-out F1;
//   4. learn + compare      — rules vs the best classic scheme.
#include <iostream>
#include <memory>

#include "blocking/key_discovery.h"
#include "blocking/rule_blocker.h"
#include "blocking/scheme_selector.h"
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

  // 2. Blocking-scheme selection over the discovered key.
  std::vector<blocking::CandidatePair> gold;
  for (const auto& link : dataset.links) {
    gold.push_back({link.external_index, link.catalog_index});
  }
  const auto portfolio = blocking::DefaultSchemePortfolio(external_key);
  std::vector<const blocking::CandidateGenerator*> raw;
  for (const auto& generator : portfolio) raw.push_back(generator.get());
  std::cout << "\nBlocking-scheme ranking on the validated sample:\n";
  // Full corpus (no sampling): the rule blocker below needs the class
  // vector to stay parallel to the local item list.
  blocking::SchemeSelectorOptions selector;
  selector.sample_limit = 0;
  const auto ranked = blocking::RankSchemes(
      raw, dataset.external_items, dataset.catalog_items, gold, selector);
  for (const auto& scheme : ranked) {
    std::cout << "  " << util::FormatDouble(scheme.score, 3) << "  "
              << scheme.name << "  (PC "
              << util::FormatPercent(scheme.quality.pairs_completeness)
              << ", RR "
              << util::FormatPercent(scheme.quality.reduction_ratio, 2)
              << ")\n";
  }

  // 3. Threshold tuning for the rule learner on held-out links.
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

  // 4. Learn with the tuned setting and compare against the best classic
  // scheme on completeness/reduction.
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
  const auto rule_scheme = blocking::RankSchemes(
      {&rule_blocker}, dataset.external_items, dataset.catalog_items, gold,
      selector);
  std::cout << "\nLearnt rules as a blocking scheme:\n  "
            << util::FormatDouble(rule_scheme[0].score, 3) << "  "
            << rule_scheme[0].name << "  (PC "
            << util::FormatPercent(rule_scheme[0].quality.pairs_completeness)
            << ", RR "
            << util::FormatPercent(rule_scheme[0].quality.reduction_ratio, 2)
            << ")\n"
            << "vs best classic scheme: " << ranked[0].name << " at "
            << util::FormatDouble(ranked[0].score, 3) << "\n";
  return 0;
}
