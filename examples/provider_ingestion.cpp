// Provider-file ingestion scenario: real provider catalogs arrive as CSV,
// the delivery is deduplicated, links are validated in batches, and
// accepted links feed the incremental rule learner. Demonstrates
// io::LoadItemsFromCsv, linking::Deduplicate,
// core::IncrementalRuleLearner and core::rule_io persistence.
#include <iostream>

#include "blocking/standard_blocking.h"
#include "core/classifier.h"
#include "core/incremental.h"
#include "core/rule_io.h"
#include "io/item_loader.h"
#include "linking/dedup.h"
#include "ontology/ontology.h"
#include "text/segmenter.h"
#include "util/logging.h"

namespace {

// The provider ships a CSV: one row per product.
constexpr char kProviderCsv[] =
    "sku,partnumber,manufacturer\n"
    "D1,CRCW0805-4K7-ohm,Voltron\n"
    "D2,CRCW0805-10K-ohm,Voltron\n"
    "D3,T83.106.16V,Tekdyne\n"
    "D4,T83-226-25V,Tekdyne\n"
    "D5,CRCW0805/220R/ohm,Voltron\n"
    "D6,T83_476_10V,Tekdyne\n"
    "D7,CRCW0805-1K0-ohm,Voltron\n"
    "D8,T83-335-35V,Tekdyne\n"
    "D9,CRCW0805-4K7-ohm,Voltron\n";  // re-delivery of D1: a duplicate

constexpr char kPn[] = "http://provider/schema#partnumber";

}  // namespace

int main() {
  using namespace rulelink;

  // 1. Parse the provider CSV into items.
  io::ItemCsvMapping mapping;
  mapping.id_column = "sku";
  mapping.iri_prefix = "http://provider/item/";
  mapping.property_prefix = "http://provider/schema#";
  auto items = io::LoadItemsFromCsv(kProviderCsv, mapping);
  if (!items.ok()) {
    std::cerr << items.status() << "\n";
    return 1;
  }
  std::cout << "Parsed " << items->size() << " provider items from CSV\n";

  // 1b. Deduplicate the delivery first (§3: the UNA requires eliminating
  // redundant new data). D9 is a re-delivery of D1.
  const blocking::StandardBlocker dedup_blocker(kPn, 6);
  const linking::ItemMatcher dedup_matcher(
      {{kPn, kPn, linking::SimilarityMeasure::kJaroWinkler, 1.0}});
  const auto dedup =
      linking::Deduplicate(*items, dedup_blocker, dedup_matcher, 0.99);
  std::cout << "Deduplication: " << dedup.duplicate_clusters.size()
            << " duplicate cluster(s), " << dedup.survivors.size() << " of "
            << items->size() << " items survive\n";
  {
    std::vector<core::Item> unique;
    for (std::size_t index : dedup.survivors) {
      unique.push_back((*items)[index]);
    }
    *items = std::move(unique);
  }

  // 2. A minimal local ontology with two classes.
  ontology::Ontology onto;
  const auto component = onto.AddClass("cat:Component", "Component");
  const auto resistor = onto.AddClass("cat:Resistor", "Resistor");
  const auto capacitor = onto.AddClass("cat:Capacitor", "Capacitor");
  RL_CHECK_OK(onto.AddSubClassOf(resistor, component));
  RL_CHECK_OK(onto.AddSubClassOf(capacitor, component));
  RL_CHECK_OK(onto.Finalize());

  // 3. The expert validates links in two batches; the incremental learner
  // absorbs each batch without re-scanning earlier ones.
  const text::SeparatorSegmenter segmenter;
  core::IncrementalRuleLearner learner(&onto, &segmenter, {kPn});

  const ontology::ClassId truth[] = {resistor,  resistor,  capacitor,
                                     capacitor, resistor,  capacitor,
                                     resistor,  capacitor};
  std::cout << "\nBatch 1: expert validates links for D1..D4\n";
  for (std::size_t i = 0; i < 4; ++i) {
    learner.AddExample((*items)[i], {truth[i]});
  }
  auto rules = learner.BuildRules(0.2);
  RL_CHECK(rules.ok());
  std::cout << "  rules after batch 1: " << rules->size() << "\n";

  std::cout << "Batch 2: expert validates links for D5..D8\n";
  for (std::size_t i = 4; i < 8; ++i) {
    learner.AddExample((*items)[i], {truth[i]});
  }
  rules = learner.BuildRules(0.2);
  RL_CHECK(rules.ok());
  std::cout << "  rules after batch 2: " << rules->size() << "\n";
  for (const auto& rule : rules->rules()) {
    std::cout << "    "
              << core::RuleToString(rule, *rules, onto)
              << "  [conf=" << rule.confidence << "]\n";
  }

  // 4. Persist the rule base and reload it (what a nightly job would do).
  const std::string serialized = core::WriteRules(*rules, onto);
  auto reloaded = core::ReadRules(serialized, onto);
  RL_CHECK(reloaded.ok());
  std::cout << "\nRule base round-trips through "
            << serialized.size() << " bytes of TSV\n";

  // 5. Classify a new provider row with the reloaded rules.
  core::Item fresh;
  fresh.iri = "http://provider/item/D10";
  fresh.facts.push_back(core::PropertyValue{kPn, "T83-685-50V"});
  const core::RuleClassifier classifier(&*reloaded, &segmenter);
  const auto predictions = classifier.Classify(fresh);
  RL_CHECK(!predictions.empty());
  std::cout << "New item D10 predicted as " << onto.label(predictions[0].cls)
            << " (confidence " << predictions[0].confidence << ")\n";
  return 0;
}
