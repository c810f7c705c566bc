// rulelink — command-line front end for the library.
//
//   rulelink learn    --local cat.ttl --external prov.nt --links ts.nt
//                     [--threshold 0.002] [--property IRI]... --out rules.tsv
//   rulelink classify --local cat.ttl --rules rules.tsv
//                     (--external prov.nt | --external-csv prov.csv
//                      --id-column sku [--property-prefix P])
//                     [--min-confidence 0.4] [--candidates]
//   rulelink evaluate --local cat.ttl --external prov.nt --links ts.nt
//                     [--threshold 0.002] [--property IRI]...
//   rulelink serve    --local cat.nt (--external prov.nt |
//                      --external-csv prov.csv --id-column sku)
//                     [--key-property IRI] [--key-prefix 5]
//                     [--property IRI]... [--threshold 0.75] [--all]
//                     [--clients N] [--delta more.nt]...
//                     [--links ts.nt [--rules-out rules.tsv]
//                      [--rule-threshold 0.002]]
//
// serve keeps the local catalog resident in a linking::ServeEngine
// snapshot and answers each external item as a point query over it —
// lock-free reads under epoch reclamation, same links as a batch run.
// Each --delta file appends its items through an incremental
// PublishDelta (dictionary, feature cache and candidate index extend the
// predecessor generation in place of a rebuild); --links ingests
// validated same-as links into the IncrementalRuleLearner and hot-swaps
// the learned classification rules onto a fresh generation atomically.
//
// Local files ending in .ttl are parsed as Turtle, everything else as
// N-Triples. The local file must contain the ontology (owl:Class /
// rdfs:subClassOf) and the typed catalog instances.
#include <atomic>
#include <charconv>
#include <cstdlib>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/classifier.h"
#include "core/incremental.h"
#include "core/learner.h"
#include "core/linking_space.h"
#include "blocking/key_discovery.h"
#include "blocking/standard_blocking.h"
#include "core/rule_io.h"
#include "core/training_set.h"
#include "eval/report.h"
#include "eval/table1.h"
#include "io/item_loader.h"
#include "linking/dedup.h"
#include "linking/filters.h"
#include "linking/serve_engine.h"
#include "obs/metrics.h"
#include "ontology/instance_index.h"
#include "rdf/ntriples.h"
#include "rdf/sparql.h"
#include "rdf/turtle.h"
#include "text/segmenter.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace {

using rulelink::util::Status;

struct Args {
  std::string command;
  std::map<std::string, std::string> options;
  std::vector<std::string> properties;  // repeatable --property
  std::vector<std::string> deltas;      // repeatable --delta (serve)
  // Numeric flags present on the command line, parsed and range-checked
  // by ParseNumericFlags.
  std::map<std::string, std::size_t> counts;
  std::map<std::string, double> fractions;
};

void PrintUsage() {
  std::cerr <<
      "usage: rulelink <learn|classify|evaluate|query|dedup|serve>"
      " [options]\n"
      "  learn     --local F --external F --links F --out F\n"
      "            [--threshold 0.002] [--property IRI]... [--threads N]\n"
      "  classify  --local F --rules F (--external F | --external-csv F\n"
      "            --id-column NAME [--property-prefix P])\n"
      "            [--min-confidence X] [--candidates] [--threads N]\n"
      "  evaluate  --local F --external F --links F [--threshold 0.002]\n"
      "            [--property IRI]... [--threads N]\n"
      "  query     --data F --sparql 'SELECT ... WHERE { ... }'\n"
      "  dedup     (--external F | --external-csv F --id-column NAME)\n"
      "            [--key-property IRI] [--similarity 0.95]\n"
      "  serve     --local F (--external F | --external-csv F\n"
      "            --id-column NAME) [--key-property IRI] [--key-prefix 5]\n"
      "            [--property IRI]... [--threshold 0.75] [--all]\n"
      "            [--clients N] [--delta F]...\n"
      "            [--links F [--rules-out F] [--rule-threshold 0.002]]\n"
      "--delta F (serve, repeatable) appends F's items as an incremental\n"
      "generation; --links F learns classification rules from validated\n"
      "links (needs RDF --external) and hot-swaps them atomically.\n"
      "--threads N uses N workers (0 = hardware concurrency, 1 = serial);\n"
      "results are identical at every thread count.\n"
      "--pin-threads (any command; or RULELINK_PIN_THREADS=1) pins pool\n"
      "workers to cores — a scheduling hint only, results are unchanged.\n"
      "--metrics-out F (any command) writes a metrics snapshot — stage\n"
      "timings, pipeline trace, counters and histograms — as JSON to F.\n";
}

bool ParseArgs(int argc, char** argv, Args* args) {
  if (argc < 2) return false;
  args->command = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag.rfind("--", 0) != 0) return false;
    flag = flag.substr(2);
    if (flag == "candidates" || flag == "pin-threads" || flag == "all") {
      args->options[flag] = "true";
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "property") {
      args->properties.push_back(value);
    } else if (flag == "delta") {
      args->deltas.push_back(value);
    } else {
      args->options[flag] = value;
    }
  }
  return true;
}

std::string Opt(const Args& args, const std::string& key,
                const std::string& fallback = "") {
  auto it = args.options.find(key);
  return it == args.options.end() ? fallback : it->second;
}

// Every numeric flag and the values it accepts: a count is a plain
// unsigned decimal (no sign), a fraction a number in [0, 1]; --clients
// also caps at the worker limit, since each client is a thread.
enum class NumberKind { kCount, kClients, kFraction };
constexpr std::pair<const char*, NumberKind> kNumericFlags[] = {
    {"threads", NumberKind::kCount},
    {"key-prefix", NumberKind::kCount},
    {"clients", NumberKind::kClients},
    {"threshold", NumberKind::kFraction},
    {"min-confidence", NumberKind::kFraction},
    {"similarity", NumberKind::kFraction},
    {"rule-threshold", NumberKind::kFraction},
};

// The whole of `text` as a number of type T, or nothing.
template <typename T>
std::optional<T> ParseWhole(const std::string& text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

// Parses every numeric flag the command line carries into args->counts /
// args->fractions, before any input file is opened. On a bad value prints
// "invalid value for --<flag>: '<text>'" and returns false.
bool ParseNumericFlags(Args* args) {
  for (const auto& [flag, kind] : kNumericFlags) {
    const auto it = args->options.find(flag);
    if (it == args->options.end()) continue;
    const std::string& text = it->second;
    bool ok = false;
    if (kind == NumberKind::kFraction) {
      const std::optional<double> value = ParseWhole<double>(text);
      ok = value && *value >= 0.0 && *value <= 1.0;
      if (ok) args->fractions[flag] = *value;
    } else {
      const std::optional<std::size_t> value = ParseWhole<std::size_t>(text);
      ok = value && (kind != NumberKind::kClients ||
                     *value <= rulelink::util::kMaxParallelWorkers);
      if (ok) args->counts[flag] = *value;
    }
    if (!ok) {
      std::cerr << "invalid value for --" << flag << ": '" << text << "'\n";
      return false;
    }
  }
  return true;
}

std::size_t Count(const Args& args, const std::string& flag,
                  std::size_t fallback) {
  const auto it = args.counts.find(flag);
  return it == args.counts.end() ? fallback : it->second;
}

double Fraction(const Args& args, const std::string& flag, double fallback) {
  const auto it = args.fractions.find(flag);
  return it == args.fractions.end() ? fallback : it->second;
}

// The worker count shared by every parallel phase: 1 = serial (the
// default), 0 = hardware concurrency.
std::size_t Threads(const Args& args) { return Count(args, "threads", 1); }

Status LoadExternalItems(const Args& args,
                         std::vector<rulelink::core::Item>* items);

Status LoadRdf(const std::string& path, rulelink::rdf::Graph* graph) {
  if (rulelink::util::EndsWith(path, ".ttl")) {
    return rulelink::rdf::ParseTurtleFile(path, graph);
  }
  return rulelink::rdf::ParseNTriplesFile(path, graph);
}

// Extracts items (with literal facts) from an RDF graph.
std::vector<rulelink::core::Item> ItemsFromGraph(
    const rulelink::rdf::Graph& graph) {
  std::vector<rulelink::core::Item> items;
  const auto& dict = graph.dict();
  for (rulelink::rdf::TermId subject : graph.DistinctSubjects()) {
    rulelink::core::Item item;
    item.iri = dict.term(subject).lexical();
    graph.ForEachMatch(
        rulelink::rdf::TriplePattern{subject, rulelink::rdf::kInvalidTermId,
                                     rulelink::rdf::kInvalidTermId},
        [&](const rulelink::rdf::Triple& t) {
          const auto& object = dict.term(t.object);
          if (object.is_literal()) {
            item.facts.push_back(rulelink::core::PropertyValue{
                dict.term(t.predicate).lexical(), object.lexical()});
          }
          return true;
        });
    if (!item.facts.empty()) items.push_back(std::move(item));
  }
  return items;
}

int RunLearn(const Args& args, rulelink::obs::MetricsRegistry* metrics) {
  rulelink::rdf::Graph local, external, links;
  for (const auto& [key, graph] :
       std::initializer_list<std::pair<const char*, rulelink::rdf::Graph*>>{
           {"local", &local}, {"external", &external}, {"links", &links}}) {
    const std::string path = Opt(args, key);
    if (path.empty()) {
      std::cerr << "missing --" << key << "\n";
      return 2;
    }
    if (auto s = LoadRdf(path, graph); !s.ok()) {
      std::cerr << path << ": " << s << "\n";
      return 1;
    }
  }
  auto onto = rulelink::ontology::Ontology::FromGraph(local);
  if (!onto.ok()) {
    std::cerr << "ontology: " << onto.status() << "\n";
    return 1;
  }
  const auto index =
      rulelink::ontology::InstanceIndex::Build(local, *onto);
  std::size_t skipped = 0;
  auto ts = rulelink::core::TrainingSet::FromGraphs(external, links, index,
                                                    &skipped);
  if (!ts.ok()) {
    std::cerr << "training set: " << ts.status() << "\n";
    return 1;
  }
  std::cerr << "training set: " << ts->size() << " links (" << skipped
            << " skipped)\n";

  const rulelink::text::SeparatorSegmenter segmenter;
  rulelink::core::LearnerOptions options;
  options.support_threshold = Fraction(args, "threshold", 0.002);
  options.segmenter = &segmenter;
  options.properties = args.properties;
  options.num_threads = Threads(args);
  rulelink::core::LearnStats stats;
  auto rules =
      rulelink::core::RuleLearner(options).Learn(*ts, &stats, metrics);
  if (!rules.ok()) {
    std::cerr << "learner: " << rules.status() << "\n";
    return 1;
  }
  std::cerr << rulelink::eval::FormatLearnStats(stats, false);

  const std::string out = Opt(args, "out");
  if (out.empty()) {
    std::cout << rulelink::core::WriteRules(*rules, *onto);
  } else if (auto s = rulelink::core::WriteRulesToFile(*rules, *onto, out);
             !s.ok()) {
    std::cerr << s << "\n";
    return 1;
  } else {
    std::cerr << "wrote " << rules->size() << " rules to " << out << "\n";
  }
  return 0;
}

int RunClassify(const Args& args, rulelink::obs::MetricsRegistry* metrics) {
  rulelink::rdf::Graph local;
  if (auto s = LoadRdf(Opt(args, "local"), &local); !s.ok()) {
    std::cerr << "local: " << s << "\n";
    return 1;
  }
  auto onto = rulelink::ontology::Ontology::FromGraph(local);
  if (!onto.ok()) {
    std::cerr << "ontology: " << onto.status() << "\n";
    return 1;
  }
  auto rules =
      rulelink::core::ReadRulesFromFile(Opt(args, "rules"), *onto);
  if (!rules.ok()) {
    std::cerr << "rules: " << rules.status() << "\n";
    return 1;
  }

  std::vector<rulelink::core::Item> items;
  if (auto s = LoadExternalItems(args, &items); !s.ok()) {
    std::cerr << "external: " << s << "\n";
    return 1;
  }

  const double min_confidence = Fraction(args, "min-confidence", 0.0);
  const bool with_candidates = Opt(args, "candidates") == "true";
  const rulelink::text::SeparatorSegmenter segmenter;
  const rulelink::core::RuleClassifier classifier(&*rules, &segmenter);
  const auto index = rulelink::ontology::InstanceIndex::Build(local, *onto);
  const rulelink::core::LinkingSpaceAnalyzer analyzer(&classifier, &index);

  // Classification runs as one parallel batch; output order stays the
  // input item order regardless of the thread count.
  std::vector<std::vector<rulelink::core::ClassPrediction>> batch;
  {
    const rulelink::obs::MetricsRegistry::StageScope stage(metrics,
                                                           "cli/classify");
    batch = classifier.ClassifyBatch(items, min_confidence, Threads(args));
  }
  if (metrics != nullptr) {
    std::size_t unclassified = 0;
    for (const auto& predictions : batch) {
      if (predictions.empty()) ++unclassified;
    }
    metrics->AddCounter("classify/items", items.size());
    metrics->AddCounter("classify/unclassified", unclassified);
  }
  for (std::size_t item_index = 0; item_index < items.size(); ++item_index) {
    const auto& item = items[item_index];
    const auto& predictions = batch[item_index];
    std::cout << item.iri << "\t";
    if (predictions.empty()) {
      std::cout << "(unclassified)\n";
      continue;
    }
    for (std::size_t i = 0; i < predictions.size(); ++i) {
      if (i) std::cout << " ";
      std::cout << onto->iri(predictions[i].cls) << "@"
                << rulelink::util::FormatDouble(predictions[i].confidence, 3);
    }
    if (with_candidates) {
      std::cout << "\tcandidates="
                << analyzer.SubspaceSize(
                       item, min_confidence,
                       rulelink::core::UnclassifiedPolicy::kSkip);
    }
    std::cout << "\n";
  }
  return 0;
}

int RunEvaluate(const Args& args, rulelink::obs::MetricsRegistry* metrics) {
  rulelink::rdf::Graph local, external, links;
  for (const auto& [key, graph] :
       std::initializer_list<std::pair<const char*, rulelink::rdf::Graph*>>{
           {"local", &local}, {"external", &external}, {"links", &links}}) {
    if (auto s = LoadRdf(Opt(args, key), graph); !s.ok()) {
      std::cerr << key << ": " << s << "\n";
      return 1;
    }
  }
  auto onto = rulelink::ontology::Ontology::FromGraph(local);
  if (!onto.ok()) {
    std::cerr << onto.status() << "\n";
    return 1;
  }
  const auto index = rulelink::ontology::InstanceIndex::Build(local, *onto);
  auto ts = rulelink::core::TrainingSet::FromGraphs(external, links, index,
                                                    nullptr);
  if (!ts.ok()) {
    std::cerr << ts.status() << "\n";
    return 1;
  }
  const double threshold = Fraction(args, "threshold", 0.002);
  const std::size_t num_threads = Threads(args);
  const rulelink::text::SeparatorSegmenter segmenter;
  rulelink::core::LearnerOptions options;
  options.support_threshold = threshold;
  options.segmenter = &segmenter;
  options.properties = args.properties;
  options.num_threads = num_threads;
  rulelink::core::LearnStats stats;
  auto rules =
      rulelink::core::RuleLearner(options).Learn(*ts, &stats, metrics);
  if (!rules.ok()) {
    std::cerr << rules.status() << "\n";
    return 1;
  }
  std::cout << rulelink::eval::FormatLearnStats(stats, true) << "\n";
  const rulelink::eval::Table1Evaluator evaluator(&*rules, &segmenter,
                                                  threshold);
  std::cout << rulelink::eval::FormatTable1(
      evaluator.Evaluate(*ts, {1.0, 0.8, 0.6, 0.4}, num_threads, metrics),
      true);
  return 0;
}

Status LoadExternalItems(const Args& args,
                         std::vector<rulelink::core::Item>* items) {
  if (!Opt(args, "external-csv").empty()) {
    rulelink::io::ItemCsvMapping mapping;
    mapping.id_column = Opt(args, "id-column", "id");
    mapping.iri_prefix = "urn:csv:";
    mapping.property_prefix = Opt(args, "property-prefix", "");
    auto table = rulelink::io::ParseCsvFile(Opt(args, "external-csv"));
    if (!table.ok()) return table.status();
    auto loaded = rulelink::io::ItemsFromCsv(*table, mapping);
    if (!loaded.ok()) return loaded.status();
    *items = std::move(loaded).value();
    return rulelink::util::OkStatus();
  }
  rulelink::rdf::Graph external;
  RL_RETURN_IF_ERROR(LoadRdf(Opt(args, "external"), &external));
  *items = ItemsFromGraph(external);
  return rulelink::util::OkStatus();
}

int RunDedup(const Args& args, rulelink::obs::MetricsRegistry* metrics) {
  std::vector<rulelink::core::Item> items;
  if (auto s = LoadExternalItems(args, &items); !s.ok()) {
    std::cerr << s << "\n";
    return 1;
  }
  std::string key = Opt(args, "key-property");
  if (key.empty()) {
    key = rulelink::blocking::BestKeyProperty(items);
    if (key.empty()) {
      std::cerr << "no property to dedup on\n";
      return 1;
    }
    std::cerr << "using discovered key property: " << key << "\n";
  }
  const double threshold = Fraction(args, "similarity", 0.95);
  const rulelink::blocking::StandardBlocker blocker(key, 5);
  const rulelink::linking::ItemMatcher matcher(
      {{key, key, rulelink::linking::SimilarityMeasure::kJaroWinkler, 1.0}});
  rulelink::linking::DedupResult result;
  {
    const rulelink::obs::MetricsRegistry::StageScope stage(metrics,
                                                           "cli/dedup");
    result = rulelink::linking::Deduplicate(items, blocker, matcher,
                                            threshold);
  }
  if (metrics != nullptr) {
    metrics->AddCounter("dedup/items", items.size());
    metrics->AddCounter("dedup/duplicate_clusters",
                        result.duplicate_clusters.size());
    metrics->AddCounter("dedup/survivors", result.survivors.size());
    metrics->AddCounter("dedup/comparisons", result.comparisons);
  }
  for (const auto& cluster : result.duplicate_clusters) {
    for (std::size_t i = 0; i < cluster.size(); ++i) {
      if (i) std::cout << "\t";
      std::cout << items[cluster[i]].iri;
    }
    std::cout << "\n";
  }
  std::cerr << result.duplicate_clusters.size() << " duplicate cluster(s), "
            << result.survivors.size() << " of " << items.size()
            << " items survive (" << result.comparisons
            << " comparisons)\n";
  return 0;
}

int RunServe(const Args& args, rulelink::obs::MetricsRegistry* metrics) {
  namespace linking = rulelink::linking;
  rulelink::rdf::Graph local_graph;
  if (auto s = LoadRdf(Opt(args, "local"), &local_graph); !s.ok()) {
    std::cerr << "local: " << s << "\n";
    return 1;
  }
  std::vector<rulelink::core::Item> locals = ItemsFromGraph(local_graph);
  std::vector<rulelink::core::Item> queries;
  if (auto s = LoadExternalItems(args, &queries); !s.ok()) {
    std::cerr << "external: " << s << "\n";
    return 1;
  }

  std::string key = Opt(args, "key-property");
  if (key.empty()) {
    key = rulelink::blocking::BestKeyProperty(locals);
    if (key.empty()) {
      std::cerr << "no property to block on\n";
      return 1;
    }
    std::cerr << "using discovered key property: " << key << "\n";
  }
  const std::size_t key_prefix = Count(args, "key-prefix", 5);
  std::vector<linking::AttributeRule> rules;
  for (const std::string& property :
       args.properties.empty() ? std::vector<std::string>{key}
                               : args.properties) {
    rules.push_back({property, property,
                     linking::SimilarityMeasure::kJaroWinkler, 1.0});
  }
  const double threshold = Fraction(args, "threshold", 0.75);
  const linking::Linker::Strategy strategy =
      Opt(args, "all") == "true"
          ? linking::Linker::Strategy::kAllAboveThreshold
          : linking::Linker::Strategy::kBestPerExternal;
  const rulelink::blocking::StandardBlocker blocker(key, key_prefix);

  // The snapshot takes the catalog; keep the IRIs for printing links.
  std::vector<std::string> local_iris;
  local_iris.reserve(locals.size());
  for (const auto& item : locals) local_iris.push_back(item.iri);

  linking::ServeEngine engine;
  {
    const rulelink::obs::MetricsRegistry::StageScope stage(metrics,
                                                           "serve/publish");
    engine.Publish(std::make_unique<linking::ServeSnapshot>(
        std::move(locals), linking::ItemMatcher(rules), threshold, strategy,
        blocker, /*num_threads=*/1, metrics));
  }

  // Each --delta file becomes one incremental generation: its items are
  // appended through PublishDelta (dictionary/feature-cache/index extend
  // the predecessor) and serve alongside the base catalog below.
  for (const std::string& path : args.deltas) {
    rulelink::rdf::Graph delta_graph;
    if (auto s = LoadRdf(path, &delta_graph); !s.ok()) {
      std::cerr << "delta " << path << ": " << s << "\n";
      return 1;
    }
    linking::CatalogDelta delta;
    delta.appended = ItemsFromGraph(delta_graph);
    for (const auto& item : delta.appended) local_iris.push_back(item.iri);
    const std::uint64_t generation =
        engine.PublishDelta(std::move(delta), blocker, nullptr, metrics);
    std::cerr << "delta " << path << ": generation " << generation << ", "
              << local_iris.size() << " items resident\n";
  }

  // Validated links feed the incremental learner; the learned rule set
  // rides a fresh generation via a catalog-free delta publish, so rules
  // and snapshot swap atomically under the one generation stamp.
  if (const std::string links_path = Opt(args, "links");
      !links_path.empty()) {
    const std::string external_path = Opt(args, "external");
    if (external_path.empty()) {
      std::cerr << "--links needs an RDF --external describing the linked "
                   "items\n";
      return 2;
    }
    rulelink::rdf::Graph external_graph, links_graph;
    if (auto s = LoadRdf(external_path, &external_graph); !s.ok()) {
      std::cerr << "external: " << s << "\n";
      return 1;
    }
    if (auto s = LoadRdf(links_path, &links_graph); !s.ok()) {
      std::cerr << "links: " << s << "\n";
      return 1;
    }
    auto onto = rulelink::ontology::Ontology::FromGraph(local_graph);
    if (!onto.ok()) {
      std::cerr << "ontology: " << onto.status() << "\n";
      return 1;
    }
    const auto index =
        rulelink::ontology::InstanceIndex::Build(local_graph, *onto);
    std::size_t skipped = 0;
    auto ts = rulelink::core::TrainingSet::FromGraphs(
        external_graph, links_graph, index, &skipped);
    if (!ts.ok()) {
      std::cerr << "training set: " << ts.status() << "\n";
      return 1;
    }
    const rulelink::text::SeparatorSegmenter segmenter;
    rulelink::core::IncrementalRuleLearner learner(&*onto, &segmenter,
                                                   args.properties);
    for (const auto& example : ts->examples()) {
      rulelink::core::Item item;
      item.iri = example.external_iri;
      for (const auto& [property, value] : example.facts) {
        item.facts.push_back(rulelink::core::PropertyValue{
            ts->properties().name(property), value});
      }
      learner.AddExample(item, example.classes);
    }
    auto learned =
        learner.BuildRules(Fraction(args, "rule-threshold", 0.002));
    if (!learned.ok()) {
      std::cerr << "incremental learner: " << learned.status() << "\n";
      return 1;
    }
    std::cerr << "incremental learner: " << ts->size() << " links ("
              << skipped << " skipped) -> " << learned->size()
              << " rules\n";
    if (const std::string rules_out = Opt(args, "rules-out");
        !rules_out.empty()) {
      if (auto s =
              rulelink::core::WriteRulesToFile(*learned, *onto, rules_out);
          !s.ok()) {
        std::cerr << s << "\n";
        return 1;
      }
      std::cerr << "wrote rules to " << rules_out << "\n";
    }
    linking::ServePolicy policy;
    policy.threshold = threshold;
    policy.strategy = strategy;
    policy.rules = std::make_shared<const rulelink::core::RuleSet>(
        std::move(*learned));
    const std::uint64_t generation =
        engine.PublishDelta({}, blocker, &policy, metrics);
    std::cerr << "rule hot-swap: generation " << generation << " carries "
              << policy.rules->size() << " classification rules\n";
  }

  const std::size_t clients =
      std::max<std::size_t>(1, Count(args, "clients", 1));
  std::vector<std::vector<linking::Link>> answers(queries.size());
  // Per-query sums, so the same at any client count.
  std::size_t pairs_scored = 0;
  linking::FilterStats pruned;
  {
    const rulelink::obs::MetricsRegistry::StageScope stage(metrics,
                                                           "serve/queries");
    std::atomic<std::size_t> ticket{0};
    std::vector<std::size_t> client_pairs(clients, 0);
    std::vector<linking::FilterStats> client_pruned(clients);
    auto client = [&](std::size_t c) {
      linking::ServeEngine::Session session(&engine);
      std::size_t q;
      while ((q = ticket.fetch_add(1, std::memory_order_relaxed)) <
             queries.size()) {
        session.Query(queries[q], &answers[q], q);
      }
      client_pairs[c] = session.pairs_scored();
      client_pruned[c] = session.filter_stats();
    };
    if (clients == 1) {
      client(0);
    } else {
      std::vector<std::thread> workers;
      for (std::size_t c = 0; c < clients; ++c) {
        workers.emplace_back(client, c);
      }
      for (std::thread& worker : workers) worker.join();
    }
    for (std::size_t c = 0; c < clients; ++c) {
      pairs_scored += client_pairs[c];
      pruned.Add(client_pruned[c]);
    }
  }

  // Answers print in query order whatever the client count — sessions
  // only ever fill their own tickets' slots.
  std::size_t num_links = 0;
  for (std::size_t q = 0; q < queries.size(); ++q) {
    for (const linking::Link& link : answers[q]) {
      ++num_links;
      std::cout << queries[q].iri << "\t" << local_iris[link.local_index]
                << "\t" << rulelink::util::FormatDouble(link.score, 4)
                << "\n";
    }
  }
  const rulelink::util::EpochStats epochs = engine.epoch_stats();
  if (metrics != nullptr) {
    metrics->AddCounter("serve/queries", queries.size());
    metrics->AddCounter("serve/links", num_links);
    metrics->AddCounter("serve/pairs_scored", pairs_scored);
    metrics->AddCounter("serve/pairs_pruned", pruned.pairs_pruned);
    metrics->AddCounter("serve/pruned_by_jaro", pruned.by_jaro);
    metrics->AddCounter("serve/pruned_by_running_best",
                        pruned.by_running_best);
    metrics->AddCounter("serve/epoch_pins", epochs.pins);
    metrics->AddCounter("serve/epoch_pin_retries", epochs.pin_retries);
  }
  std::cerr << queries.size() << " queries -> " << num_links << " links ("
            << pairs_scored << " pairs scored, " << pruned.pairs_pruned
            << " pruned: " << pruned.by_jaro << " by the Jaro bound, "
            << pruned.by_running_best << " by the running best; " << clients
            << " client(s), "
            << "epoch pins " << epochs.pins << ", retries "
            << epochs.pin_retries << ", reader blocks "
            << epochs.reader_blocks << ")\n";
  return 0;
}

int RunQuery(const Args& args, rulelink::obs::MetricsRegistry* metrics) {
  rulelink::rdf::Graph data;
  if (auto s = LoadRdf(Opt(args, "data"), &data); !s.ok()) {
    std::cerr << "data: " << s << "\n";
    return 1;
  }
  const rulelink::obs::MetricsRegistry::StageScope stage(metrics,
                                                         "cli/query");
  auto rows = rulelink::rdf::RunSparql(data, Opt(args, "sparql"));
  if (!rows.ok()) {
    std::cerr << rows.status() << "\n";
    return 1;
  }
  if (metrics != nullptr) metrics->AddCounter("query/rows", rows->size());
  for (const auto& row : *rows) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (i) std::cout << "\t";
      std::cout << row[i];
    }
    std::cout << "\n";
  }
  std::cerr << rows->size() << " rows\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    PrintUsage();
    return 2;
  }
  if (!ParseNumericFlags(&args)) return 2;
  // Pinning must be decided before the first parallel region spawns pool
  // workers; it only affects where workers run, never what they compute.
  if (Opt(args, "pin-threads") == "true" ||
      [] {
        const char* env = std::getenv("RULELINK_PIN_THREADS");
        return env != nullptr && env[0] == '1' && env[1] == '\0';
      }()) {
    rulelink::util::SetThreadPinning(true);
  }
  // Instrumentation is armed only when a snapshot was requested; a null
  // registry keeps every command on the uninstrumented path.
  const std::string metrics_out = Opt(args, "metrics-out");
  rulelink::obs::MetricsRegistry registry;
  rulelink::obs::MetricsRegistry* metrics =
      metrics_out.empty() ? nullptr : &registry;

  int exit_code = 2;
  bool known = true;
  {
    const rulelink::obs::MetricsRegistry::StageScope stage(
        metrics, "cli/" + args.command);
    if (args.command == "learn") {
      exit_code = RunLearn(args, metrics);
    } else if (args.command == "classify") {
      exit_code = RunClassify(args, metrics);
    } else if (args.command == "evaluate") {
      exit_code = RunEvaluate(args, metrics);
    } else if (args.command == "query") {
      exit_code = RunQuery(args, metrics);
    } else if (args.command == "dedup") {
      exit_code = RunDedup(args, metrics);
    } else if (args.command == "serve") {
      exit_code = RunServe(args, metrics);
    } else {
      known = false;
    }
  }
  if (!known) {
    PrintUsage();
    return 2;
  }
  if (metrics != nullptr) {
    if (auto s = registry.Snapshot().WriteJsonFile(metrics_out); !s.ok()) {
      std::cerr << "metrics: " << s << "\n";
      if (exit_code == 0) exit_code = 1;
    } else {
      std::cerr << "wrote metrics snapshot to " << metrics_out << "\n";
    }
  }
  return exit_code;
}
