// batch_rules: the paper's pipeline on the paper-calibrated corpus
// (datagen::DatasetGenerator defaults: 566/226-class ontology, 30 000
// catalog items, 10 265 expert links whose provider documents are the file
// to link). Set-up reads the corpus from N-Triples exactly as `rulelink
// learn` and `evaluate` do and learns the rules; each pass then links the
// provider file through RuleBlocker and StreamingLinker. This is the only
// workload where the RDF parser, the learner, the rule classifier and the
// filter cascade do real work, and where the serve layers do none.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "blocking/rule_blocker.h"
#include "core/classifier.h"
#include "core/learner.h"
#include "core/training_set.h"
#include "datagen/dataset.h"
#include "datagen/generator.h"
#include "eval/table1.h"
#include "linking/evaluation.h"
#include "linking/linker.h"
#include "linking/matcher.h"
#include "linking/query_scratch.h"
#include "linking/streaming_linker.h"
#include "ontology/instance_index.h"
#include "ontology/ontology.h"
#include "pass.h"
#include "rdf/graph.h"
#include "rdf/ntriples.h"
#include "support.h"
#include "text/segmenter.h"
#include "util/logging.h"
#include "util/rng.h"
#include "workloads.h"

namespace rulelink::perfbench {
namespace {

constexpr double kSupportThreshold = 0.002;
constexpr double kLinkThreshold = 0.6;
constexpr double kMinConfidence = 0.4;
// The first passes of a process run up to 2x slower than the median.
constexpr std::size_t kWarmupPasses = 3;
constexpr std::size_t kMinRounds = 6;
constexpr std::size_t kMaxRounds = 100;
constexpr std::size_t kOracleSample = 200;

// bench_linking's streaming matcher: a weighted Levenshtein rule the
// cascade bounds by length and a capped probe, the count- and id-bounded
// part-number rules, and a Monge-Elkan manufacturer rule with no cheap
// bound.
linking::ItemMatcher PassMatcher() {
  using linking::SimilarityMeasure;
  const std::string part = datagen::props::kPartNumber;
  const std::string maker = datagen::props::kManufacturer;
  return linking::ItemMatcher({
      {part, part, SimilarityMeasure::kLevenshtein, 3.0},
      {part, part, SimilarityMeasure::kDiceBigram, 1.5},
      {part, part, SimilarityMeasure::kExact, 1.0},
      {part, part, SimilarityMeasure::kJaccardTokens, 0.5},
      {maker, maker, SimilarityMeasure::kMongeElkan, 0.5},
  });
}

datagen::DatasetConfig CorpusConfig(bool smoke) {
  datagen::DatasetConfig config;  // the paper-calibrated defaults
  if (!smoke) return config;
  // The same class structure at 1 500 links.
  const double ratio = 1500.0 / static_cast<double>(config.num_links);
  config.num_links = 1500;
  config.catalog_size = 4500;
  config.signal_class_min_links =
      std::max(25.0, config.signal_class_min_links * ratio);
  config.signal_class_max_links =
      std::max(50.0, config.signal_class_max_links * ratio);
  config.frequent_class_min_links =
      std::max(4.0, config.frequent_class_min_links * ratio);
  config.frequent_class_max_links =
      std::max(8.0, config.frequent_class_max_links * ratio);
  config.tail_class_cap_links =
      std::max(2.0, config.tail_class_cap_links * ratio);
  return config;
}

// The corpus as the three N-Triples files `rulelink learn` reads. The seed
// permutes the provider file: every seed links the same documents against
// the same catalog, so the work and link_f1 do not move with it.
struct Corpus {
  std::string local_nt;
  std::string external_nt;
  std::string links_nt;

  std::size_t bytes() const {
    return local_nt.size() + external_nt.size() + links_nt.size();
  }
};

Corpus RenderCorpus(const Options& options) {
  auto generated =
      datagen::DatasetGenerator(CorpusConfig(options.smoke)).Generate();
  RL_CHECK(generated.ok()) << generated.status();
  datagen::Dataset dataset = std::move(generated).value();

  const std::size_t n = dataset.external_items.size();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  util::Rng(DeriveSeed(options.seed, 1)).Shuffle(&order);
  std::vector<core::Item> permuted(n);
  std::vector<std::size_t> position(n);
  for (std::size_t i = 0; i < n; ++i) {
    permuted[i] = std::move(dataset.external_items[order[i]]);
    position[order[i]] = i;
  }
  dataset.external_items = std::move(permuted);
  for (datagen::GoldLink& link : dataset.links) {
    link.external_index = position[link.external_index];
  }

  Corpus corpus;
  corpus.local_nt = rdf::WriteNTriples(datagen::BuildLocalGraph(dataset));
  corpus.external_nt =
      rdf::WriteNTriples(datagen::BuildExternalGraph(dataset));
  corpus.links_nt = rdf::WriteNTriples(datagen::BuildLinksGraph(dataset));
  return corpus;
}

// Everything set-up produces. Heap-allocated and never moved: the instance
// index, the training set and the classifier point into it.
struct Model {
  rdf::Graph local;
  rdf::Graph external;
  rdf::Graph links;
  std::optional<ontology::Ontology> onto;
  std::optional<ontology::InstanceIndex> instances;
  std::optional<core::TrainingSet> training;
  std::optional<core::RuleSet> rules;
  core::LearnStats learn_stats;
  eval::Table1Result table1;
  text::SeparatorSegmenter segmenter;
  // The linking inputs, read from the graphs.
  std::vector<core::Item> externals;  // provider documents, file order
  std::vector<core::Item> locals;     // typed catalog instances
  std::vector<ontology::ClassId> local_classes;
  std::vector<blocking::CandidatePair> gold;  // the expert links
};

// An item and its literal facts, as the CLI's ItemsFromGraph reads them.
core::Item ReadItem(const rdf::Graph& graph, rdf::TermId subject) {
  const rdf::TermDictionary& dict = graph.dict();
  core::Item item;
  item.iri = dict.term(subject).lexical();
  graph.ForEachMatch(
      rdf::TriplePattern{subject, rdf::kInvalidTermId, rdf::kInvalidTermId},
      [&](const rdf::Triple& triple) {
        const rdf::Term& object = dict.term(triple.object);
        if (object.is_literal()) {
          item.facts.push_back(core::PropertyValue{
              dict.term(triple.predicate).lexical(), object.lexical()});
        }
        return true;
      });
  return item;
}

void ReadLinkingInputs(Model* model) {
  for (const rdf::TermId subject : model->external.DistinctSubjects()) {
    core::Item item = ReadItem(model->external, subject);
    if (!item.facts.empty()) model->externals.push_back(std::move(item));
  }
  for (const rdf::TermId instance : model->instances->instances()) {
    model->locals.push_back(ReadItem(model->local, instance));
    const std::vector<ontology::ClassId>& classes =
        model->instances->ClassesOf(instance);
    model->local_classes.push_back(classes.empty() ? ontology::kInvalidClassId
                                                   : classes.front());
  }
  std::unordered_map<std::string, std::size_t> external_at;
  std::unordered_map<std::string, std::size_t> local_at;
  for (std::size_t i = 0; i < model->externals.size(); ++i) {
    external_at.emplace(model->externals[i].iri, i);
  }
  for (std::size_t i = 0; i < model->locals.size(); ++i) {
    local_at.emplace(model->locals[i].iri, i);
  }
  const rdf::TermDictionary& dict = model->links.dict();
  for (const rdf::Triple& triple : model->links.triples()) {
    const auto e = external_at.find(dict.term(triple.subject).lexical());
    const auto l = local_at.find(dict.term(triple.object).lexical());
    if (e != external_at.end() && l != local_at.end()) {
      model->gold.push_back(blocking::CandidatePair{e->second, l->second});
    }
  }
}

// parse -> ontology + instance index -> training set -> learn -> Table 1,
// then the linking inputs read from the graphs. Spans, when traced:
// batch.setup > rdf.parse, ontology.build, core.training_set, core.learn,
// eval.table1, rdf.extract.
std::unique_ptr<Model> SetUp(const Corpus& corpus, SpanRecorder* trace,
                             std::int64_t* elapsed_ns) {
  auto model = std::make_unique<Model>();
  const std::int64_t start = NowNs();
  {
    const ScopedSpan setup(trace, "batch.setup", 0);
    {
      const ScopedSpan span(trace, "rdf.parse", 0);
      RL_CHECK_OK(rdf::ParseNTriples(corpus.local_nt, &model->local));
      RL_CHECK_OK(rdf::ParseNTriples(corpus.external_nt, &model->external));
      RL_CHECK_OK(rdf::ParseNTriples(corpus.links_nt, &model->links));
    }
    {
      const ScopedSpan span(trace, "ontology.build", 0);
      auto onto = ontology::Ontology::FromGraph(model->local);
      RL_CHECK(onto.ok()) << onto.status();
      model->onto.emplace(std::move(onto).value());
      model->instances.emplace(
          ontology::InstanceIndex::Build(model->local, *model->onto));
    }
    {
      const ScopedSpan span(trace, "core.training_set", 0);
      auto training = core::TrainingSet::FromGraphs(
          model->external, model->links, *model->instances, nullptr);
      RL_CHECK(training.ok()) << training.status();
      model->training.emplace(std::move(training).value());
    }
    {
      const ScopedSpan span(trace, "core.learn", 0);
      core::LearnerOptions options;
      options.support_threshold = kSupportThreshold;
      options.segmenter = &model->segmenter;
      options.num_threads = kThreads;
      auto rules = core::RuleLearner(options).Learn(*model->training,
                                                    &model->learn_stats);
      RL_CHECK(rules.ok()) << rules.status();
      model->rules.emplace(std::move(rules).value());
    }
    {
      const ScopedSpan span(trace, "eval.table1", 0);
      model->table1 = eval::Table1Evaluator(&*model->rules, &model->segmenter,
                                            kSupportThreshold)
                          .Evaluate(*model->training, {1.0, 0.8, 0.6, 0.4},
                                    kThreads);
    }
    {
      const ScopedSpan span(trace, "rdf.extract", 0);
      ReadLinkingInputs(model.get());
    }
  }
  *elapsed_ns = NowNs() - start;
  return model;
}

std::size_t Decisions(const eval::Table1Result& table) {
  std::size_t decisions = 0;
  for (const eval::Table1Row& row : table.rows) decisions += row.decisions;
  return decisions;
}

// The rule-based linking configuration over a set-up's outputs. Never
// moved: the blocker points at the classifier, the linker at the matcher.
struct Linkers {
  explicit Linkers(const Model& model)
      : matcher(PassMatcher()),
        classifier(&*model.rules, &model.segmenter),
        blocker(&classifier, &*model.onto, &model.local_classes,
                kMinConfidence),
        linker(&matcher, kLinkThreshold) {}
  Linkers(const Linkers&) = delete;
  Linkers& operator=(const Linkers&) = delete;

  linking::ItemMatcher matcher;
  core::RuleClassifier classifier;
  blocking::RuleBlocker blocker;
  linking::StreamingLinker linker;
};

std::vector<std::vector<linking::Link>> LinksByExternal(
    const std::vector<linking::Link>& links, std::size_t num_external) {
  std::vector<std::vector<linking::Link>> by_external(num_external);
  for (const linking::Link& link : links) {
    by_external[link.external_index].push_back(link);
  }
  return by_external;
}

// Links every provider document on its own through a pass's index and
// caches — the per-external core StreamingLinker::Run runs — with kClients
// closed-loop threads racing one ticket. Latencies are per document;
// every answer is checked against the pass's links.
struct DocumentReplay {
  std::vector<double> latency_us;  // by provider document
  std::int64_t wall_ns = 0;
  std::size_t mismatches = 0;
};

DocumentReplay ReplayDocuments(
    const PassState& state, const linking::StreamingLinker& linker,
    const std::vector<std::vector<linking::Link>>& expected) {
  const std::size_t n = state.index->num_external();
  std::atomic<std::size_t> ticket{0};
  DocumentReplay replay;
  replay.latency_us.assign(n, 0.0);
  std::vector<std::size_t> mismatches(kClients, 0);
  const auto client = [&](std::size_t c) {
    linking::QueryScratch scratch;
    linking::FilterStats filters;
    std::uint64_t kernels = 0;
    std::size_t pairs = 0;
    std::vector<linking::Link> answer;
    for (std::size_t e;
         (e = ticket.fetch_add(1, std::memory_order_relaxed)) < n;) {
      const std::int64_t begin = NowNs();
      state.index->CandidatesOf(e, &scratch.run);
      answer.clear();
      linker.QueryRun(state.external, e, state.local, &scratch, &filters,
                      &kernels, &pairs, &answer);
      replay.latency_us[e] = static_cast<double>(NowNs() - begin) / 1e3;
      if (!SameLinks(answer, expected[e])) ++mismatches[c];
    }
  };
  const std::int64_t start = NowNs();
  {
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < kClients; ++c) threads.emplace_back(client, c);
    for (std::thread& thread : threads) thread.join();
  }
  replay.wall_ns = NowNs() - start;
  for (const std::size_t m : mismatches) replay.mismatches += m;
  return replay;
}

// A seeded sample of provider documents linked by the string-path oracle
// Linker::Run over exactly the candidates the pass streamed.
void CheckOracle(const Model& model, const Linkers& linkers,
                 const PassState& state,
                 const std::vector<std::vector<linking::Link>>& expected,
                 std::uint64_t seed, Report* report) {
  const std::vector<std::size_t> sample =
      SampleIndices(seed, model.externals.size(), kOracleSample);
  std::vector<blocking::CandidatePair> pairs;
  std::vector<std::size_t> run;
  for (const std::size_t e : sample) {
    state.index->CandidatesOf(e, &run);
    for (const std::size_t l : run) pairs.push_back({e, l});
  }
  const linking::Linker oracle(&linkers.matcher, kLinkThreshold);
  const auto oracle_links = LinksByExternal(
      oracle.Run(model.externals, model.locals, pairs, nullptr, kThreads),
      model.externals.size());
  for (const std::size_t e : sample) {
    report->Check(SameLinks(oracle_links[e], expected[e]),
                  "provider document " + std::to_string(e) +
                      " links differently under the Linker::Run oracle");
  }
}

void NoteSamples(const std::string& name, const std::vector<double>& samples,
                 Report* report) {
  report->Note(name + " from " + std::to_string(samples.size()) +
               " samples");
}

}  // namespace

void RunBatchRules(const Options& options, Report* report) {
  const Corpus corpus = RenderCorpus(options);
  SpanRecorder recorder;
  SpanRecorder* const trace = options.trace ? &recorder : nullptr;

  // The set-up whose outputs every pass links with.
  std::int64_t elapsed_ns = 0;
  const std::unique_ptr<Model> model = SetUp(corpus, trace, &elapsed_ns);
  std::vector<double> setup_s = {static_cast<double>(elapsed_ns) / 1e9};
  const std::size_t rules = model->rules->size();
  const std::size_t decisions = Decisions(model->table1);
  report->Count(1);
  const Linkers linkers(*model);
  const PassInputs inputs{model->externals, model->locals, model->gold,
                          linkers.matcher,  linkers.blocker, linkers.linker};

  std::uint64_t id = 0;
  const Pass reference = RunPass(inputs, nullptr, id++);
  report->Count(1);
  for (std::size_t w = 1; w < (options.smoke ? 1 : kWarmupPasses); ++w) {
    const Pass pass = RunPass(inputs, nullptr, id++);
    report->Check(SamePass(pass, reference),
                  "warm-up pass " + std::to_string(w) + " differs");
  }
  const auto expected =
      LinksByExternal(reference.links, model->externals.size());
  std::unique_ptr<PassState> state = RunPass(inputs, nullptr, id++).state;
  if (trace == nullptr) {
    const DocumentReplay warm =
        ReplayDocuments(*state, linkers.linker, expected);
    report->Check(warm.mismatches == 0,
                  "per-document answers differ from the pass");
  }

  // Measured rounds until the run's time is spent, so that every metric
  // samples the whole run: a pass, then the provider documents linked one
  // by one on its state, and every other round a set-up from scratch. Each
  // timing is the best of the rounds (support.h): the fastest set-up, pass
  // and cache build, the replay with the most documents per second, and
  // each document's fastest answer under the percentiles. Traced, the pass
  // is followed by a traced one and the fetch loop on its state instead,
  // so trace.overhead compares neighbours.
  std::vector<double> pass_s, build_ms, traced_s, pool_busy_ms, pool_steals;
  std::vector<double> replay_qps;
  std::vector<std::vector<double>> round_latency_us;
  Fetch fetch;
  const std::int64_t rounds_end =
      NowNs() + static_cast<std::int64_t>(options.seconds * 0.8e9);
  const std::size_t min_rounds = options.smoke ? 2 : kMinRounds;
  for (std::size_t round = 0;
       round < kMaxRounds && (round < min_rounds || NowNs() < rounds_end);
       ++round) {
    state.reset();
    Pass pass = RunPass(inputs, nullptr, id++);
    report->Check(SamePass(pass, reference),
                  "pass " + std::to_string(id - 1) + " differs from the first");
    pass_s.push_back(static_cast<double>(pass.total_ns) / 1e9);
    build_ms.push_back(static_cast<double>(pass.build_ns) / 1e6);
    state = std::move(pass.state);
    if (trace == nullptr) {
      const DocumentReplay replay =
          ReplayDocuments(*state, linkers.linker, expected);
      report->Check(replay.mismatches == 0,
                    "per-document answers differ from the pass");
      report->Count(replay.latency_us.size());
      replay_qps.push_back(static_cast<double>(replay.latency_us.size()) /
                           (static_cast<double>(replay.wall_ns) / 1e9));
      round_latency_us.push_back(std::move(replay.latency_us));
    } else {
      state.reset();
      Pass traced = RunPass(inputs, trace, id++);
      report->Check(SamePass(traced, reference),
                    "traced pass " + std::to_string(id - 1) + " differs");
      traced_s.push_back(static_cast<double>(traced.total_ns) / 1e9);
      pool_busy_ms.push_back(static_cast<double>(traced.pool.busy_micros) /
                             1e3);
      pool_steals.push_back(static_cast<double>(traced.pool.steals));
      fetch = FetchAll(*traced.state, trace, id - 1);
      state = std::move(traced.state);
    }
    if (round % 2 == 1) {
      const std::unique_ptr<Model> again = SetUp(corpus, trace, &elapsed_ns);
      setup_s.push_back(static_cast<double>(elapsed_ns) / 1e9);
      report->Check(again->rules->size() == rules &&
                        Decisions(again->table1) == decisions,
                    "a set-up learned a different rule set");
    }
  }

  CheckOracle(*model, linkers, *state, expected, DeriveSeed(options.seed, 2),
              report);
  report->Note("batch_rules: " + std::to_string(model->externals.size()) +
               " provider documents x " + std::to_string(model->locals.size()) +
               " catalog items, " + std::to_string(rules) + " rules, " +
               std::to_string(reference.links.size()) + " links, " +
               std::to_string(pass_s.size()) + " measured rounds, " +
               std::to_string(setup_s.size()) + " set-ups");

  if (trace == nullptr) {
    const std::vector<double> latency_us =
        FastestPerPosition(round_latency_us);
    const auto p50 = Quantile(latency_us, 0.5, 1000);
    const auto p99 = Quantile(latency_us, 0.99, 1000);
    report->Check(p50.has_value() && p99.has_value(),
                  "fewer than 1000 per-document latencies");
    report->Note("query_p50_us and query_p99_us from " +
                 std::to_string(latency_us.size()) +
                 " samples, each document's fastest of " +
                 std::to_string(round_latency_us.size()) + " replays");
    report->SetMetrics(
        false,
        {{"setup_s", Fastest(setup_s)},
         {"batch_s", Fastest(pass_s)},
         {"qps", *std::max_element(replay_qps.begin(), replay_qps.end())},
         {"query_p50_us", p50.value_or(0.0)},
         {"query_p99_us", p99.value_or(0.0)},
         {"publish_ms", Fastest(build_ms)},
         {"peak_rss_mb", PeakRssMb()},
         {"link_f1", reference.quality.f1}});
    return;
  }

  TraceSummary summary;
  Accumulate(recorder.spans(), {"batch.pass"}, &summary);
  const auto ms = [&](const char* layer) {
    return summary.MedianSelfNs(layer) / 1e6;
  };
  const linking::LinkerStats& stats = reference.stats;
  const double candidates = static_cast<double>(stats.pairs_scored +
                                                stats.pairs_pruned_by_filter);
  const auto run_p99 = Quantile(fetch.run_lengths, 0.99, 1000);
  report->Check(run_p99.has_value(), "fewer than 1000 candidate runs");
  NoteSamples("blocking.run_p99", fetch.run_lengths, report);
  report->Check(WriteSpans(options.trace_out, {&recorder}),
                "could not write the spans to " + options.trace_out);
  report->SetMetrics(
      true,
      {{"rdf.parse_ms", ms("rdf.parse")},
       {"rdf.parse_mb_per_s",
        static_cast<double>(corpus.bytes()) / 1e6 / (ms("rdf.parse") / 1e3)},
       {"ontology.build_ms", ms("ontology.build")},
       {"core.training_set_ms", ms("core.training_set")},
       {"core.learn_ms", ms("core.learn")},
       {"core.rules", static_cast<double>(rules)},
       {"core.distinct_segments",
        static_cast<double>(model->learn_stats.distinct_segments)},
       {"eval.table1_ms", ms("eval.table1")},
       {"linking.featurize_ms", ms("linking.featurize")},
       {"linking.dict_values", static_cast<double>(state->dict.num_values())},
       {"blocking.build_index_ms", ms("blocking.build_index")},
       {"blocking.fetch_ms", ms("blocking.fetch")},
       {"blocking.candidates", fetch.candidates},
       {"blocking.unclassified", fetch.empty_runs},
       {"blocking.run_mean",
        fetch.candidates / static_cast<double>(fetch.run_lengths.size())},
       {"blocking.run_p99", run_p99.value_or(0.0)},
       {"linking.stream_ms", ms("linking.stream")},
       {"linking.pairs_scored", static_cast<double>(stats.pairs_scored)},
       {"linking.pairs_pruned",
        static_cast<double>(stats.pairs_pruned_by_filter)},
       {"linking.prune_ratio",
        static_cast<double>(stats.pairs_pruned_by_filter) / candidates},
       {"linking.pruned_by_length",
        static_cast<double>(stats.pruned_by_length)},
       {"linking.pruned_by_token_count",
        static_cast<double>(stats.pruned_by_token_count)},
       {"linking.pruned_by_exact", static_cast<double>(stats.pruned_by_exact)},
       {"linking.pruned_by_distance_cap",
        static_cast<double>(stats.pruned_by_distance_cap)},
       {"linking.kernels", static_cast<double>(stats.comparisons)},
       {"linking.memo_hit_rate", reference.memo.hit_rate()},
       {"linking.evaluate_ms", ms("linking.evaluate")},
       {"linking.feature_bytes", static_cast<double>(state->feature_bytes())},
       {"util.pool_busy_ms", Median(pool_busy_ms)},
       {"util.pool_steals", Median(pool_steals)},
       {"trace.coverage", summary.coverage()},
       {"trace.overhead", Median(traced_s) / Median(pass_s) - 1.0}});
}

}  // namespace rulelink::perfbench
