// serve_read and serve_ingest: the `rulelink serve` configuration — one
// Jaro-Winkler rule on the part number, a StandardBlocker on a 5-character
// key, threshold 0.75, best-per-external — over a 100 000-item
// datagen::GenerateWorkloadCatalog catalog, replayed by kClients
// closed-loop sessions racing one ticket over a Zipfian (theta 0.99), dirty
// (typo 0.08, truncate 0.05) query stream. The snapshot is far larger than
// the CPU caches and every cascade plan is optimistic under this matcher,
// so candidate fetch and Jaro-Winkler scoring dominate.
//
// serve_ingest adds one writer that publishes a small delta after every
// fixed number of answered queries: 1% appends from the catalog's
// held-back tail, generated with temporal drift so new part series arrive,
// and 0.5% seeded retirements. Nothing compacts, so the dictionary overlay
// chain, the layered item index and the tombstones grow under the readers.
#include <algorithm>
#include <atomic>
#include <barrier>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <shared_mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "blocking/standard_blocking.h"
#include "datagen/config.h"
#include "datagen/key_chooser.h"
#include "datagen/workload.h"
#include "linking/evaluation.h"
#include "linking/feature_cache.h"
#include "linking/filters.h"
#include "linking/linker.h"
#include "linking/matcher.h"
#include "linking/query_scratch.h"
#include "linking/serve_engine.h"
#include "linking/streaming_linker.h"
#include "pass.h"
#include "support.h"
#include "util/epoch.h"
#include "util/logging.h"
#include "util/rng.h"
#include "workloads.h"

namespace rulelink::perfbench {
namespace {

constexpr double kThreshold = 0.75;
constexpr std::size_t kKeyPrefix = 5;
constexpr std::size_t kDeltas = 20;
constexpr std::size_t kMinRounds = 3;

linking::ItemMatcher ServeMatcher() {
  const std::string part = datagen::props::kPartNumber;
  return linking::ItemMatcher(
      {{part, part, linking::SimilarityMeasure::kJaroWinkler, 1.0}});
}

std::unique_ptr<linking::ServeSnapshot> BuildSnapshot(
    std::vector<core::Item> catalog, const blocking::StandardBlocker& blocker) {
  return std::make_unique<linking::ServeSnapshot>(
      std::move(catalog), ServeMatcher(), kThreshold,
      linking::Linker::Strategy::kBestPerExternal, blocker, kThreads);
}

// One round replays a fixed number of queries, not a deadline: serve_ingest
// then publishes the same deltas at the same points of the stream in every
// round of every run.
struct Sizes {
  std::size_t base = 100000;
  std::size_t appends = 1000;  // 1% of the base per delta
  std::size_t retires = 500;   // 0.5%
  std::size_t warmup = 1000;   // queries answered before measuring
  std::size_t measured = 5000;
  std::size_t reference = 2000;  // queries the batch reference links
  std::size_t check = 500;       // queries the from-scratch check replays
  std::size_t probe = 500;       // the fixed probe set
};

Sizes SizesFor(const Options& options) {
  Sizes sizes;
  if (options.smoke) {
    sizes.base = 5000;
    sizes.appends = 50;
    sizes.retires = 25;
    sizes.warmup = 200;
    sizes.measured = 1200;  // a p99 needs at least 1 000 samples
    sizes.reference = 400;
    sizes.check = 200;
    sizes.probe = 100;
  }
  return sizes;
}

struct ServeData {
  std::vector<core::Item> base;     // the served catalog
  std::vector<core::Item> tail;     // held back for the deltas
  std::vector<core::Item> queries;  // in replay order
  std::vector<blocking::CandidatePair> gold;  // (replay position, catalog)
  std::vector<std::uint8_t> retirable;  // by global index: no query's gold
  std::vector<std::size_t> reference;   // positions the batch path links
  std::vector<std::size_t> check;       // positions the final check replays
  std::vector<std::size_t> probe;       // the fixed probe set
};

// The catalog, the query stream, the sampled query sets and the
// retirements are fixed; the run's seed orders the replay. Every seed then
// does the same work, and serve_read's link_f1 does not move with it.
constexpr std::uint64_t kSampleSeed = 42;

ServeData Generate(const Options& options, const Sizes& sizes) {
  const std::size_t tail = kDeltas * sizes.appends;
  datagen::WorkloadConfig config;
  config.catalog_size = sizes.base + tail;
  // The held-back tail is the catalog's last epoch, whose new part series
  // the earlier epochs never saw.
  config.num_epochs = config.catalog_size / tail;
  config.drift_leaf_fraction = 0.2;
  auto generated = datagen::GenerateWorkloadCatalog(config, kThreads);
  RL_CHECK(generated.ok()) << generated.status();
  datagen::WorkloadCatalog catalog = std::move(generated).value();

  ServeData data;
  const auto split =
      catalog.items.begin() + static_cast<std::ptrdiff_t>(sizes.base);
  data.tail.assign(std::make_move_iterator(split),
                   std::make_move_iterator(catalog.items.end()));
  catalog.items.resize(sizes.base);
  catalog.classes.resize(sizes.base);
  catalog.epochs.resize(sizes.base);
  catalog.separators.resize(sizes.base);

  datagen::QueryStreamConfig query_config;
  query_config.num_queries = sizes.warmup + sizes.measured;
  query_config.chooser.distribution = datagen::Distribution::kZipfian;
  query_config.typo_prob = 0.08;
  query_config.truncate_prob = 0.05;
  auto stream_result =
      datagen::GenerateQueryStream(catalog, query_config, kThreads);
  RL_CHECK(stream_result.ok()) << stream_result.status();
  datagen::QueryStream stream = std::move(stream_result).value();

  const std::size_t total = stream.queries.size();
  std::vector<std::size_t> order(total);
  std::iota(order.begin(), order.end(), std::size_t{0});
  util::Rng(DeriveSeed(options.seed, 1)).Shuffle(&order);
  std::vector<std::size_t> position(total);
  data.queries.resize(total);
  data.gold.resize(total);
  for (std::size_t i = 0; i < total; ++i) {
    data.queries[i] = std::move(stream.queries[order[i]]);
    data.gold[i] = {i, stream.gold[order[i]].catalog_index};
    position[order[i]] = i;
  }
  data.base = std::move(catalog.items);
  data.retirable.assign(sizes.base + tail, 1);
  for (const blocking::CandidatePair& gold : data.gold) {
    data.retirable[gold.local_index] = 0;
  }
  // The same queries in every run, wherever the seed puts them.
  const auto sample = [&](std::uint64_t purpose, std::size_t k) {
    std::vector<std::size_t> positions;
    for (const std::size_t j :
         SampleIndices(DeriveSeed(kSampleSeed, purpose), total, k)) {
      positions.push_back(position[j]);
    }
    std::sort(positions.begin(), positions.end());
    return positions;
  };
  data.reference = sample(2, sizes.reference);
  data.check = sample(3, sizes.check);
  data.probe = sample(4, sizes.probe);
  return data;
}

DeltaPlanConfig PlanConfig(const Sizes& sizes) {
  DeltaPlanConfig config;
  config.seed = DeriveSeed(kSampleSeed, 5);
  config.base_items = sizes.base;
  config.appends_per_delta = sizes.appends;
  config.retires_per_delta = sizes.retires;
  config.num_deltas = kDeltas;
  // Evenly through the measured replay, leaving one interval of queries
  // after the last delta at the final depth.
  config.every = (sizes.measured + kDeltas) / (kDeltas + 1);
  config.first_at = sizes.warmup + config.every;
  return config;
}

std::vector<linking::CatalogDelta> MakeDeltas(
    const std::vector<DeltaStep>& plan, const ServeData& data) {
  std::vector<linking::CatalogDelta> deltas(plan.size());
  for (std::size_t k = 0; k < plan.size(); ++k) {
    deltas[k].appended.assign(
        data.tail.begin() + static_cast<std::ptrdiff_t>(plan[k].append_begin),
        data.tail.begin() + static_cast<std::ptrdiff_t>(plan[k].append_end));
    deltas[k].retired = plan[k].retired;
  }
  return deltas;
}

// A full publish of the base catalog into a fresh engine: the set-up.
struct Published {
  std::unique_ptr<linking::ServeEngine> engine;
  const linking::ServeSnapshot* snapshot = nullptr;  // the depth-0 generation
  std::int64_t build_ns = 0;
  std::int64_t install_ns = 0;
};

Published PublishBase(const ServeData& data,
                      const blocking::StandardBlocker& blocker,
                      SpanRecorder* trace) {
  std::vector<core::Item> catalog = data.base;
  Published published;
  published.engine = std::make_unique<linking::ServeEngine>();
  const ScopedSpan setup(trace, "serve.setup", 0);
  const std::int64_t start = NowNs();
  std::unique_ptr<linking::ServeSnapshot> snapshot;
  {
    const ScopedSpan span(trace, "serve.snapshot_build", 0);
    snapshot = BuildSnapshot(std::move(catalog), blocker);
  }
  const std::int64_t built = NowNs();
  published.snapshot = snapshot.get();
  {
    const ScopedSpan span(trace, "serve.install", 0);
    published.engine->Publish(std::move(snapshot));
  }
  published.install_ns = NowNs() - built;
  published.build_ns = built - start;
  return published;
}

// Publishes deltas. Untraced, through ServeEngine::PublishDelta. Traced,
// as the ServeSnapshot::BuildDelta and ServeEngine::Publish it consists
// of, each in a span, holding `lock` exclusively around the install so no
// unpinned replica is inside a snapshot the install retires.
class Writer {
 public:
  Writer(linking::ServeEngine* engine, const linking::ServeSnapshot* current,
         const blocking::StandardBlocker* blocker, SpanRecorder* trace,
         std::shared_mutex* lock)
      : engine_(engine),
        current_(current),
        blocker_(blocker),
        trace_(trace),
        lock_(lock) {}

  void Publish(linking::CatalogDelta delta, std::uint64_t k) {
    const std::int64_t start = NowNs();
    if (trace_ == nullptr) {
      engine_->PublishDelta(std::move(delta), *blocker_);
    } else {
      std::unique_ptr<linking::ServeSnapshot> next;
      {
        const ScopedSpan span(trace_, "serve.build_delta", k);
        next = linking::ServeSnapshot::BuildDelta(*current_, std::move(delta),
                                                  *blocker_);
      }
      const std::int64_t built = NowNs();
      const linking::ServeSnapshot* installed = next.get();
      {
        std::unique_lock<std::shared_mutex> guard;
        if (lock_ != nullptr) guard = std::unique_lock(*lock_);
        const ScopedSpan span(trace_, "serve.install", k);
        engine_->Publish(std::move(next));
        current_ = installed;
      }
      build_ms.push_back(static_cast<double>(built - start) / 1e6);
      install_ms.push_back(static_cast<double>(NowNs() - built) / 1e6);
    }
    publish_ms.push_back(static_cast<double>(NowNs() - start) / 1e6);
    limbo_max = std::max(limbo_max, engine_->epoch_stats().limbo);
    ++published;
  }

  // The installed generation; kept up to date only when traced. Readers
  // take the lock while the writer may publish.
  const linking::ServeSnapshot* current() const { return current_; }

  std::vector<double> publish_ms;
  std::vector<double> build_ms;
  std::vector<double> install_ms;
  std::size_t limbo_max = 0;
  std::size_t published = 0;

 private:
  linking::ServeEngine* engine_;
  const linking::ServeSnapshot* current_;
  const blocking::StandardBlocker* blocker_;
  SpanRecorder* trace_;
  std::shared_mutex* lock_;
};

// Session::Query rebuilt from public calls on a published snapshot, with a
// span around each layer call. It takes no epoch pin: the caller keeps the
// snapshot published for the whole call.
class Replica {
 public:
  struct Counters {
    double queries = 0;
    double fetched = 0;     // candidates the index returned
    double candidates = 0;  // left after the tombstone filter
    double pairs_scored = 0;
    double kernels = 0;
    double pruned = 0;
    double memo_lookups = 0;
    double memo_hits = 0;

    Counters operator-(const Counters& o) const {
      return {queries - o.queries,           fetched - o.fetched,
              candidates - o.candidates,     pairs_scored - o.pairs_scored,
              kernels - o.kernels,           pruned - o.pruned,
              memo_lookups - o.memo_lookups, memo_hits - o.memo_hits};
    }
    Counters& operator+=(const Counters& o) {
      queries += o.queries;
      fetched += o.fetched;
      candidates += o.candidates;
      pairs_scored += o.pairs_scored;
      kernels += o.kernels;
      pruned += o.pruned;
      memo_lookups += o.memo_lookups;
      memo_hits += o.memo_hits;
      return *this;
    }
  };

  void Query(const linking::ServeSnapshot& snapshot, const core::Item& item,
             std::size_t position, std::vector<linking::Link>* answer,
             SpanRecorder* trace) {
    const ScopedSpan query(trace, "serve.query", position);
    if (snapshot.generation() != generation_) {
      // Ids renumber across generations: the overlay and the memo restart,
      // as in Session::Query.
      const ScopedSpan span(trace, "serve.rebase", position);
      memo_.Add(scratch_.memo.stats());
      generation_ = snapshot.generation();
      overlay_ = linking::FeatureDictionary(&snapshot.dict());
      scratch_.InvalidateMemo();
    }
    {
      const ScopedSpan span(trace, "serve.featurize", position);
      features_.AssignSingle(item, snapshot.matcher(),
                             linking::FeatureCache::Side::kExternal,
                             &overlay_);
    }
    {
      const ScopedSpan span(trace, "blocking.probe", position);
      snapshot.index().CandidatesOfItem(item, &key_, &scratch_.run);
    }
    const std::size_t fetched = scratch_.run.size();
    {
      const ScopedSpan span(trace, "serve.tombstone_filter", position);
      snapshot.FilterLiveCandidates(&scratch_.run);
    }
    staged_.clear();
    {
      const ScopedSpan span(trace, "linking.query_run", position);
      snapshot.linker().QueryRun(features_, 0, snapshot.local_features(),
                                 &scratch_, &filters_, &kernels_,
                                 &pairs_scored_, &staged_);
    }
    answer->clear();
    for (linking::Link link : staged_) {
      link.external_index = position;
      answer->push_back(link);
    }
    queries_ += 1;
    fetched_ += static_cast<double>(fetched);
    candidates_ += static_cast<double>(scratch_.run.size());
    if (trace != nullptr) run_lengths_.push_back(static_cast<double>(fetched));
  }

  Counters counters() const {
    const linking::ScoreMemoStats& live = scratch_.memo.stats();
    return {queries_,
            fetched_,
            candidates_,
            static_cast<double>(pairs_scored_),
            static_cast<double>(kernels_),
            static_cast<double>(filters_.pairs_pruned),
            static_cast<double>(memo_.lookups + live.lookups),
            static_cast<double>(memo_.hits + live.hits)};
  }
  // Candidate-run lengths of the traced queries.
  const std::vector<double>& run_lengths() const { return run_lengths_; }

 private:
  std::uint64_t generation_ = 0;
  linking::FeatureDictionary overlay_;
  linking::FeatureCache features_;
  linking::QueryScratch scratch_;
  std::string key_;
  std::vector<linking::Link> staged_;
  linking::FilterStats filters_;
  std::uint64_t kernels_ = 0;
  std::size_t pairs_scored_ = 0;
  double queries_ = 0;
  double fetched_ = 0;
  double candidates_ = 0;
  linking::ScoreMemoStats memo_;  // of memos already invalidated
  std::vector<double> run_lengths_;
};

// A client of the untraced replay: one ServeEngine::Session.
class SessionClient {
 public:
  SessionClient(linking::ServeEngine* engine, const ServeData* data)
      : session_(engine), data_(data) {}
  void Answer(std::size_t q, bool /*measured*/,
              std::vector<linking::Link>* answer) {
    session_.Query(data_->queries[q], answer, q);
  }

 private:
  linking::ServeEngine::Session session_;
  const ServeData* data_;
};

// A client of the traced replay: a Replica that reads the writer's current
// generation under the shared lock. Measured queries are traced.
class ReplicaClient {
 public:
  ReplicaClient(const ServeData* data, const Writer* writer,
                std::shared_mutex* lock)
      : data_(data), writer_(writer), lock_(lock) {}
  void Answer(std::size_t q, bool measured,
              std::vector<linking::Link>* answer) {
    if (measured && !measuring_) {
      measuring_ = true;
      warm_ = replica_.counters();
    }
    const std::shared_lock<std::shared_mutex> guard(*lock_);
    replica_.Query(*writer_->current(), data_->queries[q], q, answer,
                   measured ? &recorder_ : nullptr);
  }
  Replica::Counters measured() const { return replica_.counters() - warm_; }
  const std::vector<double>& run_lengths() const {
    return replica_.run_lengths();
  }
  const SpanRecorder& recorder() const { return recorder_; }

 private:
  const ServeData* data_;
  const Writer* writer_;
  std::shared_mutex* lock_;
  Replica replica_;
  SpanRecorder recorder_;
  bool measuring_ = false;
  Replica::Counters warm_;
};

struct Replay {
  std::vector<std::vector<linking::Link>> answers;  // by replay position
  std::vector<double> latency_us;  // by measured position (q - warm-up)
  std::int64_t measured_ns = 0;
};

// kClients threads replay the stream through their clients: the warm-up
// queries, then, released together, the measured ones. The calling thread
// is the writer: given `deltas`, it publishes delta k once the pacer says
// it is due.
template <typename Client>
Replay RunReplay(const ServeData& data, std::size_t warmup,
                 const DeltaPlanConfig& plan,
                 const std::vector<std::unique_ptr<Client>>& clients,
                 Writer* writer, std::vector<linking::CatalogDelta>* deltas) {
  const std::size_t total = data.queries.size();
  Replay replay;
  replay.answers.resize(total);
  replay.latency_us.assign(total - warmup, 0.0);
  DeltaPacer pacer(plan);
  std::atomic<std::size_t> warm_ticket{0};
  std::atomic<std::size_t> ticket{warmup};
  std::barrier<> start(static_cast<std::ptrdiff_t>(clients.size() + 1));
  std::vector<std::int64_t> finished(clients.size(), 0);
  const auto run = [&](std::size_t c) {
    Client& client = *clients[c];
    std::vector<linking::Link> answer;
    for (std::size_t q;
         (q = warm_ticket.fetch_add(1, std::memory_order_relaxed)) < warmup;) {
      client.Answer(q, false, &answer);
      replay.answers[q] = answer;
      pacer.Answered();
    }
    start.arrive_and_wait();
    for (std::size_t q;
         (q = ticket.fetch_add(1, std::memory_order_relaxed)) < total;) {
      const std::int64_t begin = NowNs();
      client.Answer(q, true, &answer);
      replay.latency_us[q - warmup] =
          static_cast<double>(NowNs() - begin) / 1e3;
      replay.answers[q] = answer;
      pacer.Answered();
    }
    finished[c] = NowNs();
  };
  std::vector<std::thread> threads;
  threads.reserve(clients.size());
  for (std::size_t c = 0; c < clients.size(); ++c) threads.emplace_back(run, c);
  start.arrive_and_wait();
  const std::int64_t begin = NowNs();
  if (deltas != nullptr) {
    for (std::size_t k = 0; k < deltas->size(); ++k) {
      pacer.WaitUntilDue(k);
      writer->Publish(std::move((*deltas)[k]), k);
    }
  }
  for (std::thread& thread : threads) thread.join();
  replay.measured_ns =
      *std::max_element(finished.begin(), finished.end()) - begin;
  return replay;
}

void CheckAnswers(const std::vector<std::vector<linking::Link>>& answers,
                  const std::vector<std::size_t>& positions,
                  const std::vector<std::vector<linking::Link>>& expected,
                  const std::string& what, Report* report) {
  for (const std::size_t q : positions) {
    report->Check(SameLinks(answers[q], expected[q]),
                  what + " differs from the batch path on query " +
                      std::to_string(q));
  }
}

// Replays the fixed probe set through a fresh replica on `snapshot` at a
// quiescent point, warm once and then timed, and checks every answer
// against Session::Query on the engine serving that snapshot. Returns the
// mean ns per probe.
double Probe(const linking::ServeSnapshot& snapshot,
             linking::ServeEngine* engine, const ServeData& data,
             const std::string& where, Report* report) {
  Replica replica;
  std::vector<linking::Link> answer;
  for (const std::size_t q : data.probe) {
    replica.Query(snapshot, data.queries[q], q, &answer, nullptr);
  }
  std::vector<std::vector<linking::Link>> answers(data.probe.size());
  for (std::vector<linking::Link>& a : answers) a.reserve(1);
  const std::int64_t start = NowNs();
  for (std::size_t j = 0; j < data.probe.size(); ++j) {
    const std::size_t q = data.probe[j];
    replica.Query(snapshot, data.queries[q], q, &answers[j], nullptr);
  }
  const double mean_ns = static_cast<double>(NowNs() - start) /
                         static_cast<double>(data.probe.size());
  linking::ServeEngine::Session session(engine);
  for (std::size_t j = 0; j < data.probe.size(); ++j) {
    const std::size_t q = data.probe[j];
    session.Query(data.queries[q], &answer, q);
    report->Check(SameLinks(answer, answers[j]),
                  "replica at " + where +
                      " differs from Session::Query on query " +
                      std::to_string(q));
  }
  return mean_ns;
}

// The final generation against a from-scratch snapshot of the same live
// items: retired items are left out, the chain's answers are remapped onto
// the compacted indices, and both must agree byte for byte.
void CheckFinal(linking::ServeEngine* engine, const ServeData& data,
                const std::vector<DeltaStep>& plan,
                const blocking::StandardBlocker& blocker, Report* report) {
  const std::size_t base = data.base.size();
  const std::size_t items = base + (plan.empty() ? 0 : plan.back().append_end);
  std::vector<std::uint8_t> live(items, 1);
  for (const DeltaStep& step : plan) {
    for (const std::size_t index : step.retired) live[index] = 0;
  }
  std::vector<std::size_t> remap(items, items);
  std::vector<core::Item> catalog;
  for (std::size_t i = 0; i < items; ++i) {
    if (live[i] == 0) continue;
    remap[i] = catalog.size();
    catalog.push_back(i < base ? data.base[i] : data.tail[i - base]);
  }
  linking::ServeEngine scratch;
  scratch.Publish(BuildSnapshot(std::move(catalog), blocker));
  linking::ServeEngine::Session chained(engine);
  linking::ServeEngine::Session fresh(&scratch);
  std::vector<linking::Link> chained_answer;
  std::vector<linking::Link> fresh_answer;
  for (const std::size_t q : data.check) {
    chained.Query(data.queries[q], &chained_answer, q);
    fresh.Query(data.queries[q], &fresh_answer, q);
    for (linking::Link& link : chained_answer) {
      link.local_index = remap[link.local_index];
    }
    report->Check(SameLinks(chained_answer, fresh_answer),
                  "final generation differs from a from-scratch snapshot "
                  "on query " +
                      std::to_string(q));
  }
}

// After every session ended: no reader ever waited, and every retired
// snapshot was reclaimed.
util::EpochStats CheckEpochs(linking::ServeEngine* engine, Report* report) {
  engine->ReclaimRetired();
  const util::EpochStats epochs = engine->epoch_stats();
  report->Check(epochs.reader_blocks == 0, "a reader blocked on the writer");
  report->Check(epochs.retired == epochs.reclaimed && epochs.limbo == 0,
                "retired snapshots were left unreclaimed");
  return epochs;
}

double LinkF1(const Replay& replay, const ServeData& data) {
  std::vector<linking::Link> links;
  for (const std::vector<linking::Link>& answer : replay.answers) {
    links.insert(links.end(), answer.begin(), answer.end());
  }
  return linking::EvaluateLinks(links, data.gold).f1;
}

std::size_t DictionaryChainBytes(const linking::FeatureDictionary& dict) {
  std::size_t bytes = 0;
  for (const linking::FeatureDictionary* level = &dict; level != nullptr;
       level = level->base()) {
    bytes += level->memory_bytes();
  }
  return bytes;
}

}  // namespace

void RunServe(const Options& options, bool ingest, Report* report) {
  const Sizes sizes = SizesFor(options);
  const ServeData data = Generate(options, sizes);
  const std::size_t total = data.queries.size();
  const double measured = static_cast<double>(total - sizes.warmup);
  const DeltaPlanConfig plan_config = PlanConfig(sizes);
  const std::vector<DeltaStep> plan = PlanDeltas(plan_config, data.retirable);
  const blocking::StandardBlocker blocker(datagen::props::kPartNumber,
                                          kKeyPrefix);
  SpanRecorder recorder;
  SpanRecorder* const trace = options.trace ? &recorder : nullptr;

  // The batch path over a sample of the stream: batch_s, and the answers
  // the served ones must reproduce byte for byte.
  std::vector<core::Item> sample_items;
  std::vector<blocking::CandidatePair> sample_gold;
  for (std::size_t j = 0; j < data.reference.size(); ++j) {
    sample_items.push_back(data.queries[data.reference[j]]);
    sample_gold.push_back({j, data.gold[data.reference[j]].local_index});
  }
  const linking::ItemMatcher matcher = ServeMatcher();
  const linking::StreamingLinker linker(&matcher, kThreshold);
  const PassInputs inputs{sample_items, data.base, sample_gold,
                          matcher,      blocker,   linker};
  const Pass reference = RunPass(inputs, nullptr, 0);
  report->Count(1);
  std::vector<std::vector<linking::Link>> expected(total);
  for (linking::Link link : reference.links) {
    link.external_index = data.reference[link.external_index];
    expected[link.external_index].push_back(link);
  }

  // Depth 0: a session answers part of the sample as the batch path does.
  Published served = PublishBase(data, blocker, nullptr);
  {
    linking::ServeEngine::Session session(served.engine.get());
    std::vector<std::vector<linking::Link>> answers(total);
    const std::vector<std::size_t> positions(
        data.reference.begin(),
        data.reference.begin() +
            static_cast<std::ptrdiff_t>(
                std::min(sizes.check, data.reference.size())));
    for (const std::size_t q : positions) {
      session.Query(data.queries[q], &answers[q], q);
    }
    CheckAnswers(answers, positions, expected, "depth-0 session", report);
  }

  // Rounds until 80% of the run's time is spent, so that every metric
  // samples the whole run. Each round sets up from scratch (snapshot build
  // and publish; this engine serves), runs a batch pass, then replays the
  // stream untraced with fresh sessions: every round does the same work.
  // serve_read publishes the round's deltas after its replay, with no
  // reader running. Each timing is the best of the rounds (support.h): the
  // fastest set-up and pass, the round with the most queries per second,
  // each query's fastest answer under the percentiles and each delta's
  // fastest publish under the median over deltas. A traced run plays one
  // round: the baseline for trace.overhead and the epoch counters.
  std::vector<double> setup_s, snapshot_build_ms, setup_install_ms;
  std::vector<double> batch_s, pool_busy_ms, pool_steals, round_qps;
  std::vector<std::vector<double>> round_latency_us, round_publish_ms;
  std::unique_ptr<PassState> reference_state;
  double link_f1 = 0.0;
  util::EpochStats replay_epochs;
  std::size_t replay_limbo_max = 0;
  const std::int64_t rounds_end =
      NowNs() + static_cast<std::int64_t>(options.seconds * 0.8e9);
  for (std::size_t round = 0;
       round < (trace != nullptr ? 1 : kMinRounds) ||
       (trace == nullptr && NowNs() < rounds_end);
       ++round) {
    served = Published();  // the previous engine goes before the next build
    served = PublishBase(data, blocker, trace);
    setup_s.push_back(
        static_cast<double>(served.build_ns + served.install_ns) / 1e9);
    snapshot_build_ms.push_back(static_cast<double>(served.build_ns) / 1e6);
    setup_install_ms.push_back(static_cast<double>(served.install_ns) / 1e6);
    report->Count(1);
    reference_state.reset();
    Pass pass = RunPass(inputs, trace, round + 1);
    report->Check(SamePass(pass, reference),
                  "a batch pass differs from the first");
    batch_s.push_back(static_cast<double>(pass.total_ns) / 1e9);
    pool_busy_ms.push_back(static_cast<double>(pass.pool.busy_micros) / 1e3);
    pool_steals.push_back(static_cast<double>(pass.pool.steals));
    reference_state = std::move(pass.state);

    std::vector<linking::CatalogDelta> deltas = MakeDeltas(plan, data);
    Writer writer(served.engine.get(), served.snapshot, &blocker, nullptr,
                  nullptr);
    Replay replay;
    {
      std::vector<std::unique_ptr<SessionClient>> sessions;
      for (std::size_t c = 0; c < kClients; ++c) {
        sessions.push_back(
            std::make_unique<SessionClient>(served.engine.get(), &data));
      }
      replay = RunReplay(data, sizes.warmup, plan_config, sessions, &writer,
                         ingest ? &deltas : nullptr);
    }
    report->Count(total);
    if (!ingest) {
      CheckAnswers(replay.answers, data.reference, expected, "served answer",
                   report);
      for (std::size_t k = 0; k < deltas.size(); ++k) {
        writer.Publish(std::move(deltas[k]), k);
      }
    }
    report->Check(writer.published == kDeltas, "not every delta published");
    if (round == 0) {
      CheckFinal(served.engine.get(), data, plan, blocker, report);
      link_f1 = LinkF1(replay, data);
    }
    replay_epochs = CheckEpochs(served.engine.get(), report);
    replay_limbo_max = std::max(replay_limbo_max, writer.limbo_max);
    round_qps.push_back(measured /
                        (static_cast<double>(replay.measured_ns) / 1e9));
    round_latency_us.push_back(std::move(replay.latency_us));
    round_publish_ms.push_back(writer.publish_ms);
  }
  const double qps = *std::max_element(round_qps.begin(), round_qps.end());
  report->Note(std::string(ingest ? "serve_ingest" : "serve_read") + ": " +
               std::to_string(data.base.size()) + " catalog items, " +
               std::to_string(round_qps.size()) + " rounds of " +
               std::to_string(total) + " queries (" +
               std::to_string(sizes.warmup) + " warm-up) and " +
               std::to_string(kDeltas) + " deltas of " +
               std::to_string(sizes.appends) + " appends and " +
               std::to_string(sizes.retires) + " retirements " +
               (ingest ? "during the replay" : "after the replay"));

  if (trace == nullptr) {
    const std::vector<double> latency_us =
        FastestPerPosition(round_latency_us);
    const auto p50 = Quantile(latency_us, 0.5, 1000);
    const auto p99 = Quantile(latency_us, 0.99, 1000);
    report->Check(p50.has_value() && p99.has_value(),
                  "fewer than 1000 query latencies");
    report->Note("query_p50_us and query_p99_us from " +
                 std::to_string(latency_us.size()) +
                 " samples, each query's fastest of " +
                 std::to_string(round_latency_us.size()) + " rounds");
    report->SetMetrics(
        false, {{"setup_s", Fastest(setup_s)},
                {"batch_s", Fastest(batch_s)},
                {"qps", qps},
                {"query_p50_us", p50.value_or(0.0)},
                {"query_p99_us", p99.value_or(0.0)},
                {"publish_ms", Median(FastestPerPosition(round_publish_ms))},
                {"peak_rss_mb", PeakRssMb()},
                {"link_f1", link_f1}});
    return;
  }

  // Traced: per-layer numbers from replicas of Session::Query on a fresh
  // depth-0 engine.
  const Fetch fetch = FetchAll(*reference_state, trace, 0);
  served = Published();
  served = PublishBase(data, blocker, nullptr);
  const double probe_depth0_ns =
      Probe(*served.snapshot, served.engine.get(), data, "depth 0", report);
  SpanRecorder writer_recorder;
  std::shared_mutex lock;
  Writer traced_writer(served.engine.get(), served.snapshot, &blocker,
                       &writer_recorder, &lock);
  std::vector<linking::CatalogDelta> deltas = MakeDeltas(plan, data);
  std::vector<std::unique_ptr<ReplicaClient>> replicas;
  for (std::size_t c = 0; c < kClients; ++c) {
    replicas.push_back(
        std::make_unique<ReplicaClient>(&data, &traced_writer, &lock));
  }
  const Replay traced = RunReplay(data, sizes.warmup, plan_config, replicas,
                                  &traced_writer, ingest ? &deltas : nullptr);
  report->Count(total);
  if (!ingest) {
    CheckAnswers(traced.answers, data.reference, expected, "replica answer",
                 report);
    for (std::size_t k = 0; k < deltas.size(); ++k) {
      traced_writer.Publish(std::move(deltas[k]), k);
    }
  }
  report->Check(traced_writer.published == kDeltas,
                "not every delta published");
  const linking::ServeSnapshot& final_snapshot = *traced_writer.current();
  const double probe_final_ns = Probe(final_snapshot, served.engine.get(),
                                      data, "the final depth", report);
  CheckFinal(served.engine.get(), data, plan, blocker, report);

  TraceSummary summary;
  std::vector<const SpanRecorder*> recorders = {&recorder, &writer_recorder};
  Replica::Counters counters;
  std::vector<double> run_lengths;
  for (const std::unique_ptr<ReplicaClient>& replica : replicas) {
    recorders.push_back(&replica->recorder());
    counters += replica->measured();
    run_lengths.insert(run_lengths.end(), replica->run_lengths().begin(),
                       replica->run_lengths().end());
  }
  for (const SpanRecorder* r : recorders) {
    Accumulate(r->spans(), {"serve.query", "batch.pass"}, &summary);
  }
  report->Check(WriteSpans(options.trace_out, recorders),
                "could not write the spans to " + options.trace_out);
  const auto run_p99 = Quantile(run_lengths, 0.99, 1000);
  report->Check(run_p99.has_value(), "fewer than 1000 candidate runs");
  report->Note("blocking.run_p99 from " + std::to_string(run_lengths.size()) +
               " samples");
  const auto ms = [&](const char* layer) {
    return summary.MedianSelfNs(layer) / 1e6;
  };
  const auto ratio = [](double part, double whole) {
    return whole > 0.0 ? part / whole : 0.0;
  };
  const linking::LinkerStats& stats = reference.stats;
  const double traced_qps =
      measured / (static_cast<double>(traced.measured_ns) / 1e9);
  report->SetMetrics(
      true,
      {{"linking.featurize_ms", ms("linking.featurize")},
       {"linking.dict_values",
        static_cast<double>(reference_state->dict.num_values())},
       {"blocking.build_index_ms", ms("blocking.build_index")},
       {"blocking.fetch_ms", ms("blocking.fetch")},
       {"blocking.candidates", fetch.candidates},
       {"blocking.unclassified", fetch.empty_runs},
       {"blocking.run_mean", ratio(counters.fetched, counters.queries)},
       {"blocking.run_p99", run_p99.value_or(0.0)},
       {"linking.stream_ms", ms("linking.stream")},
       {"linking.pairs_scored", static_cast<double>(stats.pairs_scored)},
       {"linking.pairs_pruned",
        static_cast<double>(stats.pairs_pruned_by_filter)},
       {"linking.prune_ratio", ratio(counters.pruned, counters.candidates)},
       {"linking.pruned_by_length",
        static_cast<double>(stats.pruned_by_length)},
       {"linking.pruned_by_token_count",
        static_cast<double>(stats.pruned_by_token_count)},
       {"linking.pruned_by_exact", static_cast<double>(stats.pruned_by_exact)},
       {"linking.pruned_by_distance_cap",
        static_cast<double>(stats.pruned_by_distance_cap)},
       {"linking.kernels", static_cast<double>(stats.comparisons)},
       {"linking.memo_hit_rate",
        ratio(counters.memo_hits, counters.memo_lookups)},
       {"linking.evaluate_ms", ms("linking.evaluate")},
       {"linking.feature_bytes",
        static_cast<double>(final_snapshot.local_features().memory_bytes() +
                            DictionaryChainBytes(final_snapshot.dict()))},
       {"util.pool_busy_ms", Median(pool_busy_ms)},
       {"util.pool_steals", Median(pool_steals)},
       {"serve.snapshot_build_ms", Median(snapshot_build_ms)},
       {"serve.install_ms", ingest ? Median(traced_writer.install_ms)
                                   : Median(setup_install_ms)},
       {"serve.featurize_ns", summary.MeanSelfNs("serve.featurize")},
       {"blocking.probe_ns", summary.MeanSelfNs("blocking.probe")},
       {"serve.tombstone_filter_ns",
        summary.MeanSelfNs("serve.tombstone_filter")},
       {"linking.query_run_ns", summary.MeanSelfNs("linking.query_run")},
       {"serve.query_ns", summary.MeanTotalNs("serve.query")},
       {"linking.pairs_scored_per_query",
        ratio(counters.pairs_scored, counters.queries)},
       {"linking.kernels_per_query", ratio(counters.kernels, counters.queries)},
       {"serve.pin_retries", static_cast<double>(replay_epochs.pin_retries)},
       {"serve.reader_blocks",
        static_cast<double>(replay_epochs.reader_blocks)},
       {"serve.build_delta_ms", Median(traced_writer.build_ms)},
       {"serve.chain_depth", static_cast<double>(traced_writer.published)},
       {"serve.retired_fraction",
        ratio(static_cast<double>(final_snapshot.num_retired()),
              static_cast<double>(final_snapshot.num_items()))},
       {"serve.limbo_max",
        static_cast<double>(ingest ? replay_limbo_max
                                   : traced_writer.limbo_max)},
       {"serve.dict_symbols",
        static_cast<double>(final_snapshot.dict().num_symbols())},
       {"serve.tombstones_per_query",
        ratio(counters.fetched - counters.candidates, counters.queries)},
       {"serve.probe_ns_depth0", probe_depth0_ns},
       {"serve.probe_ns_final", probe_final_ns},
       {"trace.coverage", summary.coverage()},
       {"trace.overhead", qps / traced_qps - 1.0}});
  CheckEpochs(served.engine.get(), report);
}

}  // namespace rulelink::perfbench
