// Shared fixtures for the benchmark binaries: a lazily-generated default
// corpus (the paper-scale configuration) and smaller sweep configurations.
// Benchmarks print the paper-style tables on first use and then time the
// hot paths with google-benchmark.
#ifndef RULELINK_BENCH_BENCH_COMMON_H_
#define RULELINK_BENCH_BENCH_COMMON_H_

#include <cstddef>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/learner.h"
#include "core/training_set.h"
#include "datagen/generator.h"
#include "text/segmenter.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace rulelink::bench {

// Honours RULELINK_PIN_THREADS=1: pins pool workers to cores for the rest
// of the process (same semantics as the CLI's --pin-threads). Call before
// the first parallel region.
inline void ApplyPinningFromEnv() {
  const char* env = std::getenv("RULELINK_PIN_THREADS");
  if (env != nullptr && env[0] == '1' && env[1] == '\0') {
    util::SetThreadPinning(true);
  }
}

// One measured point of a thread-count sweep, with the scheduler-counter
// delta (loops, morsels, busy time) observed during the best-of run.
struct ThreadSweepPoint {
  std::size_t num_threads = 0;
  double millis = 0.0;
  util::SchedulerTotals scheduler;
};

// Records a thread-count speedup trajectory as BENCH_<name>.json in the
// working directory (git-ignored), so successive runs on different
// hardware can be compared: {"bench": ..., "hardware_concurrency": ...,
// "points": [{"threads": t, "ms": m, "speedup_vs_1": s,
// "scheduler": {...}}, ...]}. Points whose thread count exceeds the
// hardware get "oversubscribed": true so downstream tooling can drop them
// from scaling fits; the per-point "scheduler" object (loop/morsel counts
// from the process pool) makes scaling regressions diagnosable from the
// artifact alone.
// `extra_sections`, when non-empty, is spliced verbatim as additional
// top-level JSON members (e.g. "\"interning\": {...},\n").
inline void WriteThreadSweepJson(const std::string& bench_name,
                                 const std::string& workload,
                                 const std::vector<ThreadSweepPoint>& points,
                                 const std::string& extra_sections = "") {
  const std::string path = "BENCH_" + bench_name + ".json";
  std::ofstream out(path);
  if (!out) return;
  double serial_ms = 0.0;
  for (const ThreadSweepPoint& p : points) {
    if (p.num_threads == 1) serial_ms = p.millis;
  }
  out << "{\n  \"bench\": \"" << bench_name << "\",\n  \"workload\": \""
      << workload << "\",\n  \"hardware_concurrency\": "
      << std::thread::hardware_concurrency() << ",\n  \"pinned\": "
      << (util::GlobalSchedulerStats().pinned ? "true" : "false") << ",\n"
      << extra_sections << "  \"points\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const ThreadSweepPoint& p = points[i];
    out << "    {\"threads\": " << p.num_threads << ", \"ms\": "
        << util::FormatDouble(p.millis, 3);
    if (serial_ms > 0.0 && p.millis > 0.0) {
      out << ", \"speedup_vs_1\": "
          << util::FormatDouble(serial_ms / p.millis, 3);
    }
    if (p.num_threads > std::thread::hardware_concurrency()) {
      out << ", \"oversubscribed\": true";
    }
    out << ", \"scheduler\": {\"loops\": " << p.scheduler.loops
        << ", \"morsels\": " << p.scheduler.morsels
        << ", \"busy_micros\": " << p.scheduler.busy_micros << "}";
    out << "}" << (i + 1 < points.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

// The paper-scale corpus (30k catalog, 10 265 links, 566/226 ontology),
// generated once per process.
inline const datagen::Dataset& PaperDataset() {
  static const datagen::Dataset* dataset = [] {
    datagen::DatasetConfig config;
    auto result = datagen::DatasetGenerator(config).Generate();
    RL_CHECK(result.ok()) << result.status();
    return new datagen::Dataset(std::move(result).value());
  }();
  return *dataset;
}

inline const core::TrainingSet& PaperTrainingSet() {
  static const core::TrainingSet* ts =
      new core::TrainingSet(datagen::BuildTrainingSet(PaperDataset()));
  return *ts;
}

inline const text::SeparatorSegmenter& PaperSegmenter() {
  static const text::SeparatorSegmenter* segmenter =
      new text::SeparatorSegmenter();
  return *segmenter;
}

inline core::LearnerOptions PaperLearnerOptions() {
  core::LearnerOptions options;
  options.support_threshold = 0.002;
  options.segmenter = &PaperSegmenter();
  options.properties = {datagen::props::kPartNumber};
  return options;
}

// A scaled-down configuration for sweeps (size = number of links).
inline datagen::DatasetConfig ScaledConfig(std::size_t num_links,
                                           std::uint64_t seed = 42) {
  datagen::DatasetConfig config;
  config.seed = seed;
  config.num_links = num_links;
  config.catalog_size = num_links * 3;
  // Scale tier sizes proportionally to keep the same class structure.
  const double ratio =
      static_cast<double>(num_links) / 10265.0;
  config.signal_class_min_links = std::max(25.0, 200.0 * ratio);
  config.signal_class_max_links = std::max(50.0, 520.0 * ratio);
  config.frequent_class_min_links = std::max(4.0, 24.0 * ratio);
  config.frequent_class_max_links = std::max(8.0, 34.0 * ratio);
  config.tail_class_cap_links = std::max(2.0, 14.0 * ratio);
  return config;
}

}  // namespace rulelink::bench

#endif  // RULELINK_BENCH_BENCH_COMMON_H_
