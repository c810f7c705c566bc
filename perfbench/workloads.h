// The benchmark's workloads. Each runs in its own process (main.cc), takes
// its seed as an argument and calls only the library's public API;
// README.md says what each one measures and why.
#ifndef RULELINK_PERFBENCH_WORKLOADS_H_
#define RULELINK_PERFBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace rulelink::perfbench {

// Program threads, fixed so that no run inherits them: every parallel phase
// runs on 2 execution contexts and the serve replay on 2 closed-loop
// clients, so with the serve_ingest writer at most 3 threads are busy on a
// 4-core host.
inline constexpr std::size_t kThreads = 2;
inline constexpr std::size_t kClients = 2;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;     // seconds-long sizes, for the benchmark's tests
  std::string trace_out;  // where a traced run writes its spans
};

// The metrics BENCHMARK.json declares, in its order; run.py checks that
// every result carries exactly these.
struct MetricSpec {
  const char* name;
  const char* unit;
};

inline constexpr MetricSpec kEndToEndMetrics[] = {
    {"setup_s", "s"},       {"batch_s", "s"},
    {"qps", "1/s"},         {"query_p50_us", "us"},
    {"query_p99_us", "us"}, {"publish_ms", "ms"},
    {"peak_rss_mb", "MiB"}, {"link_f1", "ratio"},
};

inline constexpr MetricSpec kPerLayerMetrics[] = {
    {"rdf.parse_ms", "ms"},
    {"rdf.parse_mb_per_s", "MB/s"},
    {"ontology.build_ms", "ms"},
    {"core.training_set_ms", "ms"},
    {"core.learn_ms", "ms"},
    {"core.rules", "count"},
    {"core.distinct_segments", "count"},
    {"eval.table1_ms", "ms"},
    {"linking.featurize_ms", "ms"},
    {"linking.dict_values", "count"},
    {"blocking.build_index_ms", "ms"},
    {"blocking.fetch_ms", "ms"},
    {"blocking.candidates", "count"},
    {"blocking.unclassified", "count"},
    {"blocking.run_mean", "count"},
    {"blocking.run_p99", "count"},
    {"linking.stream_ms", "ms"},
    {"linking.pairs_scored", "count"},
    {"linking.pairs_pruned", "count"},
    {"linking.prune_ratio", "ratio"},
    {"linking.pruned_by_length", "count"},
    {"linking.pruned_by_token_count", "count"},
    {"linking.pruned_by_exact", "count"},
    {"linking.pruned_by_distance_cap", "count"},
    {"linking.kernels", "count"},
    {"linking.memo_hit_rate", "ratio"},
    {"linking.evaluate_ms", "ms"},
    {"linking.feature_bytes", "bytes"},
    {"util.pool_busy_ms", "ms"},
    {"util.pool_steals", "count"},
    {"serve.snapshot_build_ms", "ms"},
    {"serve.install_ms", "ms"},
    {"serve.featurize_ns", "ns"},
    {"blocking.probe_ns", "ns"},
    {"serve.tombstone_filter_ns", "ns"},
    {"linking.query_run_ns", "ns"},
    {"serve.query_ns", "ns"},
    {"linking.pairs_scored_per_query", "count"},
    {"linking.kernels_per_query", "count"},
    {"serve.pin_retries", "count"},
    {"serve.reader_blocks", "count"},
    {"serve.build_delta_ms", "ms"},
    {"serve.chain_depth", "count"},
    {"serve.retired_fraction", "ratio"},
    {"serve.limbo_max", "count"},
    {"serve.dict_symbols", "count"},
    {"serve.tombstones_per_query", "count"},
    {"serve.probe_ns_depth0", "ns"},
    {"serve.probe_ns_final", "ns"},
    {"trace.coverage", "ratio"},
    {"trace.overhead", "ratio"},
};

// One run's outcome: checked operations, notes (sample counts, failures)
// and the metric values, printed with the result object last.
class Report {
 public:
  // Counts one checked operation; a failed one is noted with `what`.
  void Check(bool ok, const std::string& what);
  // Counts operations that ran without a check of their own.
  void Count(std::size_t operations) { attempted_ += operations; }
  void Note(const std::string& line) { notes_.push_back(line); }

  // The end-to-end metrics of an untraced run, each of which must be in
  // `values`, or the per-layer metrics of a traced run, where a layer that
  // does no work on this workload reads 0.
  void SetMetrics(bool traced, const std::map<std::string, double>& values);

  bool correct() const { return failed_ == 0; }
  // The notes, one per line, then the result object as the last line.
  void Print(std::ostream& out) const;

 private:
  struct Value {
    std::string name;
    std::string unit;
    double value = 0.0;
  };
  std::vector<Value> metrics_;
  std::vector<std::string> notes_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

// Peak resident set of this process (VmHWM), in MiB.
double PeakRssMb();

void RunBatchRules(const Options& options, Report* report);
// serve_read (ingest = false) and serve_ingest (ingest = true).
void RunServe(const Options& options, bool ingest, Report* report);

}  // namespace rulelink::perfbench

#endif  // RULELINK_PERFBENCH_WORKLOADS_H_
