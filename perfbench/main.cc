// The benchmark program: one workload per process.
//
//   rulelink_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                      [--trace-out FILE] [--smoke]
//
// Prints the host block, the run's notes and, as the last line, the result
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics untraced, the per-layer metrics traced. Exits 1 when any answer
// was wrong and 2 on bad arguments. perfbench/run.py builds and runs it.
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "util/simd.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace rulelink::perfbench {

void Report::Check(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  // The first failures are enough to diagnose; the count says the rest.
  if (++failed_ <= 20) notes_.push_back("FAILED: " + what);
}

void Report::SetMetrics(bool traced,
                        const std::map<std::string, double>& values) {
  const auto emit = [&](const auto& specs) {
    for (const MetricSpec& spec : specs) {
      const auto it = values.find(spec.name);
      double value = 0.0;
      if (it != values.end()) {
        value = it->second;
      } else {
        Check(traced, std::string("no value for ") + spec.name);
      }
      if (!std::isfinite(value)) {
        Check(false, std::string(spec.name) + " is not finite");
        value = 0.0;
      }
      metrics_.push_back({spec.name, spec.unit, value});
    }
  };
  metrics_.clear();
  if (traced) {
    emit(kPerLayerMetrics);
  } else {
    emit(kEndToEndMetrics);
  }
}

void Report::Print(std::ostream& out) const {
  for (const std::string& note : notes_) out << note << "\n";
  if (failed_ > 20) out << (failed_ - 20) << " more failures\n";
  out << "{\"correct\": " << (correct() ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    out << (i == 0 ? "" : ", ") << "\"" << metrics_[i].name
        << "\": {\"value\": " << util::FormatDoubleRoundTrip(metrics_[i].value)
        << ", \"unit\": \"" << metrics_[i].unit << "\"}";
  }
  out << "}}\n";
  out.flush();
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

namespace {

bool ParseArgs(int argc, char** argv, Options* options) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      options->smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options->workload = value;
    } else if (flag == "--seed") {
      unsigned long long seed = 0;
      if (!util::ParseUint64(value, &seed)) return false;
      options->seed = seed;
    } else if (flag == "--seconds") {
      if (!util::ParseDouble(value, &options->seconds) ||
          !(options->seconds >= 1.0 && options->seconds <= 60.0)) {
        return false;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      options->trace = value == "1";
    } else if (flag == "--trace-out") {
      options->trace_out = value;
    } else {
      return false;
    }
  }
  return options->workload == "batch_rules" ||
         options->workload == "serve_read" ||
         options->workload == "serve_ingest";
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) break;
    std::string model(util::StripAsciiWhitespace(line.substr(colon + 1)));
    model.erase(std::remove_if(model.begin(), model.end(),
                               [](char c) { return c == '"' || c == '\\'; }),
                model.end());
    return model;
  }
  return "unknown";
}

// Everything a result depends on besides the code and the seed, so numbers
// from different hosts, builds or settings are never compared.
void PrintHostBlock(const Options& options) {
  std::cout << "host {\"cpu\": \"" << CpuModel()
            << "\", \"nproc\": " << std::thread::hardware_concurrency()
            << ", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
            << "\", \"simd\": \"" << util::SimdModeName(util::ActiveSimdMode())
            << "\", \"pinned\": "
            << (util::ThreadPinningEnabled() ? "true" : "false")
            << ", \"threads\": " << kThreads << ", \"clients\": " << kClients
            << ", \"workload\": \"" << options.workload
            << "\", \"seed\": " << options.seed
            << ", \"seconds\": " << options.seconds
            << ", \"trace\": " << (options.trace ? "true" : "false")
            << ", \"smoke\": " << (options.smoke ? "true" : "false") << "}\n";
}

}  // namespace
}  // namespace rulelink::perfbench

int main(int argc, char** argv) {
  namespace perfbench = rulelink::perfbench;
  namespace util = rulelink::util;
  perfbench::Options options;
  if (!perfbench::ParseArgs(argc, argv, &options)) {
    std::cerr << "usage: rulelink_perfbench --workload "
                 "batch_rules|serve_read|serve_ingest --seed N --seconds S "
                 "--trace 0|1 [--trace-out FILE] [--smoke]\n";
    return 2;
  }
  // Set, not inherited: the best SIMD mode this CPU has (RULELINK_SIMD is
  // overridden) and unpinned pool workers, before the first parallel loop.
  const util::ScopedSimdMode simd(util::DetectCpuSimdMode());
  util::SetThreadPinning(false);
  perfbench::PrintHostBlock(options);

  perfbench::Report report;
  if (options.workload == "batch_rules") {
    perfbench::RunBatchRules(options, &report);
  } else {
    perfbench::RunServe(options, options.workload == "serve_ingest", &report);
  }
  report.Print(std::cout);
  return report.correct() ? 0 : 1;
}
