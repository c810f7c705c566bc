#include "support.h"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <numeric>
#include <string_view>
#include <utility>

#include "util/rng.h"

namespace rulelink::perfbench {

std::optional<double> Quantile(std::vector<double> samples, double q,
                               std::size_t min_samples) {
  if (samples.empty() || samples.size() < min_samples) return std::nullopt;
  std::sort(samples.begin(), samples.end());
  const double rank =
      std::clamp(q, 0.0, 1.0) * static_cast<double>(samples.size() - 1);
  const auto lower = static_cast<std::size_t>(rank);
  const std::size_t upper = std::min(lower + 1, samples.size() - 1);
  const double fraction = rank - static_cast<double>(lower);
  return samples[lower] + fraction * (samples[upper] - samples[lower]);
}

double Median(std::vector<double> samples) {
  const std::optional<double> median = Quantile(std::move(samples), 0.5);
  if (!median.has_value()) {
    std::cerr << "perfbench: median of no samples\n";
    std::abort();
  }
  return *median;
}

double Fastest(const std::vector<double>& samples) {
  if (samples.empty()) {
    std::cerr << "perfbench: fastest of no samples\n";
    std::abort();
  }
  return *std::min_element(samples.begin(), samples.end());
}

std::vector<double> FastestPerPosition(
    const std::vector<std::vector<double>>& rounds) {
  if (rounds.empty()) {
    std::cerr << "perfbench: fastest per position of no rounds\n";
    std::abort();
  }
  std::vector<double> fastest = rounds.front();
  for (const std::vector<double>& round : rounds) {
    if (round.size() != fastest.size()) {
      std::cerr << "perfbench: rounds of " << round.size() << " and "
                << fastest.size() << " positions\n";
      std::abort();
    }
    for (std::size_t i = 0; i < round.size(); ++i) {
      fastest[i] = std::min(fastest[i], round[i]);
    }
  }
  return fastest;
}

std::uint64_t DeriveSeed(std::uint64_t seed, std::uint64_t purpose) {
  return util::Rng::ForStream(seed, purpose).NextUint64();
}

std::vector<std::size_t> SampleIndices(std::uint64_t seed, std::size_t n,
                                       std::size_t k) {
  std::vector<std::size_t> pool(n);
  std::iota(pool.begin(), pool.end(), std::size_t{0});
  k = std::min(k, n);
  util::Rng rng(seed);
  for (std::size_t i = 0; i < k; ++i) {
    std::swap(pool[i], pool[i + rng.UniformUint64(n - i)]);
  }
  pool.resize(k);
  std::sort(pool.begin(), pool.end());
  return pool;
}

std::size_t SpanRecorder::Open(const char* name, std::uint64_t unit) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : static_cast<std::int32_t>(open_.back());
  span.unit = unit;
  spans_.push_back(span);
  open_.push_back(spans_.size() - 1);
  // Stamped after the bookkeeping: the span times the call, not the
  // recorder.
  spans_.back().start_ns = NowNs();
  return spans_.size() - 1;
}

void SpanRecorder::Close(std::size_t index) {
  const std::int64_t end = NowNs();
  if (open_.empty() || open_.back() != index) {
    std::cerr << "perfbench: span " << spans_[index].name
              << " closed out of order\n";
    std::abort();
  }
  spans_[index].end_ns = end;
  open_.pop_back();
}

std::vector<std::int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int32_t parent = spans[i].parent;
    if (parent >= 0 && static_cast<std::size_t>(parent) < i) {
      children[static_cast<std::size_t>(parent)].emplace_back(
          spans[i].start_ns, spans[i].end_ns);
    }
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t begin = spans[i].start_ns;
    const std::int64_t end = spans[i].end_ns;
    auto& intervals = children[i];
    std::sort(intervals.begin(), intervals.end());
    std::int64_t covered = 0;
    std::int64_t reach = begin;  // covered up to here
    for (const auto& [child_begin, child_end] : intervals) {
      const std::int64_t from = std::max(child_begin, reach);
      const std::int64_t to = std::min(child_end, end);
      if (to > from) {
        covered += to - from;
        reach = to;
      }
    }
    self[i] = (end - begin) - covered;
  }
  return self;
}

namespace {

const LayerTotals* FindLayer(const TraceSummary& summary,
                             const std::string& name) {
  const auto it = summary.layers.find(name);
  return it == summary.layers.end() || it->second.self_samples.empty()
             ? nullptr
             : &it->second;
}

}  // namespace

double TraceSummary::MeanSelfNs(const std::string& name) const {
  const LayerTotals* layer = FindLayer(*this, name);
  return layer == nullptr ? 0.0
                          : static_cast<double>(layer->self_ns) /
                                static_cast<double>(layer->self_samples.size());
}

double TraceSummary::MedianSelfNs(const std::string& name) const {
  const LayerTotals* layer = FindLayer(*this, name);
  if (layer == nullptr) return 0.0;
  return Median(std::vector<double>(layer->self_samples.begin(),
                                    layer->self_samples.end()));
}

double TraceSummary::MeanTotalNs(const std::string& name) const {
  const LayerTotals* layer = FindLayer(*this, name);
  return layer == nullptr ? 0.0
                          : static_cast<double>(layer->total_ns) /
                                static_cast<double>(layer->self_samples.size());
}

void Accumulate(const std::vector<Span>& spans,
                const std::vector<std::string>& e2e_roots,
                TraceSummary* summary) {
  const std::vector<std::int64_t> self = SelfTimes(spans);
  std::vector<std::size_t> root(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    const bool nested =
        span.parent >= 0 && static_cast<std::size_t>(span.parent) < i;
    root[i] = nested ? root[static_cast<std::size_t>(span.parent)] : i;
    const std::int64_t duration = span.end_ns - span.start_ns;
    LayerTotals& layer = summary->layers[span.name];
    layer.self_ns += self[i];
    layer.total_ns += duration;
    layer.self_samples.push_back(self[i]);
    const std::string_view root_name = spans[root[i]].name;
    if (std::find(e2e_roots.begin(), e2e_roots.end(), root_name) ==
        e2e_roots.end()) {
      continue;
    }
    if (nested) {
      summary->layer_self_ns += self[i];
    } else {
      summary->e2e_ns += duration;
      ++summary->e2e_spans;
    }
  }
}

bool WriteSpans(const std::string& path,
                const std::vector<const SpanRecorder*>& recorders) {
  std::ofstream out(path);
  if (!out) return false;
  for (std::size_t r = 0; r < recorders.size(); ++r) {
    for (const Span& span : recorders[r]->spans()) {
      out << "{\"name\": \"" << span.name << "\", \"recorder\": " << r
          << ", \"unit\": " << span.unit << ", \"parent\": " << span.parent
          << ", \"start_ns\": " << span.start_ns
          << ", \"end_ns\": " << span.end_ns << "}\n";
    }
  }
  out.flush();
  return static_cast<bool>(out);
}

std::size_t DeltasDue(std::size_t answered, const DeltaPlanConfig& config) {
  if (config.num_deltas == 0 || answered < config.first_at) return 0;
  const std::size_t every = std::max<std::size_t>(config.every, 1);
  return std::min(config.num_deltas, (answered - config.first_at) / every + 1);
}

std::vector<DeltaStep> PlanDeltas(const DeltaPlanConfig& config,
                                  const std::vector<std::uint8_t>& retirable) {
  const std::size_t items =
      config.base_items + config.num_deltas * config.appends_per_delta;
  if (retirable.size() < items) {
    std::cerr << "perfbench: the retirable mask covers " << retirable.size()
              << " of " << items << " items\n";
    std::abort();
  }
  // Live and retirable, by global index; grows as deltas append.
  std::vector<std::uint8_t> eligible(items, 0);
  std::size_t num_eligible = 0;
  const auto admit = [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      if (retirable[i] != 0) {
        eligible[i] = 1;
        ++num_eligible;
      }
    }
  };
  admit(0, config.base_items);

  util::Rng rng(config.seed);
  const std::size_t every = std::max<std::size_t>(config.every, 1);
  std::vector<DeltaStep> plan(config.num_deltas);
  std::size_t live_end = config.base_items;
  for (std::size_t k = 0; k < config.num_deltas; ++k) {
    DeltaStep& step = plan[k];
    step.after_answered = config.first_at + k * every;
    step.append_begin = k * config.appends_per_delta;
    step.append_end = step.append_begin + config.appends_per_delta;
    admit(live_end, live_end + config.appends_per_delta);
    live_end += config.appends_per_delta;
    const std::size_t want = std::min(config.retires_per_delta, num_eligible);
    while (step.retired.size() < want) {
      const std::size_t pick = rng.UniformUint64(live_end);
      if (eligible[pick] == 0) continue;
      eligible[pick] = 0;
      --num_eligible;
      step.retired.push_back(pick);
    }
    std::sort(step.retired.begin(), step.retired.end());
  }
  return plan;
}

}  // namespace rulelink::perfbench
