#include "eval/table1.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "core/learner.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace rulelink::eval {
namespace {

// The published Table 1 rows (conf, #rules, #dec., prec., recall, lift).
struct PaperRow {
  double conf;
  int rules;
  int decisions;
  double precision;
  double recall;
  int lift;
};
constexpr PaperRow kPaperRows[] = {
    {1.0, 44, 2107, 1.000, 0.290, 27},
    {0.8, 22, 1224, 0.969, 0.457, 24},
    {0.6, 13, 712, 0.920, 0.499, 24},
    {0.4, 17, 1025, 0.838, 0.601, 21},
};

}  // namespace

Table1Evaluator::Table1Evaluator(const core::RuleSet* rules,
                                 const text::Segmenter* segmenter,
                                 double support_threshold)
    : rules_(rules),
      segmenter_(segmenter),
      support_threshold_(support_threshold) {
  RL_CHECK(rules_ != nullptr);
  RL_CHECK(segmenter_ != nullptr);
  RL_CHECK(support_threshold_ > 0.0 && support_threshold_ < 1.0);
}

Table1Result Table1Evaluator::Evaluate(
    const core::TrainingSet& ts,
    const std::vector<double>& band_bounds,
    std::size_t num_threads,
    obs::MetricsRegistry* metrics) const {
  RL_CHECK(!band_bounds.empty());
  RL_CHECK(std::is_sorted(band_bounds.rbegin(), band_bounds.rend()))
      << "band bounds must be strictly decreasing";
  const obs::MetricsRegistry::StageScope stage(metrics, "eval/table1");

  Table1Result result;
  result.rows.resize(band_bounds.size());
  for (std::size_t b = 0; b < band_bounds.size(); ++b) {
    result.rows[b].band_lo = band_bounds[b];
    result.rows[b].band_hi = b == 0 ? 2.0 : band_bounds[b - 1];
  }

  // Rule census per band.
  for (const core::ClassificationRule& rule : rules_->rules()) {
    for (std::size_t b = 0; b < band_bounds.size(); ++b) {
      if (rule.confidence >= result.rows[b].band_lo &&
          rule.confidence < result.rows[b].band_hi) {
        ++result.rows[b].num_rules;
        result.rows[b].avg_lift += rule.lift;
        break;
      }
    }
  }
  for (Table1Row& row : result.rows) {
    if (row.num_rules > 0) {
      row.avg_lift /= static_cast<double>(row.num_rules);
    }
  }

  // Frequent-class population (recall denominator).
  std::unordered_map<ontology::ClassId, std::size_t> class_count;
  for (const core::TrainingExample& example : ts.examples()) {
    for (ontology::ClassId c : example.classes) ++class_count[c];
  }
  std::unordered_set<ontology::ClassId> frequent;
  for (const auto& [cls, count] : class_count) {
    if (core::IsFrequentCount(count, support_threshold_, ts.size())) {
      frequent.insert(cls);
    }
  }
  result.frequent_classes = frequent.size();

  // Decisions: best applicable rule per item. The sweep over TS is sharded
  // across workers into per-chunk integer counters merged in chunk order
  // (see the header's determinism note). The classifier is shared: it is
  // const and only reads the borrowed rule set and segmenter.
  const core::RuleClassifier classifier(rules_, segmenter_);
  const double lowest_bound = band_bounds.back();
  const auto& examples = ts.examples();
  struct SweepShard {
    std::vector<std::size_t> decisions;  // per band
    std::vector<std::size_t> correct;    // per band
    std::size_t classifiable = 0;
    std::size_t undecided = 0;
  };
  // Per-slot shards are a handful of band counters; heuristic granularity.
  const std::size_t num_shards =
      util::ParallelSlots(num_threads, examples.size());
  std::vector<SweepShard> shards(std::max<std::size_t>(1, num_shards));
  for (SweepShard& shard : shards) {
    shard.decisions.assign(band_bounds.size(), 0);
    shard.correct.assign(band_bounds.size(), 0);
  }
  util::ParallelFor(
      num_threads, examples.size(),
      [&](std::size_t chunk, std::size_t begin, std::size_t end) {
        SweepShard& shard = shards[chunk];
        for (std::size_t i = begin; i < end; ++i) {
          const core::TrainingExample& example = examples[i];
          const bool classifiable = std::any_of(
              example.classes.begin(), example.classes.end(),
              [&](ontology::ClassId c) { return frequent.count(c) > 0; });
          if (classifiable) ++shard.classifiable;

          core::Item item;
          item.iri = example.external_iri;
          for (const auto& [property, value] : example.facts) {
            item.facts.push_back(
                core::PropertyValue{ts.properties().name(property), value});
          }
          const auto predictions = classifier.Classify(item, lowest_bound);
          if (predictions.empty()) {
            ++shard.undecided;
            continue;
          }
          const core::ClassPrediction& best = predictions.front();
          std::size_t band = band_bounds.size();
          for (std::size_t b = 0; b < band_bounds.size(); ++b) {
            if (best.confidence >= result.rows[b].band_lo &&
                best.confidence < result.rows[b].band_hi) {
              band = b;
              break;
            }
          }
          if (band == band_bounds.size()) {
            ++shard.undecided;
            continue;
          }
          ++shard.decisions[band];
          const bool correct =
              std::find(example.classes.begin(), example.classes.end(),
                        best.cls) != example.classes.end();
          if (correct) ++shard.correct[band];
        }
      });
  for (const SweepShard& shard : shards) {
    result.classifiable_items += shard.classifiable;
    result.undecided_items += shard.undecided;
    for (std::size_t b = 0; b < band_bounds.size(); ++b) {
      result.rows[b].decisions += shard.decisions[b];
      result.rows[b].correct += shard.correct[b];
    }
  }

  if (metrics != nullptr) {
    std::size_t decisions = 0;
    std::size_t correct = 0;
    for (const Table1Row& row : result.rows) {
      decisions += row.decisions;
      correct += row.correct;
    }
    metrics->AddCounter("eval/decisions", decisions);
    metrics->AddCounter("eval/correct", correct);
    metrics->AddCounter("eval/undecided", result.undecided_items);
    metrics->AddCounter("eval/classifiable", result.classifiable_items);
    metrics->AddCounter("eval/frequent_classes", result.frequent_classes);
  }

  // Band precision plus the paper's cumulative precision/recall columns.
  std::size_t cumulative_correct = 0;
  std::size_t cumulative_decisions = 0;
  for (Table1Row& row : result.rows) {
    if (row.decisions > 0) {
      row.precision_band = static_cast<double>(row.correct) /
                           static_cast<double>(row.decisions);
    }
    cumulative_correct += row.correct;
    cumulative_decisions += row.decisions;
    if (cumulative_decisions > 0) {
      row.precision_cumulative =
          static_cast<double>(cumulative_correct) /
          static_cast<double>(cumulative_decisions);
    }
    if (result.classifiable_items > 0) {
      row.recall_cumulative =
          static_cast<double>(cumulative_correct) /
          static_cast<double>(result.classifiable_items);
    }
  }
  return result;
}

std::string FormatTable1(const Table1Result& result,
                         bool with_paper_reference) {
  util::TextTable table(with_paper_reference
                            ? std::vector<std::string>{"conf.", "#rules",
                                                       "#dec.", "prec.",
                                                       "recall", "lift",
                                                       "(paper)"}
                            : std::vector<std::string>{"conf.", "#rules",
                                                       "#dec.", "prec.",
                                                       "recall", "lift"});
  for (std::size_t b = 0; b < result.rows.size(); ++b) {
    const Table1Row& row = result.rows[b];
    std::vector<std::string> cells = {
        util::FormatDouble(row.band_lo, row.band_lo == 1.0 ? 0 : 1),
        std::to_string(row.num_rules),
        std::to_string(row.decisions),
        util::FormatPercent(row.precision_cumulative),
        util::FormatPercent(row.recall_cumulative),
        util::FormatDouble(row.avg_lift, 0),
    };
    if (with_paper_reference) {
      if (b < std::size(kPaperRows)) {
        const PaperRow& p = kPaperRows[b];
        cells.push_back(
            std::to_string(p.rules) + " rules, " +
            std::to_string(p.decisions) + " dec, " +
            util::FormatPercent(p.precision) + " prec, " +
            util::FormatPercent(p.recall) + " recall, lift " +
            std::to_string(p.lift));
      } else {
        cells.push_back("-");
      }
    }
    table.AddRow(std::move(cells));
  }
  return table.ToText();
}

}  // namespace rulelink::eval
