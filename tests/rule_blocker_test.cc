#include "blocking/rule_blocker.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "text/segmenter.h"
#include "util/interner.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace rulelink::blocking {
namespace {

class RuleBlockerTest : public ::testing::Test {
 protected:
  RuleBlockerTest() {
    root_ = onto_.AddClass("ex:Root");
    a_ = onto_.AddClass("ex:A");
    a1_ = onto_.AddClass("ex:A1");
    b_ = onto_.AddClass("ex:B");
    RL_CHECK_OK(onto_.AddSubClassOf(a_, root_));
    RL_CHECK_OK(onto_.AddSubClassOf(a1_, a_));
    RL_CHECK_OK(onto_.AddSubClassOf(b_, root_));
    RL_CHECK_OK(onto_.Finalize());

    properties_.Intern("pn");
    std::vector<core::ClassificationRule> rules;
    util::StringInterner segments;
    core::ClassificationRule ra;
    ra.property = 0;
    ra.segment = segments.Intern("AAA");
    ra.cls = a_;
    ra.counts = core::RuleCounts{10, 10, 10, 100};
    ra.ComputeMeasures();
    rules.push_back(ra);
    core::ClassificationRule rb = ra;
    rb.segment = segments.Intern("BBB");
    rb.cls = b_;
    rb.counts = core::RuleCounts{10, 12, 8, 100};  // confidence 0.8
    rb.ComputeMeasures();
    rules.push_back(rb);
    set_ = std::make_unique<core::RuleSet>(std::move(rules), properties_,
                                           segments);
    classifier_ =
        std::make_unique<core::RuleClassifier>(set_.get(), &segmenter_);

    // Local items: l0:A, l1:A1, l2:B, l3 untyped.
    local_ = {MakeItem("l0", "x"), MakeItem("l1", "x"), MakeItem("l2", "x"),
              MakeItem("l3", "x")};
    local_classes_ = {a_, a1_, b_, ontology::kInvalidClassId};
  }

  static core::Item MakeItem(const std::string& iri, const std::string& pn) {
    core::Item item;
    item.iri = iri;
    item.facts.push_back(core::PropertyValue{"pn", pn});
    return item;
  }

  ontology::Ontology onto_;
  ontology::ClassId root_, a_, a1_, b_;
  core::PropertyCatalog properties_;
  std::unique_ptr<core::RuleSet> set_;
  text::SeparatorSegmenter segmenter_;
  std::unique_ptr<core::RuleClassifier> classifier_;
  std::vector<core::Item> local_;
  std::vector<ontology::ClassId> local_classes_;
};

TEST_F(RuleBlockerTest, CandidatesAreClassSubsumedInstances) {
  const RuleBlocker blocker(classifier_.get(), &onto_, &local_classes_);
  const auto pairs = blocker.Generate({MakeItem("e0", "AAA-1")}, local_);
  // Class A covers l0 and (via A1) l1, but not l2 or l3.
  const std::set<CandidatePair> got(pairs.begin(), pairs.end());
  EXPECT_EQ(got.size(), 2u);
  EXPECT_TRUE(got.count(CandidatePair{0, 0}));
  EXPECT_TRUE(got.count(CandidatePair{0, 1}));
}

TEST_F(RuleBlockerTest, UnclassifiedSkippedByDefault) {
  const RuleBlocker blocker(classifier_.get(), &onto_, &local_classes_);
  EXPECT_TRUE(blocker.Generate({MakeItem("e0", "ZZZ")}, local_).empty());
}

TEST_F(RuleBlockerTest, UnclassifiedCompareAllFallback) {
  const RuleBlocker blocker(classifier_.get(), &onto_, &local_classes_, 0.0,
                            /*compare_all_when_unclassified=*/true);
  EXPECT_EQ(blocker.Generate({MakeItem("e0", "ZZZ")}, local_).size(), 4u);
}

TEST_F(RuleBlockerTest, MinConfidenceProunesLowRules) {
  const RuleBlocker blocker(classifier_.get(), &onto_, &local_classes_,
                            /*min_confidence=*/0.9);
  // BBB's rule has confidence 0.8, below the bar.
  EXPECT_TRUE(blocker.Generate({MakeItem("e0", "BBB-1")}, local_).empty());
}

TEST_F(RuleBlockerTest, MultipleExternalItemsIndependent) {
  const RuleBlocker blocker(classifier_.get(), &onto_, &local_classes_);
  const auto pairs = blocker.Generate(
      {MakeItem("e0", "AAA-1"), MakeItem("e1", "BBB-2")}, local_);
  const std::set<CandidatePair> got(pairs.begin(), pairs.end());
  EXPECT_EQ(got.size(), 3u);
  EXPECT_TRUE(got.count(CandidatePair{1, 2}));  // e1 -> B -> l2
  EXPECT_FALSE(got.count(CandidatePair{1, 0}));
}

TEST_F(RuleBlockerTest, UnionWhenBothRulesFire) {
  const RuleBlocker blocker(classifier_.get(), &onto_, &local_classes_);
  const auto pairs =
      blocker.Generate({MakeItem("e0", "AAA-BBB")}, local_);
  EXPECT_EQ(pairs.size(), 3u);  // l0, l1, l2 deduplicated
}

// --- The merged fetch against a sort + unique reference ----------------

// A random world: an ontology of 20-200 classes where some classes have
// two or three parents, locals typed by random classes (some untyped),
// and rules mapping segments to classes at confidences from 0.01 to 1.
// Besides random rules, each world predicts an ancestor together with its
// descendant, and two classes that share a descendant through a second
// parent without either subsuming the other.
struct RandomWorld {
  ontology::Ontology onto;
  std::vector<ontology::ClassId> local_classes;
  std::vector<core::Item> local;
  std::vector<core::Item> external;
  core::PropertyCatalog properties;
  std::unique_ptr<core::RuleSet> rules;
  text::SeparatorSegmenter segmenter;
  std::unique_ptr<core::RuleClassifier> classifier;

  explicit RandomWorld(std::uint64_t seed) {
    util::Rng rng(seed);
    const std::size_t num_classes =
        static_cast<std::size_t>(rng.UniformInt(20, 200));
    for (std::size_t c = 0; c < num_classes; ++c) {
      onto.AddClass("ex:C" + std::to_string(c));
    }
    // Parents always have smaller ids, so the graph is acyclic; class 0
    // and an occasional other class are roots.
    for (std::size_t c = 1; c < num_classes; ++c) {
      if (rng.Bernoulli(0.05)) continue;
      std::set<ontology::ClassId> parents;
      const std::size_t num_parents =
          rng.Bernoulli(0.3) ? (rng.Bernoulli(0.4) ? 3 : 2) : 1;
      for (std::size_t k = 0; k < num_parents; ++k) {
        parents.insert(static_cast<ontology::ClassId>(rng.UniformUint64(c)));
      }
      for (const ontology::ClassId parent : parents) {
        RL_CHECK_OK(
            onto.AddSubClassOf(static_cast<ontology::ClassId>(c), parent));
      }
    }
    RL_CHECK_OK(onto.Finalize());

    const std::size_t num_local =
        static_cast<std::size_t>(rng.UniformInt(50, 400));
    for (std::size_t l = 0; l < num_local; ++l) {
      local_classes.push_back(
          rng.Bernoulli(0.15)
              ? ontology::kInvalidClassId
              : static_cast<ontology::ClassId>(rng.UniformUint64(num_classes)));
      core::Item item;
      item.iri = "l" + std::to_string(l);
      local.push_back(std::move(item));
    }

    util::StringInterner segments;
    std::vector<core::ClassificationRule> rule_list;
    const auto add_rule = [&](const std::string& segment,
                              ontology::ClassId cls) {
      core::ClassificationRule rule;
      rule.property = properties.Intern("pn");
      rule.segment = segments.Intern(segment);
      rule.cls = cls;
      const auto joint = static_cast<std::size_t>(rng.UniformInt(1, 100));
      rule.counts = core::RuleCounts{100, 150, joint, 1000};
      rule.ComputeMeasures();
      rule_list.push_back(rule);
    };
    const std::size_t num_segments =
        static_cast<std::size_t>(rng.UniformInt(10, 40));
    for (std::size_t k = 0; k < num_segments; ++k) {
      const std::size_t fan = rng.Bernoulli(0.3) ? 2 : 1;
      for (std::size_t f = 0; f < fan; ++f) {
        const auto cls =
            static_cast<ontology::ClassId>(rng.UniformUint64(num_classes));
        add_rule("S" + std::to_string(k), cls);
      }
    }
    std::vector<std::string> planted;
    for (ontology::ClassId c = 0; c < num_classes; ++c) {
      const auto& parents = onto.Parents(c);
      if (parents.size() < 2 || onto.IsSubClassOf(parents[0], parents[1]) ||
          onto.IsSubClassOf(parents[1], parents[0])) {
        continue;
      }
      const std::string tag = std::to_string(c);
      add_rule("D" + tag, c);
      add_rule("A" + tag, onto.Ancestors(c).front());
      add_rule("P" + tag, parents[0]);
      add_rule("Q" + tag, parents[1]);
      planted.push_back("P" + tag + "-Q" + tag);
      planted.push_back("D" + tag + "-A" + tag);
      planted.push_back("D" + tag + "-P" + tag + "-Q" + tag);
    }
    rules = std::make_unique<core::RuleSet>(std::move(rule_list), properties,
                                            segments);
    classifier =
        std::make_unique<core::RuleClassifier>(rules.get(), &segmenter);

    // Externals with 0-4 random segments (an unknown one now and then),
    // plus the planted combinations.
    const std::size_t num_external =
        static_cast<std::size_t>(rng.UniformInt(40, 80));
    for (std::size_t e = 0; e < num_external; ++e) {
      std::string pn;
      const std::size_t num_parts =
          static_cast<std::size_t>(rng.UniformInt(0, 4));
      for (std::size_t k = 0; k < num_parts; ++k) {
        if (!pn.empty()) pn += "-";
        pn += rng.Bernoulli(0.1)
                  ? "unknown"
                  : "S" + std::to_string(rng.UniformUint64(num_segments));
      }
      external.push_back(MakeExternal(e, pn));
    }
    for (const std::string& pn : planted) {
      external.push_back(MakeExternal(external.size(), pn));
    }
  }

  static core::Item MakeExternal(std::size_t e, const std::string& pn) {
    core::Item item;
    item.iri = "e" + std::to_string(e);
    if (!pn.empty()) item.facts.push_back(core::PropertyValue{"pn", pn});
    return item;
  }
};

// The fetch as it was before subtree rows: append the extent of every
// predicted class and of each of its descendants, then sort + unique.
// Sets *shared when two predicted classes, neither subsuming the other,
// contribute the same local.
std::vector<std::size_t> SortUniqueRun(const RandomWorld& world,
                                       const core::Item& item,
                                       double min_confidence, bool fallback,
                                       bool* shared) {
  std::unordered_map<ontology::ClassId, std::vector<std::size_t>> extents;
  for (std::size_t l = 0; l < world.local_classes.size(); ++l) {
    const ontology::ClassId c = world.local_classes[l];
    if (c != ontology::kInvalidClassId) extents[c].push_back(l);
  }
  const auto predictions = world.classifier->Classify(item, min_confidence);
  std::vector<std::size_t> run;
  if (predictions.empty()) {
    if (fallback) {
      for (std::size_t l = 0; l < world.local.size(); ++l) run.push_back(l);
    }
    return run;
  }
  std::vector<std::set<std::size_t>> per_prediction;
  for (const core::ClassPrediction& prediction : predictions) {
    std::vector<ontology::ClassId> subtree =
        world.onto.Descendants(prediction.cls);
    subtree.push_back(prediction.cls);
    std::set<std::size_t> locals;
    for (const ontology::ClassId c : subtree) {
      const auto it = extents.find(c);
      if (it == extents.end()) continue;
      run.insert(run.end(), it->second.begin(), it->second.end());
      locals.insert(it->second.begin(), it->second.end());
    }
    per_prediction.push_back(std::move(locals));
  }
  for (std::size_t a = 0; a < predictions.size(); ++a) {
    for (std::size_t b = a + 1; b < predictions.size(); ++b) {
      if (world.onto.IsSubClassOf(predictions[a].cls, predictions[b].cls) ||
          world.onto.IsSubClassOf(predictions[b].cls, predictions[a].cls)) {
        continue;
      }
      for (const std::size_t l : per_prediction[a]) {
        if (per_prediction[b].count(l) != 0) *shared = true;
      }
    }
  }
  std::sort(run.begin(), run.end());
  run.erase(std::unique(run.begin(), run.end()), run.end());
  return run;
}

TEST(RuleBlockerDifferential, MergedRunsEqualSortUniqueOnRandomOntologies) {
  std::size_t runs = 0;
  std::size_t multi_prediction_runs = 0;
  std::size_t shared_runs = 0;
  std::size_t fallback_runs = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE(seed);
    const RandomWorld world(seed);
    for (const double min_confidence : {0.0, 0.5}) {
      for (const bool fallback : {false, true}) {
        const RuleBlocker blocker(world.classifier.get(), &world.onto,
                                  &world.local_classes, min_confidence,
                                  fallback);
        const auto index = blocker.BuildIndex(world.external, world.local);
        ASSERT_EQ(index->num_external(), world.external.size());
        const auto item_index = blocker.BuildItemIndex(world.local);
        ASSERT_NE(item_index, nullptr);
        ASSERT_EQ(item_index->num_local(), world.local.size());
        std::vector<CandidatePair> want_pairs;
        std::vector<std::vector<std::size_t>> want_runs;
        std::vector<std::size_t> run;
        std::string key_scratch;
        for (std::size_t e = 0; e < world.external.size(); ++e) {
          bool shared = false;
          const auto want = SortUniqueRun(world, world.external[e],
                                          min_confidence, fallback, &shared);
          index->CandidatesOf(e, &run);
          ASSERT_EQ(run, want) << "external " << e;
          item_index->CandidatesOfItem(world.external[e], &key_scratch, &run);
          ASSERT_EQ(run, want) << "external " << e << " probed by item";
          want_runs.push_back(want);
          for (const std::size_t l : want) want_pairs.push_back({e, l});
          ++runs;
          shared_runs += shared;
          multi_prediction_runs +=
              world.classifier->Classify(world.external[e], min_confidence)
                  .size() > 1;
          fallback_runs += fallback && !want.empty() &&
                           want.size() == world.local.size();
        }
        EXPECT_EQ(blocker.Generate(world.external, world.local), want_pairs);
        // The same indexes probed from concurrent workers, one external
        // per morsel, as streaming shards and serving sessions share them.
        std::vector<char> same(world.external.size(), 0);
        util::ParallelFor(
            4, world.external.size(),
            [&](std::size_t, std::size_t begin, std::size_t end) {
              std::vector<std::size_t> own;
              std::string own_key;
              for (std::size_t e = begin; e < end; ++e) {
                index->CandidatesOf(e, &own);
                const bool by_index = own == want_runs[e];
                item_index->CandidatesOfItem(world.external[e], &own_key,
                                             &own);
                same[e] = by_index && own == want_runs[e];
              }
            },
            1);
        EXPECT_EQ(std::count(same.begin(), same.end(), 1),
                  static_cast<std::ptrdiff_t>(world.external.size()));
      }
    }
  }
  // The inputs reach every branch of the merge.
  EXPECT_GT(runs, 0u);
  EXPECT_GT(multi_prediction_runs, runs / 10);
  EXPECT_GT(shared_runs, 0u);
  EXPECT_GT(fallback_runs, 0u);
}

}  // namespace
}  // namespace rulelink::blocking
