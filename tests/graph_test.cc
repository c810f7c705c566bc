#include "rdf/graph.h"

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "rdf/dictionary.h"
#include "util/rng.h"

namespace rulelink::rdf {
namespace {

class GraphTest : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_.InsertIri("s1", "p1", "o1");
    graph_.InsertIri("s1", "p1", "o2");
    graph_.InsertIri("s1", "p2", "o1");
    graph_.InsertIri("s2", "p1", "o1");
    graph_.InsertLiteralTriple("s2", "p3", "a literal");
  }

  TermId Id(const std::string& iri) const {
    return graph_.dict().FindIri(iri);
  }

  Graph graph_;
};

TEST_F(GraphTest, SizeAndDeduplication) {
  EXPECT_EQ(graph_.size(), 5u);
  EXPECT_FALSE(graph_.InsertIri("s1", "p1", "o1"));  // duplicate
  EXPECT_EQ(graph_.size(), 5u);
  EXPECT_TRUE(graph_.InsertIri("s3", "p1", "o1"));
  EXPECT_EQ(graph_.size(), 6u);
}

TEST_F(GraphTest, ContainsAfterInsert) {
  EXPECT_TRUE(graph_.Contains(Triple{Id("s1"), Id("p1"), Id("o1")}));
  EXPECT_FALSE(graph_.Contains(Triple{Id("s2"), Id("p2"), Id("o1")}));
}

TEST_F(GraphTest, InsertRejectsInvalidIds) {
  EXPECT_FALSE(graph_.Insert(Triple{kInvalidTermId, Id("p1"), Id("o1")}));
  EXPECT_FALSE(graph_.Insert(Triple{Id("s1"), kInvalidTermId, Id("o1")}));
  EXPECT_FALSE(graph_.Insert(Triple{Id("s1"), Id("p1"), kInvalidTermId}));
  // An id the graph's dictionary never handed out, in each position.
  const auto foreign = static_cast<TermId>(graph_.dict().size() + 1);
  EXPECT_FALSE(graph_.Insert(Triple{foreign, Id("p1"), Id("o1")}));
  EXPECT_FALSE(graph_.Insert(Triple{Id("s1"), foreign, Id("o1")}));
  EXPECT_FALSE(graph_.Insert(Triple{Id("s1"), Id("p1"), foreign}));
  EXPECT_FALSE(graph_.Insert(Triple{Id("s1"), Id("p1"), 999999}));
  EXPECT_EQ(graph_.size(), 5u);
  EXPECT_TRUE(
      graph_.Match(TriplePattern{kInvalidTermId, kInvalidTermId, foreign})
          .empty());
}

TEST_F(GraphTest, MatchBySubject) {
  const auto matches =
      graph_.Match(TriplePattern{Id("s1"), kInvalidTermId, kInvalidTermId});
  EXPECT_EQ(matches.size(), 3u);
}

TEST_F(GraphTest, MatchByPredicate) {
  const auto matches =
      graph_.Match(TriplePattern{kInvalidTermId, Id("p1"), kInvalidTermId});
  EXPECT_EQ(matches.size(), 3u);
}

TEST_F(GraphTest, MatchByObject) {
  const auto matches =
      graph_.Match(TriplePattern{kInvalidTermId, kInvalidTermId, Id("o1")});
  EXPECT_EQ(matches.size(), 3u);
}

TEST_F(GraphTest, MatchBySubjectAndPredicate) {
  const auto matches =
      graph_.Match(TriplePattern{Id("s1"), Id("p1"), kInvalidTermId});
  EXPECT_EQ(matches.size(), 2u);
}

TEST_F(GraphTest, MatchFullyBound) {
  EXPECT_EQ(graph_.Match(TriplePattern{Id("s1"), Id("p1"), Id("o2")}).size(),
            1u);
  EXPECT_EQ(graph_.Match(TriplePattern{Id("s2"), Id("p2"), Id("o2")}).size(),
            0u);
}

TEST_F(GraphTest, MatchUnboundScansAll) {
  EXPECT_EQ(graph_.Match(TriplePattern{}).size(), graph_.size());
}

TEST_F(GraphTest, MatchUnknownTermYieldsNothing) {
  // An id never interned cannot match anything.
  EXPECT_EQ(
      graph_.Match(TriplePattern{999999, kInvalidTermId, kInvalidTermId})
          .size(),
      0u);
}

TEST_F(GraphTest, EstimateMatchesIsAnUpperBound) {
  const TriplePattern patterns[] = {
      {},
      {Id("s1"), kInvalidTermId, kInvalidTermId},
      {kInvalidTermId, Id("p1"), kInvalidTermId},
      {Id("s1"), Id("p1"), Id("o1")},
      {Id("s2"), Id("p2"), kInvalidTermId},  // no matches
  };
  for (const auto& p : patterns) {
    EXPECT_GE(graph_.EstimateMatches(p), graph_.CountMatches(p));
  }
  // Fully unbound: estimate is the graph size.
  EXPECT_EQ(graph_.EstimateMatches(TriplePattern{}), graph_.size());
  // Unknown bound term: estimate 0.
  EXPECT_EQ(graph_.EstimateMatches(
                TriplePattern{999999, kInvalidTermId, kInvalidTermId}),
            0u);
}

TEST_F(GraphTest, CountMatchesAgreesWithMatch) {
  const TriplePattern patterns[] = {
      {},
      {Id("s1"), kInvalidTermId, kInvalidTermId},
      {kInvalidTermId, Id("p1"), kInvalidTermId},
      {Id("s1"), Id("p1"), Id("o1")},
  };
  for (const auto& p : patterns) {
    EXPECT_EQ(graph_.CountMatches(p), graph_.Match(p).size());
  }
}

TEST_F(GraphTest, ForEachMatchEarlyStop) {
  int calls = 0;
  graph_.ForEachMatch(TriplePattern{}, [&](const Triple&) {
    ++calls;
    return calls < 2;
  });
  EXPECT_EQ(calls, 2);
}

TEST_F(GraphTest, ObjectsAndSubjects) {
  const auto objects = graph_.Objects(Id("s1"), Id("p1"));
  EXPECT_EQ(objects.size(), 2u);
  const auto subjects = graph_.Subjects(Id("p1"), Id("o1"));
  EXPECT_EQ(subjects.size(), 2u);
}

TEST_F(GraphTest, FirstObject) {
  EXPECT_EQ(graph_.FirstObject(Id("s1"), Id("p2")), Id("o1"));
  EXPECT_EQ(graph_.FirstObject(Id("s1"), Id("p3")), kInvalidTermId);
}

TEST_F(GraphTest, DistinctSubjectsAndPredicates) {
  EXPECT_EQ(graph_.DistinctSubjects().size(), 2u);
  EXPECT_EQ(graph_.DistinctPredicates().size(), 3u);
}

// The reference every index answer is checked against: a filter over
// triples() in insertion order.
std::vector<Triple> LinearMatch(const Graph& graph, const TriplePattern& p) {
  std::vector<Triple> out;
  for (const Triple& t : graph.triples()) {
    if ((p.subject == kInvalidTermId || t.subject == p.subject) &&
        (p.predicate == kInvalidTermId || t.predicate == p.predicate) &&
        (p.object == kInvalidTermId || t.object == p.object)) {
      out.push_back(t);
    }
  }
  return out;
}

// EstimateMatches' contract: the shortest posting list among the bound
// positions, 0 when one of them has none, size() when none is bound.
std::size_t LinearEstimate(const Graph& graph, const TriplePattern& p) {
  std::size_t best = graph.size();
  const auto bound = [&](TermId id, TermId Triple::*position) {
    if (id == kInvalidTermId) return;
    std::size_t n = 0;
    for (const Triple& t : graph.triples()) n += (t.*position == id);
    best = std::min(best, n);
  };
  bound(p.subject, &Triple::subject);
  bound(p.predicate, &Triple::predicate);
  bound(p.object, &Triple::object);
  return best;
}

std::vector<TermId> FirstSeen(const Graph& graph, TermId Triple::*position) {
  std::vector<TermId> out;
  for (const Triple& t : graph.triples()) {
    if (std::find(out.begin(), out.end(), t.*position) == out.end()) {
      out.push_back(t.*position);
    }
  }
  return out;
}

TEST(GraphDifferentialTest, IndexesMatchALinearFilterOnRandomGraphs) {
  for (const std::uint64_t seed : {1, 2, 3}) {
    util::Rng rng(seed);
    Graph graph;
    std::vector<TermId> terms;
    for (int i = 0; i < 40; ++i) {
      terms.push_back(graph.dict().InternIri("t" + std::to_string(i)));
    }
    // Interned but in no triple, so it has no postings anywhere; and ids
    // the dictionary never handed out.
    const TermId unused = graph.dict().InternIri("unused");
    const auto past = static_cast<TermId>(graph.dict().size() + 1);
    // Overlapping pools: some terms are subjects and objects, some
    // predicates and subjects, so a term lacks postings in one position
    // while it has them in another.
    const auto pick = [&](std::size_t lo, std::size_t hi) {
      return terms[lo + rng.UniformUint64(hi - lo)];
    };
    std::vector<Triple> inserted;
    for (int k = 0; k < 700; ++k) {
      const Triple t{pick(0, 16), pick(12, 20), pick(14, 40)};
      const bool fresh =
          std::find(inserted.begin(), inserted.end(), t) == inserted.end();
      ASSERT_EQ(graph.Insert(t), fresh);
      if (fresh) inserted.push_back(t);
    }
    ASSERT_LT(inserted.size(), 700u);  // duplicates were offered
    ASSERT_EQ(graph.triples(), inserted);
    EXPECT_EQ(graph.DistinctSubjects(), FirstSeen(graph, &Triple::subject));
    EXPECT_EQ(graph.DistinctPredicates(),
              FirstSeen(graph, &Triple::predicate));

    const auto value = [&]() -> TermId {
      switch (rng.UniformUint64(8)) {
        case 0:
          return unused;
        case 1:
          return rng.UniformUint64(2) == 0 ? past : 999999;
        default:
          return terms[rng.UniformUint64(terms.size())];
      }
    };
    for (unsigned mask = 0; mask < 8; ++mask) {
      for (int rep = 0; rep < 300; ++rep) {
        const TriplePattern p{(mask & 1) != 0 ? value() : kInvalidTermId,
                              (mask & 2) != 0 ? value() : kInvalidTermId,
                              (mask & 4) != 0 ? value() : kInvalidTermId};
        const std::vector<Triple> want = LinearMatch(graph, p);
        ASSERT_EQ(graph.Match(p), want) << "mask " << mask;
        ASSERT_EQ(graph.CountMatches(p), want.size());
        ASSERT_EQ(graph.EstimateMatches(p), LinearEstimate(graph, p));
        // An early stop after `limit` calls sees a prefix of the answer.
        const std::size_t limit = 1 + rng.UniformUint64(want.size() + 1);
        std::vector<Triple> seen;
        graph.ForEachMatch(p, [&](const Triple& t) {
          seen.push_back(t);
          return seen.size() < limit;
        });
        ASSERT_EQ(seen, std::vector<Triple>(
                            want.begin(),
                            want.begin() + static_cast<std::ptrdiff_t>(
                                               std::min(limit, want.size()))));
        if (mask == 7) {
          ASSERT_EQ(graph.Contains(Triple{p.subject, p.predicate, p.object}),
                    !want.empty());
        }
      }
    }
  }
}

TEST(DictionaryTest, InternIsIdempotent) {
  TermDictionary dict;
  const TermId a = dict.Intern(Term::Iri("x"));
  const TermId b = dict.Intern(Term::Iri("x"));
  EXPECT_EQ(a, b);
  EXPECT_NE(a, kInvalidTermId);
  EXPECT_EQ(dict.size(), 1u);
}

TEST(DictionaryTest, DistinctTermsGetDistinctIds) {
  TermDictionary dict;
  const TermId iri = dict.Intern(Term::Iri("x"));
  const TermId lit = dict.Intern(Term::Literal("x"));
  const TermId blank = dict.Intern(Term::BlankNode("x"));
  EXPECT_NE(iri, lit);
  EXPECT_NE(lit, blank);
  EXPECT_EQ(dict.size(), 3u);
}

TEST(DictionaryTest, RoundTrip) {
  TermDictionary dict;
  const Term original = Term::LangLiteral("hello", "en");
  const TermId id = dict.Intern(original);
  EXPECT_EQ(dict.term(id), original);
}

TEST(DictionaryTest, ViewLookupsMatchTermLookups) {
  TermDictionary dict;
  const TermId iri = dict.Intern(TermKind::kIri, "x");
  const TermId typed = dict.Intern(TermKind::kLiteral, "1", "http://dt");
  const TermId lang = dict.Intern(TermKind::kLiteral, "x", {}, "en");
  EXPECT_EQ(dict.Intern(Term::Iri("x")), iri);
  EXPECT_EQ(dict.Find(Term::TypedLiteral("1", "http://dt")), typed);
  EXPECT_EQ(dict.Find(Term::LangLiteral("x", "en")), lang);
  EXPECT_EQ(dict.FindIri("x"), iri);
  EXPECT_EQ(dict.term(typed), Term::TypedLiteral("1", "http://dt"));
  EXPECT_EQ(dict.Find(TermKind::kLiteral, "x"), kInvalidTermId);
  EXPECT_EQ(dict.Find(TermKind::kLiteral, "1", "http://other"),
            kInvalidTermId);
  // The empty IRI is a term like any other, not the reserved id 0.
  const TermId empty = dict.InternIri("");
  EXPECT_NE(empty, kInvalidTermId);
  EXPECT_EQ(dict.FindIri(""), empty);
  EXPECT_EQ(dict.size(), 4u);
}

TEST(DictionaryTest, FindOnMissingTerm) {
  TermDictionary dict;
  EXPECT_EQ(dict.Find(Term::Iri("nope")), kInvalidTermId);
  EXPECT_EQ(dict.FindIri("nope"), kInvalidTermId);
  EXPECT_FALSE(dict.Contains(kInvalidTermId));
}

}  // namespace
}  // namespace rulelink::rdf
