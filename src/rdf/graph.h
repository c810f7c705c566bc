// In-memory indexed triple store. Triples are de-duplicated; S, P and O
// indexes support pattern matching with any combination of bound positions.
// The store owns a TermDictionary so callers can work with Terms or ids.
//
// Every index is keyed by id: the de-duplication set is a
// util::IdHashIndex of triple indexes, and the S, P and O posting lists
// sit in vectors indexed by TermId, each list ascending in triple order. All of it is built by Insert; const methods only read, so any
// number of threads may query a graph nobody is inserting into.
#ifndef RULELINK_RDF_GRAPH_H_
#define RULELINK_RDF_GRAPH_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "rdf/dictionary.h"
#include "rdf/term.h"
#include "rdf/triple.h"
#include "util/id_hash_index.h"

namespace rulelink::rdf {

// A triple pattern: kInvalidTermId in a position means "unbound".
struct TriplePattern {
  TermId subject = kInvalidTermId;
  TermId predicate = kInvalidTermId;
  TermId object = kInvalidTermId;
};

class Graph {
 public:
  Graph() = default;

  Graph(const Graph&) = delete;
  Graph& operator=(const Graph&) = delete;
  Graph(Graph&&) = default;
  Graph& operator=(Graph&&) = default;

  TermDictionary& dict() { return dict_; }
  const TermDictionary& dict() const { return dict_; }

  // Inserts a triple; returns true when it was not already present.
  // Returns false, inserting nothing, when a position holds
  // kInvalidTermId or an id dict() never handed out.
  bool Insert(const Triple& triple);
  bool Insert(const Term& s, const Term& p, const Term& o);
  // Interning + insert convenience for the common IRI/IRI/any shape.
  bool InsertIri(const std::string& s, const std::string& p,
                 const std::string& o);
  bool InsertLiteralTriple(const std::string& s, const std::string& p,
                           const std::string& literal);

  bool Contains(const Triple& triple) const;

  std::size_t size() const { return triples_.size(); }
  bool empty() const { return triples_.empty(); }

  // All triples in insertion order.
  const std::vector<Triple>& triples() const { return triples_; }

  // Returns every triple matching `pattern` (copy of matching triples).
  std::vector<Triple> Match(const TriplePattern& pattern) const;

  // Calls `fn` for each triple matching `pattern`; `fn` returning false
  // stops the scan early.
  void ForEachMatch(const TriplePattern& pattern,
                    const std::function<bool(const Triple&)>& fn) const;

  // Number of triples matching `pattern` without materializing them.
  std::size_t CountMatches(const TriplePattern& pattern) const;

  // O(1) upper bound on CountMatches: the shortest posting list among the
  // bound positions (graph size when fully unbound, 0 when a bound term
  // has no postings). Used by the query planner's selectivity ordering.
  std::size_t EstimateMatches(const TriplePattern& pattern) const;

  // Common lookups ---------------------------------------------------------

  // Objects of (subject, predicate, ?o).
  std::vector<TermId> Objects(TermId subject, TermId predicate) const;
  // Subjects of (?s, predicate, object).
  std::vector<TermId> Subjects(TermId predicate, TermId object) const;
  // First object of (subject, predicate, ?o) or kInvalidTermId.
  TermId FirstObject(TermId subject, TermId predicate) const;

  // Distinct subjects appearing in the graph, in first-seen order.
  std::vector<TermId> DistinctSubjects() const;
  // Distinct predicates appearing in the graph, in first-seen order.
  std::vector<TermId> DistinctPredicates() const;

 private:
  using PostingList = std::vector<std::uint32_t>;  // indexes into triples_
  using PostingIndex = std::vector<PostingList>;   // index = TermId

  // `id`'s posting list in `index`, or nullptr when it has none.
  static const PostingList* Postings(const PostingIndex& index, TermId id);

  // Picks the shortest applicable posting list for `pattern`, or nullptr
  // when no position is bound (full scan). Sets `*miss` when a bound
  // position has an empty posting list (no matches possible).
  const PostingList* ChoosePostings(const TriplePattern& pattern,
                                    bool* miss) const;

  static bool Matches(const Triple& t, const TriplePattern& p) {
    return (p.subject == kInvalidTermId || t.subject == p.subject) &&
           (p.predicate == kInvalidTermId || t.predicate == p.predicate) &&
           (p.object == kInvalidTermId || t.object == p.object);
  }

  TermDictionary dict_;
  std::vector<Triple> triples_;
  util::IdHashIndex triple_index_;  // over triples_, for de-duplication
  // Each sized to the largest id seen in its position, plus one.
  PostingIndex by_subject_;
  PostingIndex by_predicate_;
  PostingIndex by_object_;
};

}  // namespace rulelink::rdf

#endif  // RULELINK_RDF_GRAPH_H_
