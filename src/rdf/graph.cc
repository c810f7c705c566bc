#include "rdf/graph.h"

#include "util/hash.h"

namespace rulelink::rdf {
namespace {

std::uint64_t HashTriple(const Triple& t) {
  return util::Mix64(
      util::Mix64((static_cast<std::uint64_t>(t.subject) << 32) |
                  t.predicate) ^
      t.object);
}

void AddPosting(std::vector<std::vector<std::uint32_t>>* index, TermId id,
                std::uint32_t triple_idx) {
  if (id >= index->size()) index->resize(id + 1);
  (*index)[id].push_back(triple_idx);
}

}  // namespace

bool Graph::Insert(const Triple& triple) {
  if (!dict_.Contains(triple.subject) || !dict_.Contains(triple.predicate) ||
      !dict_.Contains(triple.object)) {
    return false;
  }
  const auto idx = static_cast<std::uint32_t>(triples_.size());
  if (triple_index_.FindOrInsert(HashTriple(triple), idx,
                                 [&](std::uint32_t known) {
                                   return triples_[known] == triple;
                                 }) != idx) {
    return false;
  }
  triples_.push_back(triple);
  AddPosting(&by_subject_, triple.subject, idx);
  AddPosting(&by_predicate_, triple.predicate, idx);
  AddPosting(&by_object_, triple.object, idx);
  return true;
}

bool Graph::Insert(const Term& s, const Term& p, const Term& o) {
  return Insert(Triple{dict_.Intern(s), dict_.Intern(p), dict_.Intern(o)});
}

bool Graph::InsertIri(const std::string& s, const std::string& p,
                      const std::string& o) {
  return Insert(Triple{dict_.InternIri(s), dict_.InternIri(p),
                       dict_.InternIri(o)});
}

bool Graph::InsertLiteralTriple(const std::string& s, const std::string& p,
                                const std::string& literal) {
  return Insert(Triple{dict_.InternIri(s), dict_.InternIri(p),
                       dict_.InternLiteral(literal)});
}

bool Graph::Contains(const Triple& triple) const {
  return triple_index_.Find(HashTriple(triple), [&](std::uint32_t known) {
           return triples_[known] == triple;
         }) != util::IdHashIndex::kNoId;
}

const Graph::PostingList* Graph::Postings(const PostingIndex& index,
                                          TermId id) {
  return id < index.size() && !index[id].empty() ? &index[id] : nullptr;
}

const Graph::PostingList* Graph::ChoosePostings(const TriplePattern& pattern,
                                                bool* miss) const {
  *miss = false;
  const PostingList* best = nullptr;
  const auto consider = [&](TermId bound, const PostingList* list) {
    if (bound == kInvalidTermId) return;
    if (list == nullptr) {
      *miss = true;
      return;
    }
    if (best == nullptr || list->size() < best->size()) best = list;
  };
  consider(pattern.subject, Postings(by_subject_, pattern.subject));
  if (*miss) return nullptr;
  consider(pattern.predicate, Postings(by_predicate_, pattern.predicate));
  if (*miss) return nullptr;
  consider(pattern.object, Postings(by_object_, pattern.object));
  if (*miss) return nullptr;
  return best;
}

void Graph::ForEachMatch(const TriplePattern& pattern,
                         const std::function<bool(const Triple&)>& fn) const {
  bool miss = false;
  const PostingList* postings = ChoosePostings(pattern, &miss);
  if (miss) return;
  if (postings != nullptr) {
    for (std::uint32_t idx : *postings) {
      const Triple& t = triples_[idx];
      if (Matches(t, pattern) && !fn(t)) return;
    }
    return;
  }
  for (const Triple& t : triples_) {  // fully unbound: scan
    if (Matches(t, pattern) && !fn(t)) return;
  }
}

std::vector<Triple> Graph::Match(const TriplePattern& pattern) const {
  std::vector<Triple> out;
  ForEachMatch(pattern, [&](const Triple& t) {
    out.push_back(t);
    return true;
  });
  return out;
}

std::size_t Graph::EstimateMatches(const TriplePattern& pattern) const {
  bool miss = false;
  const PostingList* postings = ChoosePostings(pattern, &miss);
  if (miss) return 0;
  return postings == nullptr ? triples_.size() : postings->size();
}

std::size_t Graph::CountMatches(const TriplePattern& pattern) const {
  std::size_t n = 0;
  ForEachMatch(pattern, [&](const Triple&) {
    ++n;
    return true;
  });
  return n;
}

std::vector<TermId> Graph::Objects(TermId subject, TermId predicate) const {
  std::vector<TermId> out;
  ForEachMatch(TriplePattern{subject, predicate, kInvalidTermId},
               [&](const Triple& t) {
                 out.push_back(t.object);
                 return true;
               });
  return out;
}

std::vector<TermId> Graph::Subjects(TermId predicate, TermId object) const {
  std::vector<TermId> out;
  ForEachMatch(TriplePattern{kInvalidTermId, predicate, object},
               [&](const Triple& t) {
                 out.push_back(t.subject);
                 return true;
               });
  return out;
}

TermId Graph::FirstObject(TermId subject, TermId predicate) const {
  TermId found = kInvalidTermId;
  ForEachMatch(TriplePattern{subject, predicate, kInvalidTermId},
               [&](const Triple& t) {
                 found = t.object;
                 return false;
               });
  return found;
}

// A term's first triple in a position is the front of its posting list
// there, so first-seen order needs no set.
std::vector<TermId> Graph::DistinctSubjects() const {
  std::vector<TermId> out;
  for (std::uint32_t i = 0; i < triples_.size(); ++i) {
    const TermId subject = triples_[i].subject;
    if (by_subject_[subject].front() == i) out.push_back(subject);
  }
  return out;
}

std::vector<TermId> Graph::DistinctPredicates() const {
  std::vector<TermId> out;
  for (std::uint32_t i = 0; i < triples_.size(); ++i) {
    const TermId predicate = triples_[i].predicate;
    if (by_predicate_[predicate].front() == i) out.push_back(predicate);
  }
  return out;
}

}  // namespace rulelink::rdf
