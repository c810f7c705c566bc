// Term interning: maps Term values to dense 32-bit TermIds and back. All
// triple storage and all counting in the rule learner operate on ids, so
// string comparisons happen exactly once per distinct term.
//
// terms_ is the only copy of each term. The index over it is a
// util::IdHashIndex (the slot layout util::StringInterner uses) keyed by
// a hash of the term's fields, so a lookup by views of those fields --
// the N-Triples scanner's, or FindIri's -- builds no Term, and Intern
// builds one only for a term it has not seen.
#ifndef RULELINK_RDF_DICTIONARY_H_
#define RULELINK_RDF_DICTIONARY_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "rdf/term.h"
#include "util/id_hash_index.h"

namespace rulelink::rdf {

class TermDictionary {
 public:
  TermDictionary();

  TermDictionary(const TermDictionary&) = delete;
  TermDictionary& operator=(const TermDictionary&) = delete;
  TermDictionary(TermDictionary&&) = default;
  TermDictionary& operator=(TermDictionary&&) = default;

  // Returns the id of `term`, interning it on first sight. Ids follow
  // first-occurrence order, from 1.
  TermId Intern(const Term& term);
  TermId Intern(Term&& term);
  // The same for the term with these fields; a Term is built only when
  // it is new.
  TermId Intern(TermKind kind, std::string_view lexical,
                std::string_view datatype = {},
                std::string_view language = {});

  // Convenience interners.
  TermId InternIri(std::string_view iri);
  TermId InternLiteral(std::string_view lexical);

  // Returns the id of the term, or kInvalidTermId when never interned.
  // Never allocates.
  TermId Find(const Term& term) const;
  TermId Find(TermKind kind, std::string_view lexical,
              std::string_view datatype = {},
              std::string_view language = {}) const;
  TermId FindIri(std::string_view iri) const;

  // Id -> term. `id` must be a valid id returned by this dictionary.
  const Term& term(TermId id) const;

  bool Contains(TermId id) const {
    return id != kInvalidTermId && id < terms_.size();
  }

  // Number of interned terms (excluding the reserved invalid slot).
  std::size_t size() const { return terms_.size() - 1; }

 private:
  std::vector<Term> terms_;  // index = TermId
  util::IdHashIndex index_;  // over terms_, never holding id 0
};

}  // namespace rulelink::rdf

#endif  // RULELINK_RDF_DICTIONARY_H_
