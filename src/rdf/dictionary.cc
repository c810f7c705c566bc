#include "rdf/dictionary.h"

#include <utility>

#include "util/hash.h"
#include "util/logging.h"

namespace rulelink::rdf {
namespace {

// The hash the index keys a term on. Most terms are IRIs or plain
// literals, so the datatype and language cost nothing when empty.
std::uint64_t TermHash(TermKind kind, std::string_view lexical,
                       std::string_view datatype, std::string_view language) {
  std::uint64_t h = util::HashBytes(lexical) ^ static_cast<std::uint64_t>(kind);
  if (!datatype.empty()) h = util::HashCombine(h, util::HashBytes(datatype));
  if (!language.empty()) h = util::HashCombine(h, ~util::HashBytes(language));
  return h;
}

bool HasFields(const Term& term, TermKind kind, std::string_view lexical,
               std::string_view datatype, std::string_view language) {
  return term.kind() == kind && term.lexical() == lexical &&
         term.datatype() == datatype && term.language() == language;
}

}  // namespace

TermDictionary::TermDictionary() {
  terms_.emplace_back();  // reserve id 0 as invalid
}

TermId TermDictionary::Intern(TermKind kind, std::string_view lexical,
                              std::string_view datatype,
                              std::string_view language) {
  const auto next = static_cast<TermId>(terms_.size());
  const TermId id = index_.FindOrInsert(
      TermHash(kind, lexical, datatype, language), next, [&](TermId known) {
        return HasFields(terms_[known], kind, lexical, datatype, language);
      });
  if (id == next) terms_.push_back(Term(kind, lexical, datatype, language));
  return id;
}

TermId TermDictionary::Intern(const Term& term) {
  return Intern(term.kind(), term.lexical(), term.datatype(),
                term.language());
}

TermId TermDictionary::Intern(Term&& term) {
  const auto next = static_cast<TermId>(terms_.size());
  const TermId id = index_.FindOrInsert(
      TermHash(term.kind(), term.lexical(), term.datatype(), term.language()),
      next, [&](TermId known) { return terms_[known] == term; });
  if (id == next) terms_.push_back(std::move(term));
  return id;
}

TermId TermDictionary::InternIri(std::string_view iri) {
  return Intern(TermKind::kIri, iri);
}

TermId TermDictionary::InternLiteral(std::string_view lexical) {
  return Intern(TermKind::kLiteral, lexical);
}

TermId TermDictionary::Find(TermKind kind, std::string_view lexical,
                            std::string_view datatype,
                            std::string_view language) const {
  const TermId id = index_.Find(
      TermHash(kind, lexical, datatype, language), [&](TermId known) {
        return HasFields(terms_[known], kind, lexical, datatype, language);
      });
  return id == util::IdHashIndex::kNoId ? kInvalidTermId : id;
}

TermId TermDictionary::Find(const Term& term) const {
  return Find(term.kind(), term.lexical(), term.datatype(), term.language());
}

TermId TermDictionary::FindIri(std::string_view iri) const {
  return Find(TermKind::kIri, iri);
}

const Term& TermDictionary::term(TermId id) const {
  RL_CHECK(Contains(id)) << "invalid TermId " << id;
  return terms_[id];
}

}  // namespace rulelink::rdf
