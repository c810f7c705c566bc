// RDF term model: IRIs, literals (with optional datatype IRI and language
// tag), and blank nodes. Terms are value types; graphs intern them into ids
// via TermDictionary, which hashes and compares them field by field.
#ifndef RULELINK_RDF_TERM_H_
#define RULELINK_RDF_TERM_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace rulelink::rdf {

enum class TermKind : std::uint8_t {
  kIri = 0,
  kLiteral = 1,
  kBlankNode = 2,
};

// Interned term identifier. Id 0 is reserved as "invalid / unbound".
using TermId = std::uint32_t;
inline constexpr TermId kInvalidTermId = 0;

class Term {
 public:
  // Factories -- the only way to build a Term.
  static Term Iri(std::string iri);
  static Term Literal(std::string lexical);
  static Term TypedLiteral(std::string lexical, std::string datatype_iri);
  static Term LangLiteral(std::string lexical, std::string language);
  static Term BlankNode(std::string label);

  Term() : kind_(TermKind::kIri) {}

  TermKind kind() const { return kind_; }
  bool is_iri() const { return kind_ == TermKind::kIri; }
  bool is_literal() const { return kind_ == TermKind::kLiteral; }
  bool is_blank() const { return kind_ == TermKind::kBlankNode; }

  // IRI string, literal lexical form, or blank node label depending on kind.
  const std::string& lexical() const { return lexical_; }
  // Datatype IRI; empty for plain literals and non-literals.
  const std::string& datatype() const { return datatype_; }
  // BCP-47 language tag; empty unless a language-tagged literal.
  const std::string& language() const { return language_; }

  // N-Triples serialization of this single term, with escaping: every
  // term ParseNTriples reads is written back so that it reads the same.
  std::string ToNTriples() const;

  friend bool operator==(const Term& a, const Term& b) {
    return a.kind_ == b.kind_ && a.lexical_ == b.lexical_ &&
           a.datatype_ == b.datatype_ && a.language_ == b.language_;
  }
  friend bool operator!=(const Term& a, const Term& b) { return !(a == b); }

  // Total order: by kind, then lexical, datatype, language. Used by sorted
  // containers and for deterministic output.
  friend bool operator<(const Term& a, const Term& b);

 private:
  // TermDictionary builds a new term straight from views of its fields.
  friend class TermDictionary;
  Term(TermKind kind, std::string_view lexical, std::string_view datatype,
       std::string_view language)
      : kind_(kind),
        lexical_(lexical),
        datatype_(datatype),
        language_(language) {}

  TermKind kind_;
  std::string lexical_;
  std::string datatype_;
  std::string language_;
};

// Escapes a string for embedding in an N-Triples literal.
std::string EscapeNTriplesString(std::string_view s);

}  // namespace rulelink::rdf

#endif  // RULELINK_RDF_TERM_H_
