#include "rdf/term.h"

namespace rulelink::rdf {

Term Term::Iri(std::string iri) {
  Term t;
  t.kind_ = TermKind::kIri;
  t.lexical_ = std::move(iri);
  return t;
}

Term Term::Literal(std::string lexical) {
  Term t;
  t.kind_ = TermKind::kLiteral;
  t.lexical_ = std::move(lexical);
  return t;
}

Term Term::TypedLiteral(std::string lexical, std::string datatype_iri) {
  Term t;
  t.kind_ = TermKind::kLiteral;
  t.lexical_ = std::move(lexical);
  t.datatype_ = std::move(datatype_iri);
  return t;
}

Term Term::LangLiteral(std::string lexical, std::string language) {
  Term t;
  t.kind_ = TermKind::kLiteral;
  t.lexical_ = std::move(lexical);
  t.language_ = std::move(language);
  return t;
}

Term Term::BlankNode(std::string label) {
  Term t;
  t.kind_ = TermKind::kBlankNode;
  t.lexical_ = std::move(label);
  return t;
}

std::string EscapeNTriplesString(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

namespace {

// Appends `iri` as an IRIREF, <...>: every byte IRIREF forbids (0x00-0x20
// and <>"{}|^`\) written as \u00XX, which every parser here decodes back.
void AppendIriRef(std::string_view iri, std::string* out) {
  static constexpr char kHex[] = "0123456789ABCDEF";
  static constexpr std::string_view kForbidden = "<>\"{}|^`\\";
  out->push_back('<');
  for (const char c : iri) {
    const auto byte = static_cast<unsigned char>(c);
    if (byte > 0x20 && kForbidden.find(c) == std::string_view::npos) {
      out->push_back(c);
      continue;
    }
    out->append("\\u00");
    out->push_back(kHex[byte >> 4]);
    out->push_back(kHex[byte & 0xF]);
  }
  out->push_back('>');
}

}  // namespace

std::string Term::ToNTriples() const {
  switch (kind_) {
    case TermKind::kIri: {
      std::string out;
      AppendIriRef(lexical_, &out);
      return out;
    }
    case TermKind::kBlankNode:
      return "_:" + lexical_;
    case TermKind::kLiteral: {
      std::string out = "\"" + EscapeNTriplesString(lexical_) + "\"";
      if (!language_.empty()) {
        out += "@" + language_;
      } else if (!datatype_.empty()) {
        out += "^^";
        AppendIriRef(datatype_, &out);
      }
      return out;
    }
  }
  return "";
}

bool operator<(const Term& a, const Term& b) {
  if (a.kind_ != b.kind_) return a.kind_ < b.kind_;
  if (a.lexical_ != b.lexical_) return a.lexical_ < b.lexical_;
  if (a.datatype_ != b.datatype_) return a.datatype_ < b.datatype_;
  return a.language_ < b.language_;
}

}  // namespace rulelink::rdf
