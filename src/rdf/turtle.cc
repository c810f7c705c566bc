#include "rdf/turtle.h"

#include <algorithm>
#include <string>
#include <unordered_map>

#include "rdf/term_scan.h"
#include "rdf/vocab.h"
#include "util/file.h"
#include "util/string_util.h"

namespace rulelink::rdf {
namespace {

// One term position of a statement: the term scanned there, the buffers
// its decoded, expanded or resolved fields live in, and the line it
// starts on. The subject and predicate keep theirs across ';' and ','.
struct Slot {
  TermView term;
  std::string lexical_buffer;
  std::string datatype_buffer;
  std::size_t line = 0;
};

class Parser {
 public:
  Parser(std::string_view text, Graph* graph) : text_(text), graph_(graph) {}

  util::Status Run() {
    for (Skip(); !AtEnd(); Skip()) {
      const std::string_view keyword = Keyword();
      if (keyword == "@prefix" || keyword == "PREFIX") {
        pos_ += keyword.size();
        RL_RETURN_IF_ERROR(ParsePrefix());
      } else if (keyword == "@base" || keyword == "BASE") {
        pos_ += keyword.size();
        RL_RETURN_IF_ERROR(ParseBase());
      } else {
        RL_RETURN_IF_ERROR(ParseStatement());
      }
    }
    return util::OkStatus();
  }

 private:
  bool AtEnd() const { return pos_ >= text_.size(); }
  char Peek() const { return text_[pos_]; }
  bool At(char c) const { return !AtEnd() && Peek() == c; }
  bool Consume(char c) {
    if (!At(c)) return false;
    ++pos_;
    return true;
  }

  util::Status Error(std::size_t line, const std::string& what) const {
    return util::InvalidArgumentError("Turtle line " + std::to_string(line) +
                                      ": " + what);
  }
  // OK, or the error a shared scanner left in error_.
  util::Status Check(bool scanned, std::size_t line) const {
    return scanned ? util::OkStatus() : Error(line, error_);
  }

  // Skips whitespace and comments, counting lines.
  void Skip() {
    while (!AtEnd()) {
      const char c = Peek();
      if (c == '\n') {
        ++line_;
        ++pos_;
      } else if (c == ' ' || c == '\t' || c == '\r') {
        ++pos_;
      } else if (c == '#') {
        pos_ = std::min(text_.find('\n', pos_), text_.size());
      } else {
        break;
      }
    }
  }

  // The keyword or prefixed name at the cursor: '@' and its letters, or a
  // bare word ending as a blank-node label does. Empty where any other
  // token starts.
  std::string_view Keyword() const {
    std::size_t end = pos_;
    if (At('@')) {
      ++end;
      while (end < text_.size() && util::IsAsciiAlpha(text_[end])) ++end;
    } else if (!AtEnd() && std::string_view(".;,<\"'_[(").find(Peek()) ==
                               std::string_view::npos) {
      end = NameEnd(text_, pos_);
    }
    return text_.substr(pos_, end - pos_);
  }

  // False where no term starts: at the end, at '.', ';' or ',', at 'a'
  // and at a directive.
  bool AtTerm() const {
    if (AtEnd() || Peek() == '.' || Peek() == ';' || Peek() == ',') {
      return false;
    }
    const std::string_view keyword = Keyword();
    return keyword != "a" && keyword != "@prefix" && keyword != "PREFIX" &&
           keyword != "@base" && keyword != "BASE";
  }

  // Reports that the grammar needs `what` here, unless the token at the
  // cursor is malformed: that reports its own error, as it would anywhere
  // else. (A prefixed name always scans.)
  util::Status Expected(const std::string& what) {
    const std::size_t line = line_;
    if (AtTerm() && Keyword().find(':') == std::string_view::npos) {
      Slot token;
      RL_RETURN_IF_ERROR(Lex(&token));
    }
    return Error(line, "expected " + what);
  }

  // Scans the term at the cursor into `*slot`: an IRI, a literal, a blank
  // node or a prefixed name, with prefixed names expanded and relative
  // IRIs resolved.
  util::Status Lex(Slot* slot) {
    const std::size_t line = line_;
    TermView& term = slot->term;
    term = TermView{};
    const char c = Peek();
    if (c == '<') {
      RL_RETURN_IF_ERROR(Check(
          ScanIri(text_, &pos_, &slot->lexical_buffer, &term.lexical, &error_),
          line));
      Resolve(&term.lexical, &slot->lexical_buffer);
      return util::OkStatus();
    }
    if (c == '"' || c == '\'') return LexLiteral(slot, line);
    if (c == '_') {
      if (pos_ + 1 >= text_.size() || text_[pos_ + 1] != ':') {
        return Error(line, "expected _: blank node");
      }
      term.kind = TermKind::kBlankNode;
      return Check(ScanBlankLabel(text_, &pos_, &term.lexical, &error_), line);
    }
    if (c == '[' || c == '(') {
      return Error(line,
                   "blank node property lists and collections are not "
                   "supported by this Turtle subset");
    }
    const std::string_view word = Keyword();
    if (c == '@') return Error(line, "unknown @-keyword: " + std::string(word));
    if (word.find(':') == std::string_view::npos) {
      return Error(line, "unexpected token: " + std::string(word));
    }
    pos_ += word.size();
    term.lexical = word;
    return Expand(line, &term.lexical, &slot->lexical_buffer);
  }

  // A literal starting on `line`. Its scanning errors name the line they
  // are found on, past any newlines in its body.
  util::Status LexLiteral(Slot* slot, std::size_t line) {
    TermView& term = slot->term;
    term.kind = TermKind::kLiteral;
    const std::size_t start = pos_;
    const bool scanned = ScanQuoted(text_, &pos_, &slot->lexical_buffer,
                                    &term.lexical, &error_);
    line_ += static_cast<std::size_t>(
        std::count(text_.begin() + start, text_.begin() + pos_, '\n'));
    if (!scanned) return Error(line_, error_);
    if (At('@')) {
      return Check(ScanLanguage(text_, &pos_, &term.language, &error_), line_);
    }
    if (pos_ + 1 >= text_.size() || Peek() != '^' || text_[pos_ + 1] != '^') {
      return util::OkStatus();
    }
    if (pos_ + 2 >= text_.size()) return Error(line_, "missing datatype");
    if (text_[pos_ + 2] == '<') {
      RL_RETURN_IF_ERROR(Check(ScanDatatype(text_, &pos_,
                                            &slot->datatype_buffer,
                                            &term.datatype, &error_),
                               line_));
      // An empty datatype, "^^<>", leaves a plain literal.
      if (!term.datatype.empty()) {
        Resolve(&term.datatype, &slot->datatype_buffer);
      }
      return util::OkStatus();
    }
    pos_ += 2;
    term.datatype = text_.substr(pos_, NameEnd(text_, pos_) - pos_);
    if (term.datatype.find(':') == std::string_view::npos) {
      return Error(line_, "datatype must be an IRI or prefixed name");
    }
    pos_ += term.datatype.size();
    return Expand(line, &term.datatype, &slot->datatype_buffer);
  }

  // Expands the prefixed name `*iri` to its namespace and local part, in
  // `*buffer`.
  util::Status Expand(std::size_t line, std::string_view* iri,
                      std::string* buffer) const {
    const std::size_t colon = iri->find(':');
    const std::string prefix(iri->substr(0, colon));
    const auto it = prefixes_.find(prefix);
    if (it == prefixes_.end()) {
      return Error(line, "undeclared prefix '" + prefix + ":'");
    }
    buffer->assign(it->second).append(iri->substr(colon + 1));
    *iri = *buffer;
    return util::OkStatus();
  }

  // Resolves the IRI `*iri` against @base when it is relative (simple
  // concatenation, no ../ normalization), in `*buffer`.
  void Resolve(std::string_view* iri, std::string* buffer) const {
    if (base_.empty() || iri->find("://") != std::string_view::npos) return;
    if (iri->data() == buffer->data()) {  // decoded into *buffer
      buffer->insert(0, base_);
    } else {
      buffer->assign(base_).append(*iri);
    }
    *iri = *buffer;
  }

  // Skips to the term at the cursor and scans it into `*slot`.
  util::Status ParseTerm(Slot* slot) {
    Skip();
    slot->line = line_;
    if (!AtTerm()) return Error(line_, "expected an RDF term");
    return Lex(slot);
  }

  // After @prefix or PREFIX: a name ending in ':', its namespace IRI and
  // an optional '.'.
  util::Status ParsePrefix() {
    Skip();
    const std::string_view name = Keyword();
    if (name.empty() || name.back() != ':') {
      return Expected("prefix name ending in ':'");
    }
    pos_ += name.size();
    Skip();
    if (!At('<')) return Expected("namespace IRI");
    Slot iri;
    RL_RETURN_IF_ERROR(Lex(&iri));
    prefixes_[std::string(name.substr(0, name.size() - 1))] =
        std::string(iri.term.lexical);
    Skip();
    Consume('.');
    return util::OkStatus();
  }

  // After @base or BASE: the base IRI, taken as written, and an optional
  // '.'.
  util::Status ParseBase() {
    Skip();
    if (!At('<')) return Expected("base IRI");
    std::string buffer;
    std::string_view iri;
    RL_RETURN_IF_ERROR(
        Check(ScanIri(text_, &pos_, &buffer, &iri, &error_), line_));
    base_ = std::string(iri);
    Skip();
    Consume('.');
    return util::OkStatus();
  }

  // A subject, then predicate lists split by ';' (a trailing one allowed)
  // of object lists split by ','. Each triple is interned by views, s, p
  // and o in turn, and inserted as soon as its object is read.
  util::Status ParseStatement() {
    RL_RETURN_IF_ERROR(ParseTerm(&subject_));
    if (subject_.term.kind == TermKind::kLiteral) {
      return Error(subject_.line, "literal in subject position");
    }
    do {
      Skip();
      if (Keyword() == "a") {
        ++pos_;
        predicate_.term = TermView{TermKind::kIri, vocab::kRdfType, {}, {}};
      } else {
        RL_RETURN_IF_ERROR(ParseTerm(&predicate_));
        if (predicate_.term.kind != TermKind::kIri) {
          return Error(predicate_.line, "predicate must be an IRI");
        }
      }
      do {
        RL_RETURN_IF_ERROR(ParseTerm(&object_));
        graph_->Insert(Triple{Intern(subject_.term), Intern(predicate_.term),
                              Intern(object_.term)});
        Skip();
      } while (Consume(','));
      if (!Consume(';')) break;
      Skip();
    } while (!At('.'));
    if (!Consume('.')) return Expected("'.'");
    return util::OkStatus();
  }

  TermId Intern(const TermView& term) {
    return graph_->dict().Intern(term.kind, term.lexical, term.datatype,
                                 term.language);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t line_ = 1;
  Graph* graph_;
  Slot subject_;
  Slot predicate_;
  Slot object_;
  std::string error_;
  std::unordered_map<std::string, std::string> prefixes_;
  std::string base_;
};

}  // namespace

util::Status ParseTurtle(std::string_view content, Graph* graph) {
  return Parser(content, graph).Run();
}

util::Status ParseTurtleFile(const std::string& path, Graph* graph) {
  RL_ASSIGN_OR_RETURN(const std::string content, util::ReadFile(path));
  return ParseTurtle(content, graph);
}

}  // namespace rulelink::rdf
