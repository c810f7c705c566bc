#include "rdf/ntriples.h"

#include <ostream>
#include <sstream>
#include <string>

#include "rdf/term_scan.h"
#include "util/file.h"
#include "util/string_util.h"

namespace rulelink::rdf {
namespace {

// Cursor over one physical line.
struct LineCursor {
  std::string_view text;
  std::size_t pos = 0;

  bool AtEnd() const { return pos >= text.size(); }
  char Peek() const { return text[pos]; }

  void SkipWhitespace() {
    while (!AtEnd() && (text[pos] == ' ' || text[pos] == '\t')) ++pos;
  }
};

util::Status SyntaxError(std::size_t line_no, const std::string& what) {
  return util::InvalidArgumentError("N-Triples line " +
                                    std::to_string(line_no) + ": " + what);
}

// Scans the term at the cursor into `*term` and advances past it. Builds
// nothing: the fields are views into the line, or into `*buffer` and
// `*datatype_buffer` for a body with escapes. Returns false with `*error`
// set on a syntax error.
bool ScanTerm(LineCursor* cur, std::string* buffer,
              std::string* datatype_buffer, TermView* term,
              std::string* error) {
  cur->SkipWhitespace();
  if (cur->AtEnd()) {
    *error = "expected term";
    return false;
  }
  const std::string_view text = cur->text;
  const char c = cur->Peek();
  *term = TermView{};
  if (c == '<') {
    term->kind = TermKind::kIri;
    return ScanIri(text, &cur->pos, buffer, &term->lexical, error);
  }
  if (c == '_') {
    if (cur->pos + 1 >= text.size() || text[cur->pos + 1] != ':') {
      *error = "blank node must start with _:";
      return false;
    }
    term->kind = TermKind::kBlankNode;
    return ScanBlankLabel(text, &cur->pos, &term->lexical, error);
  }
  if (c == '"') {
    term->kind = TermKind::kLiteral;
    if (!ScanQuoted(text, &cur->pos, buffer, &term->lexical, error)) {
      return false;
    }
    // Optional @lang or ^^<datatype>.
    if (!cur->AtEnd() && cur->Peek() == '@') {
      return ScanLanguage(text, &cur->pos, &term->language, error);
    }
    if (cur->pos + 1 < text.size() && cur->Peek() == '^' &&
        text[cur->pos + 1] == '^') {
      return ScanDatatype(text, &cur->pos, datatype_buffer, &term->datatype,
                          error);
    }
    return true;
  }
  *error = std::string("unexpected character '") + c + "'";
  return false;
}

TermId InternView(const TermView& term, TermDictionary* dict) {
  return dict->Intern(term.kind, term.lexical, term.datatype, term.language);
}

}  // namespace

util::Status ParseNTriples(std::string_view content, Graph* graph) {
  // One decode buffer per term position, reused line after line: a line's
  // three terms stay valid together until it is interned. Only the object
  // can be a literal, so one datatype buffer serves.
  std::string buffers[3];
  std::string datatype_buffer;
  TermView subject;
  TermView predicate;
  TermView object;
  std::string error;
  TermDictionary& dict = graph->dict();
  std::size_t line_no = 0;
  std::size_t start = 0;
  while (start <= content.size()) {
    std::size_t end = content.find('\n', start);
    if (end == std::string_view::npos) end = content.size();
    ++line_no;
    std::string_view raw = content.substr(start, end - start);
    start = end + 1;
    std::string_view line = util::StripAsciiWhitespace(raw);
    if (line.empty() || line[0] == '#') {
      if (end == content.size()) break;
      continue;
    }

    // Validate the whole line before interning anything, so a rejected
    // line leaves the graph and its dictionary untouched.
    LineCursor cur{line};
    if (!ScanTerm(&cur, &buffers[0], &datatype_buffer, &subject, &error)) {
      return SyntaxError(line_no, error);
    }
    if (subject.kind == TermKind::kLiteral) {
      return SyntaxError(line_no, "literal in subject position");
    }
    if (!ScanTerm(&cur, &buffers[1], &datatype_buffer, &predicate, &error)) {
      return SyntaxError(line_no, error);
    }
    if (predicate.kind != TermKind::kIri) {
      return SyntaxError(line_no, "predicate must be an IRI");
    }
    if (!ScanTerm(&cur, &buffers[2], &datatype_buffer, &object, &error)) {
      return SyntaxError(line_no, error);
    }

    cur.SkipWhitespace();
    if (cur.AtEnd() || cur.Peek() != '.') {
      return SyntaxError(line_no, "missing terminating '.'");
    }
    ++cur.pos;
    cur.SkipWhitespace();
    if (!cur.AtEnd() && cur.Peek() != '#') {
      return SyntaxError(line_no, "trailing characters after '.'");
    }
    const TermId s = InternView(subject, &dict);
    const TermId p = InternView(predicate, &dict);
    const TermId o = InternView(object, &dict);
    graph->Insert(Triple{s, p, o});
    if (end == content.size()) break;
  }
  return util::OkStatus();
}

util::Status ParseNTriplesFile(const std::string& path, Graph* graph) {
  RL_ASSIGN_OR_RETURN(const std::string content, util::ReadFile(path));
  return ParseNTriples(content, graph);
}

std::string WriteNTriples(const Graph& graph) {
  std::ostringstream os;
  WriteNTriples(graph, os);
  return os.str();
}

void WriteNTriples(const Graph& graph, std::ostream& os) {
  const auto& dict = graph.dict();
  for (const Triple& t : graph.triples()) {
    os << dict.term(t.subject).ToNTriples() << " "
       << dict.term(t.predicate).ToNTriples() << " "
       << dict.term(t.object).ToNTriples() << " .\n";
  }
}

}  // namespace rulelink::rdf
