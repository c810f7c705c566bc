#include "rdf/ntriples.h"

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>
#include <string>
#include <system_error>

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

// One scanned term: views of its fields into the line, or into its term
// position's buffer when its body held escapes.
struct TermView {
  TermKind kind = TermKind::kIri;
  std::string_view lexical;
  std::string_view datatype;
  std::string_view language;
};

util::Status SyntaxError(std::size_t line_no, const std::string& what) {
  return util::InvalidArgumentError("N-Triples line " +
                                    std::to_string(line_no) + ": " + what);
}

// Decodes the \-escapes of an IRI or literal body into `*out`. Returns
// false with `*error` set on a bad escape.
bool Unescape(std::string_view body, std::string* out, std::string* error) {
  out->clear();
  for (std::size_t i = 0; i < body.size(); ++i) {
    const char c = body[i];
    if (c != '\\') {
      out->push_back(c);
      continue;
    }
    if (i + 1 >= body.size()) {
      *error = "dangling backslash escape";
      return false;
    }
    const char e = body[++i];
    switch (e) {
      case 't': out->push_back('\t'); break;
      case 'n': out->push_back('\n'); break;
      case 'r': out->push_back('\r'); break;
      case '"': out->push_back('"'); break;
      case '\\': out->push_back('\\'); break;
      case 'u':
      case 'U': {
        const std::size_t len = (e == 'u') ? 4 : 8;
        if (i + len >= body.size()) {
          *error = "truncated unicode escape";
          return false;
        }
        std::uint32_t code = 0;
        for (std::size_t k = 1; k <= len; ++k) {
          const char h = body[i + k];
          code <<= 4;
          if (h >= '0' && h <= '9') code |= static_cast<std::uint32_t>(h - '0');
          else if (h >= 'a' && h <= 'f') code |= static_cast<std::uint32_t>(h - 'a' + 10);
          else if (h >= 'A' && h <= 'F') code |= static_cast<std::uint32_t>(h - 'A' + 10);
          else {
            *error = "bad hex digit in unicode escape";
            return false;
          }
        }
        i += len;
        // UTF-8 encode.
        if (code < 0x80) {
          out->push_back(static_cast<char>(code));
        } else if (code < 0x800) {
          out->push_back(static_cast<char>(0xC0 | (code >> 6)));
          out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
        } else if (code < 0x10000) {
          out->push_back(static_cast<char>(0xE0 | (code >> 12)));
          out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
          out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
        } else {
          out->push_back(static_cast<char>(0xF0 | (code >> 18)));
          out->push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
          out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
          out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
        }
        break;
      }
      default:
        *error = std::string("unknown escape \\") + e;
        return false;
    }
  }
  return true;
}

// Sets `*value` to `body` with its escapes decoded: `body` itself when it
// holds no backslash, else its decoding in `*buffer`.
bool Decode(std::string_view body, bool has_escape, std::string* buffer,
            std::string_view* value, std::string* error) {
  if (!has_escape) {
    *value = body;
    return true;
  }
  if (!Unescape(body, buffer, error)) return false;
  *value = *buffer;
  return true;
}

// Scans the term at the cursor into `*term` and advances past it. Builds
// nothing: the fields are views into the line, or into `*buffer` for a
// body with escapes. Returns false with `*error` set on a syntax error.
bool ScanTerm(LineCursor* cur, std::string* buffer, TermView* term,
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
    const std::size_t close = text.find('>', cur->pos + 1);
    if (close == std::string_view::npos) {
      *error = "unterminated IRI";
      return false;
    }
    const auto body = text.substr(cur->pos + 1, close - cur->pos - 1);
    cur->pos = close + 1;
    term->kind = TermKind::kIri;
    return Decode(body, body.find('\\') != std::string_view::npos, buffer,
                  &term->lexical, error);
  }
  if (c == '_') {
    if (cur->pos + 1 >= text.size() || text[cur->pos + 1] != ':') {
      *error = "blank node must start with _:";
      return false;
    }
    std::size_t end = cur->pos + 2;
    while (end < text.size() && text[end] != ' ' && text[end] != '\t') {
      ++end;
    }
    const auto label = text.substr(cur->pos + 2, end - cur->pos - 2);
    if (label.empty()) {
      *error = "empty blank node label";
      return false;
    }
    cur->pos = end;
    term->kind = TermKind::kBlankNode;
    term->lexical = label;
    return true;
  }
  if (c == '"') {
    // The closing quote is the first one no backslash escapes. Each round
    // skips one escape pair; a body with no backslash takes one memchr.
    std::size_t from = cur->pos + 1;
    std::size_t close = text.find('"', from);
    bool has_escape = false;
    while (close != std::string_view::npos) {
      const std::size_t backslash =
          text.substr(from, close - from).find('\\');
      if (backslash == std::string_view::npos) break;
      has_escape = true;
      from += backslash + 2;  // past the escaped character
      if (from > close) close = text.find('"', from);
    }
    if (close == std::string_view::npos) {
      *error = "unterminated literal";
      return false;
    }
    const auto body = text.substr(cur->pos + 1, close - cur->pos - 1);
    cur->pos = close + 1;
    term->kind = TermKind::kLiteral;
    if (!Decode(body, has_escape, buffer, &term->lexical, error)) {
      return false;
    }
    // Optional @lang or ^^<datatype>.
    if (!cur->AtEnd() && cur->Peek() == '@') {
      std::size_t end = cur->pos + 1;
      while (end < text.size() &&
             (util::IsAsciiAlnum(text[end]) || text[end] == '-')) {
        ++end;
      }
      term->language = text.substr(cur->pos + 1, end - cur->pos - 1);
      if (term->language.empty()) {
        *error = "empty language tag";
        return false;
      }
      cur->pos = end;
      return true;
    }
    if (cur->pos + 1 < text.size() && cur->Peek() == '^' &&
        text[cur->pos + 1] == '^') {
      cur->pos += 2;
      if (cur->AtEnd() || cur->Peek() != '<') {
        *error = "datatype must be an IRI";
        return false;
      }
      const std::size_t close_dt = text.find('>', cur->pos + 1);
      if (close_dt == std::string_view::npos) {
        *error = "unterminated datatype IRI";
        return false;
      }
      term->datatype = text.substr(cur->pos + 1, close_dt - cur->pos - 1);
      cur->pos = close_dt + 1;
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
  // three terms stay valid together until it is interned.
  std::string buffers[3];
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
    if (!ScanTerm(&cur, &buffers[0], &subject, &error)) {
      return SyntaxError(line_no, error);
    }
    if (subject.kind == TermKind::kLiteral) {
      return SyntaxError(line_no, "literal in subject position");
    }
    if (!ScanTerm(&cur, &buffers[1], &predicate, &error)) {
      return SyntaxError(line_no, error);
    }
    if (predicate.kind != TermKind::kIri) {
      return SyntaxError(line_no, "predicate must be an IRI");
    }
    if (!ScanTerm(&cur, &buffers[2], &object, &error)) {
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
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return util::NotFoundError("cannot open file: " + path);
  }
  // One copy: reserve from a regular file's size, then read in chunks to
  // the end, which serves a pipe too. Only a regular file has a size: a
  // directory can report an end offset far past any real size.
  constexpr std::size_t kChunk = std::size_t{1} << 16;
  std::string content;
  std::error_code size_error;
  const std::uintmax_t size = std::filesystem::file_size(path, size_error);
  if (!size_error) content.reserve(static_cast<std::size_t>(size) + kChunk);
  std::size_t used = 0;
  while (in) {
    content.resize(used + kChunk);
    in.read(content.data() + used, static_cast<std::streamsize>(kChunk));
    used += static_cast<std::size_t>(in.gcount());
  }
  content.resize(used);
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
