#include "ntriples_oracle.h"

#include <string>

#include "util/string_util.h"

namespace rulelink::rdf::oracle {
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

// Decodes \-escapes inside an IRI or literal body.
util::Result<std::string> Unescape(std::string_view body) {
  std::string out;
  out.reserve(body.size());
  for (std::size_t i = 0; i < body.size(); ++i) {
    const char c = body[i];
    if (c != '\\') {
      out.push_back(c);
      continue;
    }
    if (i + 1 >= body.size()) {
      return util::Status(util::StatusCode::kInvalidArgument,
                          "dangling backslash escape");
    }
    const char e = body[++i];
    switch (e) {
      case 't': out.push_back('\t'); break;
      case 'n': out.push_back('\n'); break;
      case 'r': out.push_back('\r'); break;
      case '"': out.push_back('"'); break;
      case '\'': out.push_back('\''); break;
      case '\\': out.push_back('\\'); break;
      case 'u':
      case 'U': {
        const std::size_t len = (e == 'u') ? 4 : 8;
        if (i + len >= body.size()) {
          return util::Status(util::StatusCode::kInvalidArgument,
                              "truncated unicode escape");
        }
        std::uint32_t code = 0;
        for (std::size_t k = 1; k <= len; ++k) {
          const char h = body[i + k];
          code <<= 4;
          if (h >= '0' && h <= '9') code |= static_cast<std::uint32_t>(h - '0');
          else if (h >= 'a' && h <= 'f') code |= static_cast<std::uint32_t>(h - 'a' + 10);
          else if (h >= 'A' && h <= 'F') code |= static_cast<std::uint32_t>(h - 'A' + 10);
          else
            return util::Status(util::StatusCode::kInvalidArgument,
                                "bad hex digit in unicode escape");
        }
        i += len;
        // UTF-8 encode.
        if (code < 0x80) {
          out.push_back(static_cast<char>(code));
        } else if (code < 0x800) {
          out.push_back(static_cast<char>(0xC0 | (code >> 6)));
          out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
        } else if (code < 0x10000) {
          out.push_back(static_cast<char>(0xE0 | (code >> 12)));
          out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
          out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
        } else {
          out.push_back(static_cast<char>(0xF0 | (code >> 18)));
          out.push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
          out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
          out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
        }
        break;
      }
      default:
        return util::Status(util::StatusCode::kInvalidArgument,
                            std::string("unknown escape \\") + e);
    }
  }
  return out;
}

// Parses one term starting at the cursor; advances past it.
util::Result<Term> ParseTermAt(LineCursor* cur) {
  cur->SkipWhitespace();
  if (cur->AtEnd()) {
    return util::Status(util::StatusCode::kInvalidArgument, "expected term");
  }
  const char c = cur->Peek();
  if (c == '<') {
    const std::size_t close = cur->text.find('>', cur->pos + 1);
    if (close == std::string_view::npos) {
      return util::Status(util::StatusCode::kInvalidArgument,
                          "unterminated IRI");
    }
    auto body = cur->text.substr(cur->pos + 1, close - cur->pos - 1);
    cur->pos = close + 1;
    auto unescaped = Unescape(body);
    if (!unescaped.ok()) return unescaped.status();
    return Term::Iri(std::move(unescaped).value());
  }
  if (c == '_') {
    if (cur->pos + 1 >= cur->text.size() || cur->text[cur->pos + 1] != ':') {
      return util::Status(util::StatusCode::kInvalidArgument,
                          "blank node must start with _:");
    }
    // The label runs to whitespace or a delimiter, less trailing dots.
    std::size_t end = cur->pos + 2;
    while (end < cur->text.size() &&
           std::string_view(" \t\n\r;,#\"'<()[]{}").find(cur->text[end]) ==
               std::string_view::npos) {
      ++end;
    }
    while (end > cur->pos + 2 && cur->text[end - 1] == '.') --end;
    auto label = cur->text.substr(cur->pos + 2, end - cur->pos - 2);
    if (label.empty()) {
      return util::Status(util::StatusCode::kInvalidArgument,
                          "empty blank node label");
    }
    cur->pos = end;
    return Term::BlankNode(std::string(label));
  }
  if (c == '"') {
    // Find the closing quote, honoring escapes.
    std::size_t i = cur->pos + 1;
    bool escaped = false;
    while (i < cur->text.size()) {
      if (escaped) {
        escaped = false;
      } else if (cur->text[i] == '\\') {
        escaped = true;
      } else if (cur->text[i] == '"') {
        break;
      }
      ++i;
    }
    if (i >= cur->text.size()) {
      return util::Status(util::StatusCode::kInvalidArgument,
                          "unterminated literal");
    }
    auto body = cur->text.substr(cur->pos + 1, i - cur->pos - 1);
    cur->pos = i + 1;
    auto lexical = Unescape(body);
    if (!lexical.ok()) return lexical.status();
    // Optional @lang or ^^<datatype>.
    if (!cur->AtEnd() && cur->Peek() == '@') {
      std::size_t end = cur->pos + 1;
      while (end < cur->text.size() &&
             (util::IsAsciiAlnum(cur->text[end]) || cur->text[end] == '-')) {
        ++end;
      }
      auto lang = cur->text.substr(cur->pos + 1, end - cur->pos - 1);
      if (lang.empty()) {
        return util::Status(util::StatusCode::kInvalidArgument,
                            "empty language tag");
      }
      cur->pos = end;
      return Term::LangLiteral(std::move(lexical).value(), std::string(lang));
    }
    if (cur->pos + 1 < cur->text.size() && cur->Peek() == '^' &&
        cur->text[cur->pos + 1] == '^') {
      cur->pos += 2;
      if (cur->AtEnd() || cur->Peek() != '<') {
        return util::Status(util::StatusCode::kInvalidArgument,
                            "datatype must be an IRI");
      }
      const std::size_t close = cur->text.find('>', cur->pos + 1);
      if (close == std::string_view::npos) {
        return util::Status(util::StatusCode::kInvalidArgument,
                            "unterminated datatype IRI");
      }
      auto dt = Unescape(cur->text.substr(cur->pos + 1, close - cur->pos - 1));
      if (!dt.ok()) return dt.status();
      cur->pos = close + 1;
      return Term::TypedLiteral(std::move(lexical).value(),
                                std::move(dt).value());
    }
    return Term::Literal(std::move(lexical).value());
  }
  return util::Status(util::StatusCode::kInvalidArgument,
                      std::string("unexpected character '") + c + "'");
}

}  // namespace

util::Result<Term> ParseNTriplesTerm(std::string_view text) {
  LineCursor cur{text};
  auto term = ParseTermAt(&cur);
  if (!term.ok()) return term;
  cur.SkipWhitespace();
  if (!cur.AtEnd()) {
    return util::Status(util::StatusCode::kInvalidArgument,
                        "trailing characters after term");
  }
  return term;
}

util::Status ParseNTriples(std::string_view content, Graph* graph) {
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

    LineCursor cur{line};
    auto s = ParseTermAt(&cur);
    if (!s.ok()) return SyntaxError(line_no, s.status().message());
    if (s.value().is_literal()) {
      return SyntaxError(line_no, "literal in subject position");
    }
    auto p = ParseTermAt(&cur);
    if (!p.ok()) return SyntaxError(line_no, p.status().message());
    if (!p.value().is_iri()) {
      return SyntaxError(line_no, "predicate must be an IRI");
    }
    auto o = ParseTermAt(&cur);
    if (!o.ok()) return SyntaxError(line_no, o.status().message());

    cur.SkipWhitespace();
    if (cur.AtEnd() || cur.Peek() != '.') {
      return SyntaxError(line_no, "missing terminating '.'");
    }
    ++cur.pos;
    cur.SkipWhitespace();
    if (!cur.AtEnd() && cur.Peek() != '#') {
      return SyntaxError(line_no, "trailing characters after '.'");
    }
    graph->Insert(s.value(), p.value(), o.value());
    if (end == content.size()) break;
  }
  return util::OkStatus();
}


}  // namespace rulelink::rdf::oracle
