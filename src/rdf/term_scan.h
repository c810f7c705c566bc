// The term syntax N-Triples, Turtle and SPARQL share, as scanners over a
// text: IRI references, quoted strings, language tags, ^^<IRI> datatypes
// and blank-node labels, and the one escape decoder behind them. Each
// scanner starts where its caller's dispatch found the term's first
// character, moves the cursor `*pos` past what it reads and hands back a
// view: into the text, or into the caller's `*buffer` when the body held
// escapes. On a syntax error it returns false with `*error` set, and the
// caller prefixes its own "<format> line N: ". Internal to src/rdf, and
// defined here so ParseNTriples' loop can inline them.
#ifndef RULELINK_RDF_TERM_SCAN_H_
#define RULELINK_RDF_TERM_SCAN_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "rdf/term.h"
#include "util/string_util.h"

namespace rulelink::rdf {

// One scanned term: views of its fields, into the text or into buffers.
struct TermView {
  TermKind kind = TermKind::kIri;
  std::string_view lexical;
  std::string_view datatype;
  std::string_view language;
};

// Decodes the escapes of an IRI or quoted-string body into `*out`:
// \t \n \r \" \' \\ and \uXXXX / \UXXXXXXXX, the last two as UTF-8.
inline bool Unescape(std::string_view body, std::string* out,
                     std::string* error) {
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
      case '\'': out->push_back('\''); break;
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

// Views the body between the opener at text[*pos] and the closer at
// text[close], decoded when `has_escape`, and moves `*pos` past the closer.
inline bool DecodeBody(std::string_view text, std::size_t* pos,
                       std::size_t close, bool has_escape,
                       std::string* buffer, std::string_view* value,
                       std::string* error) {
  const std::string_view body = text.substr(*pos + 1, close - *pos - 1);
  *pos = close + 1;
  if (!has_escape) {
    *value = body;
    return true;
  }
  if (!Unescape(body, buffer, error)) return false;
  *value = *buffer;
  return true;
}

// The IRI reference at text[*pos] == '<': up to the first '>'.
inline bool ScanIri(std::string_view text, std::size_t* pos,
                    std::string* buffer, std::string_view* iri,
                    std::string* error) {
  const std::size_t close = text.find('>', *pos + 1);
  if (close == std::string_view::npos) {
    *error = "unterminated IRI";
    return false;
  }
  const bool has_escape =
      text.substr(*pos, close - *pos).find('\\') != std::string_view::npos;
  return DecodeBody(text, pos, close, has_escape, buffer, iri, error);
}

// The quoted string at text[*pos], a '"' or a '\'': up to the first copy
// of that quote no backslash escapes. An unterminated string moves `*pos`
// to the end of the text.
inline bool ScanQuoted(std::string_view text, std::size_t* pos,
                       std::string* buffer, std::string_view* value,
                       std::string* error) {
  // Each round skips one escape pair; a body with no backslash takes one
  // memchr.
  const char quote = text[*pos];
  std::size_t from = *pos + 1;
  std::size_t close = text.find(quote, from);
  bool has_escape = false;
  while (close != std::string_view::npos) {
    const std::size_t backslash = text.substr(from, close - from).find('\\');
    if (backslash == std::string_view::npos) break;
    has_escape = true;
    from += backslash + 2;  // past the escaped character
    if (from > close) close = text.find(quote, from);
  }
  if (close == std::string_view::npos) {
    *pos = text.size();
    *error = "unterminated literal";
    return false;
  }
  return DecodeBody(text, pos, close, has_escape, buffer, value, error);
}

// The language tag at text[*pos] == '@': letters, digits and '-'.
inline bool ScanLanguage(std::string_view text, std::size_t* pos,
                         std::string_view* language, std::string* error) {
  std::size_t end = *pos + 1;
  while (end < text.size() &&
         (util::IsAsciiAlnum(text[end]) || text[end] == '-')) {
    ++end;
  }
  *language = text.substr(*pos + 1, end - *pos - 1);
  *pos = end;
  if (language->empty()) {
    *error = "empty language tag";
    return false;
  }
  return true;
}

// The datatype of the "^^<IRI>" at text[*pos], decoded like any IRI.
inline bool ScanDatatype(std::string_view text, std::size_t* pos,
                         std::string* buffer, std::string_view* datatype,
                         std::string* error) {
  *pos += 2;  // past "^^"
  if (*pos >= text.size() || text[*pos] != '<') {
    *error = "datatype must be an IRI";
    return false;
  }
  if (text.find('>', *pos + 1) == std::string_view::npos) {
    *error = "unterminated datatype IRI";
    return false;
  }
  return ScanIri(text, pos, buffer, datatype, error);
}

// Where the name starting at text[from] ends: at whitespace or at one of
// ; , # " ' < ( ) [ ] { }, less any trailing '.'. Blank-node labels end
// here, and so do Turtle's prefixed names.
inline std::size_t NameEnd(std::string_view text, std::size_t from) {
  constexpr std::string_view kBreaks = " \t\n\r;,#\"'<()[]{}";
  std::size_t end = from;
  while (end < text.size() && kBreaks.find(text[end]) == kBreaks.npos) ++end;
  while (end > from && text[end - 1] == '.') --end;
  return end;
}

// The label of the blank node whose "_:" starts at text[*pos].
inline bool ScanBlankLabel(std::string_view text, std::size_t* pos,
                           std::string_view* label, std::string* error) {
  const std::size_t from = *pos + 2;
  const std::size_t end = NameEnd(text, from);
  if (end == from) {
    *error = "empty blank node label";
    return false;
  }
  *label = text.substr(from, end - from);
  *pos = end;
  return true;
}

}  // namespace rulelink::rdf

#endif  // RULELINK_RDF_TERM_SCAN_H_
