#include "rdf/sparql.h"

#include <algorithm>
#include <memory>
#include <regex>
#include <unordered_map>

#include "rdf/term_scan.h"
#include "rdf/vocab.h"
#include "util/string_util.h"

namespace rulelink::rdf {
namespace {

// Token-level scanner for variables, keywords and words, which are
// SPARQL's own. IRIs, quoted literals and language tags go through the
// term scanners N-Triples and Turtle use (rdf/term_scan.h), so a query
// names a term with the same escapes a data file does.
class Scanner {
 public:
  explicit Scanner(std::string_view text) : text_(text) {}

  util::Status error(const std::string& what) const {
    return util::InvalidArgumentError("SPARQL line " +
                                      std::to_string(line_) + ": " + what);
  }

  void SkipSpace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '\n') {
        ++line_;
        ++pos_;
      } else if (c == ' ' || c == '\t' || c == '\r') {
        ++pos_;
      } else if (c == '#') {
        while (pos_ < text_.size() && text_[pos_] != '\n') ++pos_;
      } else {
        break;
      }
    }
  }

  bool AtEnd() {
    SkipSpace();
    return pos_ >= text_.size();
  }

  char Peek() {
    SkipSpace();
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  bool Consume(char c) {
    if (Peek() != c) return false;
    ++pos_;
    return true;
  }

  // Reads a bare word (keyword or prefixed name chunk).
  std::string Word() {
    SkipSpace();
    std::size_t end = pos_;
    while (end < text_.size() && !IsBreak(text_[end])) ++end;
    std::string word(text_.substr(pos_, end - pos_));
    pos_ = end;
    return word;
  }

  // Case-insensitive keyword match without consuming on failure.
  bool Keyword(std::string_view kw) {
    SkipSpace();
    if (pos_ + kw.size() > text_.size()) return false;
    for (std::size_t i = 0; i < kw.size(); ++i) {
      char a = text_[pos_ + i];
      if (a >= 'a' && a <= 'z') a = static_cast<char>(a - 'a' + 'A');
      if (a != kw[i]) return false;
    }
    const std::size_t after = pos_ + kw.size();
    if (after < text_.size() && !IsBreak(text_[after])) return false;
    pos_ = after;
    return true;
  }

  util::Result<std::string> IriRef() {
    std::string_view iri;
    if (!ScanIri(text_, &pos_, &buffer_, &iri, &scan_error_)) {
      return error(scan_error_);
    }
    return std::string(iri);
  }

  util::Result<std::string> VariableName() {
    ++pos_;  // past '?' or '$'
    std::size_t end = pos_;
    while (end < text_.size() &&
           (util::IsAsciiAlnum(text_[end]) || text_[end] == '_')) {
      ++end;
    }
    if (end == pos_) return error("empty variable name");
    std::string name(text_.substr(pos_, end - pos_));
    pos_ = end;
    return name;
  }

  // A quoted literal with an optional @lang or ^^<IRI>. Error lines count
  // the newlines in its body.
  util::Result<Term> LiteralTerm() {
    const std::size_t start = pos_;
    std::string_view body;
    const bool scanned =
        ScanQuoted(text_, &pos_, &buffer_, &body, &scan_error_);
    line_ += static_cast<std::size_t>(
        std::count(text_.begin() + start, text_.begin() + pos_, '\n'));
    if (!scanned) return error(scan_error_);
    std::string lexical(body);
    if (pos_ < text_.size() && text_[pos_] == '@') {
      std::string_view lang;
      if (!ScanLanguage(text_, &pos_, &lang, &scan_error_)) {
        return error(scan_error_);
      }
      return Term::LangLiteral(std::move(lexical), std::string(lang));
    }
    if (pos_ + 1 < text_.size() && text_[pos_] == '^' &&
        text_[pos_ + 1] == '^') {
      pos_ += 2;
      if (pos_ < text_.size() && text_[pos_] == '<') {
        RL_ASSIGN_OR_RETURN(std::string iri, IriRef());
        return Term::TypedLiteral(std::move(lexical), std::move(iri));
      }
      return error("datatype must be <IRI> (prefixed datatypes: expand "
                   "manually)");
    }
    return Term::Literal(std::move(lexical));
  }

  static bool IsBreak(char c) {
    return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '{' ||
           c == '}' || c == '.' || c == ';' || c == ',' || c == '#' ||
           c == '<' || c == '"' || c == '\'' || c == '?' || c == '$' ||
           c == '(' || c == ')';
  }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t line_ = 1;
  std::string buffer_;      // decoded IRI and literal bodies
  std::string scan_error_;  // the shared scanners' last error
};

class SparqlParser {
 public:
  explicit SparqlParser(std::string_view text) : scan_(text) {}

  util::Result<ParsedSparql> Parse() {
    ParsedSparql out;
    // PREFIX declarations.
    while (scan_.Keyword("PREFIX")) {
      const std::string pname = scan_.Word();
      if (pname.empty() || pname.back() != ':') {
        return scan_.error("expected prefix name ending in ':'");
      }
      if (scan_.Peek() != '<') return scan_.error("expected namespace IRI");
      RL_ASSIGN_OR_RETURN(std::string iri, scan_.IriRef());
      prefixes_[pname.substr(0, pname.size() - 1)] = std::move(iri);
    }
    if (!scan_.Keyword("SELECT")) return scan_.error("expected SELECT");
    if (scan_.Keyword("DISTINCT")) out.query.Distinct();
    // Projection list.
    if (scan_.Peek() == '*') {
      scan_.Consume('*');
    } else {
      while (scan_.Peek() == '?' || scan_.Peek() == '$') {
        RL_ASSIGN_OR_RETURN(std::string name, scan_.VariableName());
        out.projection.push_back(std::move(name));
      }
      if (out.projection.empty()) {
        return scan_.error("SELECT needs '*' or at least one variable");
      }
    }
    if (!scan_.Keyword("WHERE")) return scan_.error("expected WHERE");
    if (!scan_.Consume('{')) return scan_.error("expected '{'");

    // Triple patterns and FILTERs until '}'.
    while (scan_.Peek() != '}') {
      if (scan_.AtEnd()) return scan_.error("unterminated WHERE block");
      if (scan_.Keyword("FILTER")) {
        RL_RETURN_IF_ERROR(ParseFilter(&out.query));
        if (scan_.Consume('.')) continue;  // optional separator
        continue;
      }
      RL_ASSIGN_OR_RETURN(QueryTerm subject, ParseTerm(/*predicate=*/false));
      RL_ASSIGN_OR_RETURN(QueryTerm predicate, ParseTerm(/*predicate=*/true));
      RL_ASSIGN_OR_RETURN(QueryTerm object, ParseTerm(/*predicate=*/false));
      out.query.Add(std::move(subject), std::move(predicate),
                    std::move(object));
      if (!scan_.Consume('.') && scan_.Peek() != '}') {
        return scan_.error("expected '.' between patterns");
      }
    }
    scan_.Consume('}');
    if (scan_.Keyword("LIMIT")) {
      const std::string number = scan_.Word();
      unsigned long long limit = 0;
      if (!util::ParseUint64(number, &limit) || limit == 0) {
        return scan_.error("LIMIT needs a positive integer");
      }
      out.query.Limit(static_cast<std::size_t>(limit));
    }
    if (!scan_.AtEnd()) {
      return scan_.error("unexpected trailing input (OPTIONAL/UNION/FILTER "
                         "are not supported by this subset)");
    }
    return out;
  }

 private:
  // FILTER regex(?v, "pattern" [, "i"])  or  FILTER (?a != ?b).
  util::Status ParseFilter(Query* query) {
    if (scan_.Keyword("REGEX")) {
      if (!scan_.Consume('(')) return scan_.error("expected '('");
      if (scan_.Peek() != '?' && scan_.Peek() != '$') {
        return scan_.error("regex filter needs a variable");
      }
      RL_ASSIGN_OR_RETURN(std::string variable, scan_.VariableName());
      if (!scan_.Consume(',')) return scan_.error("expected ','");
      if (scan_.Peek() != '"' && scan_.Peek() != '\'') {
        return scan_.error("regex filter needs a pattern literal");
      }
      RL_ASSIGN_OR_RETURN(Term pattern_term, scan_.LiteralTerm());
      bool case_insensitive = false;
      if (scan_.Consume(',')) {
        if (scan_.Peek() != '"' && scan_.Peek() != '\'') {
          return scan_.error("regex flags must be a literal");
        }
        RL_ASSIGN_OR_RETURN(Term flags, scan_.LiteralTerm());
        if (flags.lexical() == "i") {
          case_insensitive = true;
        } else if (!flags.lexical().empty()) {
          return scan_.error("unsupported regex flags '" + flags.lexical() +
                             "'");
        }
      }
      if (!scan_.Consume(')')) return scan_.error("expected ')'");
      std::regex::flag_type flags = std::regex::ECMAScript;
      if (case_insensitive) flags |= std::regex::icase;
      std::shared_ptr<std::regex> re;
      try {
        re = std::make_shared<std::regex>(pattern_term.lexical(), flags);
      } catch (const std::regex_error& e) {
        return scan_.error(std::string("bad regex: ") + e.what());
      }
      query->Filter(variable, [re](const Term& term) {
        return std::regex_search(term.lexical(), *re);
      });
      return util::OkStatus();
    }
    if (!scan_.Consume('(')) {
      return scan_.error(
          "only FILTER regex(...) and FILTER (?a != ?b) are supported");
    }
    if (scan_.Peek() != '?' && scan_.Peek() != '$') {
      return scan_.error("expected variable in filter");
    }
    RL_ASSIGN_OR_RETURN(std::string a, scan_.VariableName());
    if (!scan_.Consume('!') || !scan_.Consume('=')) {
      return scan_.error("only '!=' comparisons are supported");
    }
    if (scan_.Peek() != '?' && scan_.Peek() != '$') {
      return scan_.error("expected variable after '!='");
    }
    RL_ASSIGN_OR_RETURN(std::string b, scan_.VariableName());
    if (!scan_.Consume(')')) return scan_.error("expected ')'");
    query->NotEqual(std::move(a), std::move(b));
    return util::OkStatus();
  }

  util::Result<QueryTerm> ParseTerm(bool predicate) {
    const char c = scan_.Peek();
    if (c == '?' || c == '$') {
      RL_ASSIGN_OR_RETURN(std::string name, scan_.VariableName());
      return Var(std::move(name));
    }
    if (c == '<') {
      RL_ASSIGN_OR_RETURN(std::string iri, scan_.IriRef());
      return QueryTerm::Constant(Term::Iri(std::move(iri)));
    }
    if (c == '"' || c == '\'') {
      if (predicate) return scan_.error("literal in predicate position");
      RL_ASSIGN_OR_RETURN(Term term, scan_.LiteralTerm());
      return QueryTerm::Constant(std::move(term));
    }
    const std::string word = scan_.Word();
    if (word == "a") {
      return QueryTerm::Constant(Term::Iri(vocab::kRdfType));
    }
    const std::size_t colon = word.find(':');
    if (colon == std::string::npos) {
      return scan_.error("expected term, got '" + word + "'");
    }
    auto it = prefixes_.find(word.substr(0, colon));
    if (it == prefixes_.end()) {
      return scan_.error("undeclared prefix '" + word.substr(0, colon) +
                         ":'");
    }
    return QueryTerm::Constant(Term::Iri(it->second + word.substr(colon + 1)));
  }

  Scanner scan_;
  std::unordered_map<std::string, std::string> prefixes_;
};

}  // namespace

util::Result<ParsedSparql> ParseSparql(std::string_view text) {
  return SparqlParser(text).Parse();
}

util::Result<std::vector<std::vector<std::string>>> RunSparql(
    const Graph& graph, std::string_view text) {
  RL_ASSIGN_OR_RETURN(ParsedSparql parsed, ParseSparql(text));
  std::vector<std::string> projection = parsed.projection;
  if (projection.empty()) projection = parsed.query.Variables();
  // Validate projection against mentioned variables.
  {
    const auto mentioned = parsed.query.Variables();
    for (const std::string& name : projection) {
      if (std::find(mentioned.begin(), mentioned.end(), name) ==
          mentioned.end()) {
        return util::InvalidArgumentError("SELECT variable ?" + name +
                                          " not used in WHERE");
      }
    }
  }
  RL_ASSIGN_OR_RETURN(std::vector<Bindings> rows,
                      Evaluate(graph, parsed.query));
  std::vector<std::vector<std::string>> out;
  out.reserve(rows.size());
  for (const Bindings& row : rows) {
    std::vector<std::string> cells;
    cells.reserve(projection.size());
    for (const std::string& name : projection) {
      const Term& term = graph.dict().term(row.at(name));
      cells.push_back(term.is_literal() ? term.lexical()
                                        : term.ToNTriples());
    }
    out.push_back(std::move(cells));
  }
  return out;
}

}  // namespace rulelink::rdf
