// The reference N-Triples parser: the term-at-a-time parser that
// rdf::ParseNTriples replaced, kept as the differential oracle. It builds
// a Term, with its own strings, for every term occurrence, decodes every
// body, and inserts each line through Graph::Insert(Term, Term, Term).
// Slow and simple on purpose; only tests link it.
#ifndef RULELINK_TESTS_NTRIPLES_ORACLE_H_
#define RULELINK_TESTS_NTRIPLES_ORACLE_H_

#include <string_view>

#include "rdf/graph.h"
#include "rdf/term.h"
#include "util/status.h"

namespace rulelink::rdf::oracle {

// Parses N-Triples content into `graph`: InvalidArgument with a line
// number on the first syntax error, the lines before it inserted.
util::Status ParseNTriples(std::string_view content, Graph* graph);

// Parses a single N-Triples term, with nothing but whitespace after it.
util::Result<Term> ParseNTriplesTerm(std::string_view text);

}  // namespace rulelink::rdf::oracle

#endif  // RULELINK_TESTS_NTRIPLES_ORACLE_H_
