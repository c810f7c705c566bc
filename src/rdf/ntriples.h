// N-Triples (W3C) parser and serializer. The parser accepts the line-based
// grammar: IRIs in angle brackets, blank nodes as _:label, literals with
// optional @lang or ^^<datatype>, '#' comments and blank lines.
#ifndef RULELINK_RDF_NTRIPLES_H_
#define RULELINK_RDF_NTRIPLES_H_

#include <iosfwd>
#include <string>
#include <string_view>

#include "rdf/graph.h"
#include "util/status.h"

namespace rulelink::rdf {

// Parses N-Triples content into `graph`. Returns InvalidArgument with a
// line number on the first syntax error.
util::Status ParseNTriples(std::string_view content, Graph* graph);

// Parses a file from disk.
util::Status ParseNTriplesFile(const std::string& path, Graph* graph);

// Parses a single N-Triples term (used by the parser and by tests).
util::Result<Term> ParseNTriplesTerm(std::string_view text);

// Serializes the whole graph as N-Triples, one triple per line, in
// insertion order (deterministic).
std::string WriteNTriples(const Graph& graph);
void WriteNTriples(const Graph& graph, std::ostream& os);

}  // namespace rulelink::rdf

#endif  // RULELINK_RDF_NTRIPLES_H_
