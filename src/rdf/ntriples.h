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
// line number on the first syntax error; the lines before it stay in the
// graph, and nothing of the bad line is interned. Each term is scanned as
// views into its line and interned by those views, so only a term the
// graph's dictionary has not seen is copied.
util::Status ParseNTriples(std::string_view content, Graph* graph);

// Parses a file from disk (or a pipe), read into memory once by
// util::ReadFile: NotFound when it cannot be opened, InvalidArgument when
// it cannot be read (a directory).
util::Status ParseNTriplesFile(const std::string& path, Graph* graph);

// Serializes the whole graph as N-Triples, one triple per line, in
// insertion order (deterministic).
std::string WriteNTriples(const Graph& graph);
void WriteNTriples(const Graph& graph, std::ostream& os);

}  // namespace rulelink::rdf

#endif  // RULELINK_RDF_NTRIPLES_H_
