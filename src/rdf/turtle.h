// Turtle-subset parser. Supported syntax: @prefix / PREFIX declarations,
// @base / BASE, prefixed names, the 'a' keyword, predicate lists (';'),
// object lists (','), IRIs, blank node labels, and literals with @lang or
// ^^datatype (IRI or prefixed). Blank node property lists '[...]' and
// collections '(...)' are not supported and produce a clear error.
//
// IRIs, quoted literals, language tags and blank-node labels are read by
// the scanners ParseNTriples uses, with the same escapes, so N-Triples
// input parses to the same graph under either parser. Prefixed names end
// as blank-node labels do, never with a '.'. Each triple is interned by
// views, as ParseNTriples does, and inserted as soon as its object is
// read: on an error, the triples before it stay in the graph.
#ifndef RULELINK_RDF_TURTLE_H_
#define RULELINK_RDF_TURTLE_H_

#include <string>
#include <string_view>

#include "rdf/graph.h"
#include "util/status.h"

namespace rulelink::rdf {

// InvalidArgument with a line number on the first syntax error.
util::Status ParseTurtle(std::string_view content, Graph* graph);
// ParseTurtle over the file at `path`, read by util::ReadFile (NotFound
// when it cannot be opened, InvalidArgument when it cannot be read).
util::Status ParseTurtleFile(const std::string& path, Graph* graph);

}  // namespace rulelink::rdf

#endif  // RULELINK_RDF_TURTLE_H_
