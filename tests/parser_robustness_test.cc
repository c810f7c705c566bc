// Parser robustness: random mutations of valid inputs must never crash or
// corrupt state — every outcome is either a parsed graph or a clean
// InvalidArgument status. (The library is exception-free; a throw or
// abort anywhere in the parsing path fails the test run itself.)
#include <string>

#include <gtest/gtest.h>

#include "fuzz_mutate.h"
#include "io/csv.h"
#include "rdf/ntriples.h"
#include "rdf/sparql.h"
#include "rdf/turtle.h"
#include "util/rng.h"

namespace rulelink {
namespace {

using fuzz::Mutate;

constexpr char kValidNTriples[] =
    "<http://e/a> <http://e/p> <http://e/b> .\n"
    "<http://e/a> <http://e/q> \"literal with \\\"escapes\\\"\" .\n"
    "_:b1 <http://e/p> \"42\"^^<http://e/int> .\n"
    "<http://e/c> <http://e/p> \"lang\"@en-GB .\n";

constexpr char kValidTurtle[] =
    "@prefix ex: <http://e/> .\n"
    "ex:a a ex:Class ; ex:p ex:b , \"v\" ;\n"
    "     ex:q \"x\"@fr .\n"
    "_:n ex:p \"5\"^^ex:int .\n";

constexpr char kValidSparql[] =
    "PREFIX ex: <http://e/>\n"
    "SELECT DISTINCT ?s ?o WHERE {\n"
    "  ?s ex:p ?o . FILTER regex(?o, \"v\")\n"
    "} LIMIT 5";

constexpr char kValidCsv[] =
    "id,pn,desc\n"
    "1,CRCW0805,\"has, comma\"\n"
    "2,T83,\"quote \"\" inside\"\n";

class ParserRobustness : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParserRobustness, NTriplesNeverCrashes) {
  util::Rng rng(GetParam());
  for (int i = 0; i < 300; ++i) {
    rdf::Graph g;
    const auto status = rdf::ParseNTriples(Mutate(kValidNTriples, &rng), &g);
    if (!status.ok()) {
      EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument);
    }
  }
}

TEST_P(ParserRobustness, TurtleNeverCrashes) {
  util::Rng rng(GetParam() + 1000);
  for (int i = 0; i < 300; ++i) {
    rdf::Graph g;
    const auto status = rdf::ParseTurtle(Mutate(kValidTurtle, &rng), &g);
    if (!status.ok()) {
      EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument);
    }
  }
}

TEST_P(ParserRobustness, SparqlNeverCrashes) {
  util::Rng rng(GetParam() + 3000);
  rdf::Graph g;
  ASSERT_TRUE(rdf::ParseNTriples(kValidNTriples, &g).ok());
  for (int i = 0; i < 300; ++i) {
    const auto result = rdf::RunSparql(g, Mutate(kValidSparql, &rng));
    if (!result.ok()) {
      EXPECT_EQ(result.status().code(),
                util::StatusCode::kInvalidArgument);
    }
  }
}

TEST_P(ParserRobustness, CsvNeverCrashes) {
  util::Rng rng(GetParam() + 4000);
  for (int i = 0; i < 300; ++i) {
    const auto result = io::ParseCsv(Mutate(kValidCsv, &rng));
    if (!result.ok()) {
      EXPECT_EQ(result.status().code(),
                util::StatusCode::kInvalidArgument);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserRobustness,
                         ::testing::Values(1, 42, 777));

}  // namespace
}  // namespace rulelink
