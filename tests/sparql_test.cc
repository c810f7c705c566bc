#include "rdf/sparql.h"

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "rdf/ntriples.h"
#include "rdf/turtle.h"

namespace rulelink::rdf {
namespace {

class SparqlTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto status = ParseTurtle(
        "@prefix ex: <http://e/> .\n"
        "@prefix s: <http://s/> .\n"
        "ex:r1 a ex:Resistor ; s:pn \"CRCW-1\" ; s:mfr \"Volt\" .\n"
        "ex:r2 a ex:Resistor ; s:pn \"CRCW-2\" ; s:mfr \"Tek\" .\n"
        "ex:c1 a ex:Capacitor ; s:pn \"T83-1\" ; s:mfr \"Volt\" .\n",
        &graph_);
    ASSERT_TRUE(status.ok()) << status;
  }

  Graph graph_;
};

TEST_F(SparqlTest, BasicSelect) {
  auto rows = RunSparql(graph_,
                        "PREFIX ex: <http://e/>\n"
                        "SELECT ?item WHERE { ?item a ex:Resistor . }");
  ASSERT_TRUE(rows.ok()) << rows.status();
  ASSERT_EQ(rows->size(), 2u);
  std::set<std::string> items;
  for (const auto& row : *rows) items.insert(row[0]);
  EXPECT_TRUE(items.count("<http://e/r1>"));
  EXPECT_TRUE(items.count("<http://e/r2>"));
}

TEST_F(SparqlTest, JoinWithProjectionOrder) {
  auto rows = RunSparql(
      graph_,
      "PREFIX ex: <http://e/> PREFIX s: <http://s/>\n"
      "SELECT ?pn ?item WHERE {\n"
      "  ?item a ex:Capacitor .\n"
      "  ?item s:pn ?pn .\n"
      "}");
  ASSERT_TRUE(rows.ok()) << rows.status();
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0][0], "T83-1");            // literal lexical form
  EXPECT_EQ((*rows)[0][1], "<http://e/c1>");    // IRI in N-Triples form
}

TEST_F(SparqlTest, SelectStarProjectsAllVariables) {
  auto parsed = ParseSparql("SELECT * WHERE { ?s ?p ?o . }");
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->projection.empty());
  auto rows = RunSparql(graph_, "SELECT * WHERE { ?s ?p ?o . }");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), graph_.size());
  EXPECT_EQ((*rows)[0].size(), 3u);
}

TEST_F(SparqlTest, LiteralConstantInObjectPosition) {
  auto rows = RunSparql(graph_,
                        "PREFIX s: <http://s/>\n"
                        "SELECT ?item WHERE { ?item s:mfr \"Volt\" . }");
  ASSERT_TRUE(rows.ok()) << rows.status();
  EXPECT_EQ(rows->size(), 2u);
}

TEST_F(SparqlTest, FullIriTerm) {
  auto rows = RunSparql(
      graph_,
      "SELECT ?pn WHERE { <http://e/r1> <http://s/pn> ?pn . }");
  ASSERT_TRUE(rows.ok()) << rows.status();
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0][0], "CRCW-1");
}

TEST_F(SparqlTest, DistinctAndLimit) {
  auto parsed = ParseSparql(
      "SELECT DISTINCT ?s WHERE { ?s ?p ?o . } LIMIT 2");
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->query.distinct());
  EXPECT_EQ(parsed->query.limit(), 2u);
}

TEST_F(SparqlTest, CommentsAndWhitespaceTolerated) {
  auto rows = RunSparql(graph_,
                        "# find resistors\n"
                        "PREFIX ex: <http://e/>   # ns\n"
                        "SELECT ?i\n"
                        "WHERE {\n"
                        "   ?i a ex:Resistor .   # pattern\n"
                        "}\n");
  ASSERT_TRUE(rows.ok()) << rows.status();
  EXPECT_EQ(rows->size(), 2u);
}

TEST_F(SparqlTest, TrailingDotOptionalBeforeBrace) {
  auto rows = RunSparql(graph_,
                        "PREFIX ex: <http://e/>\n"
                        "SELECT ?i WHERE { ?i a ex:Resistor }");
  ASSERT_TRUE(rows.ok()) << rows.status();
  EXPECT_EQ(rows->size(), 2u);
}

TEST_F(SparqlTest, KeywordsAreCaseInsensitive) {
  auto rows = RunSparql(graph_,
                        "prefix ex: <http://e/>\n"
                        "select ?i where { ?i a ex:Resistor . } limit 1");
  ASSERT_TRUE(rows.ok()) << rows.status();
  EXPECT_EQ(rows->size(), 1u);
}

TEST_F(SparqlTest, RegexFilter) {
  auto rows = RunSparql(graph_,
                        "PREFIX s: <http://s/>\n"
                        "SELECT ?item WHERE {\n"
                        "  ?item s:pn ?pn .\n"
                        "  FILTER regex(?pn, \"^T83\")\n"
                        "}");
  ASSERT_TRUE(rows.ok()) << rows.status();
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0][0], "<http://e/c1>");
}

TEST_F(SparqlTest, RegexFilterCaseInsensitiveFlag) {
  auto rows = RunSparql(graph_,
                        "PREFIX s: <http://s/>\n"
                        "SELECT ?item WHERE {\n"
                        "  ?item s:pn ?pn .\n"
                        "  FILTER regex(?pn, \"t83\", \"i\")\n"
                        "}");
  ASSERT_TRUE(rows.ok()) << rows.status();
  EXPECT_EQ(rows->size(), 1u);
  // Without the flag, nothing matches.
  auto strict = RunSparql(graph_,
                          "PREFIX s: <http://s/>\n"
                          "SELECT ?item WHERE { ?item s:pn ?pn . "
                          "FILTER regex(?pn, \"t83\") }");
  ASSERT_TRUE(strict.ok());
  EXPECT_TRUE(strict->empty());
}

TEST_F(SparqlTest, NotEqualFilter) {
  // Distinct items sharing a manufacturer: the dedup query shape.
  auto rows = RunSparql(graph_,
                        "PREFIX s: <http://s/>\n"
                        "SELECT ?a ?b WHERE {\n"
                        "  ?a s:mfr ?m .\n"
                        "  ?b s:mfr ?m .\n"
                        "  FILTER (?a != ?b)\n"
                        "}");
  ASSERT_TRUE(rows.ok()) << rows.status();
  // Volt: {r1, c1} -> 2 ordered pairs; Tek alone -> none.
  EXPECT_EQ(rows->size(), 2u);
}

TEST_F(SparqlTest, FilterErrors) {
  Graph g;
  EXPECT_FALSE(
      RunSparql(g, "SELECT ?s WHERE { ?s ?p ?o . FILTER regex(?s, \"[\") }")
          .ok());  // bad regex
  EXPECT_FALSE(
      RunSparql(g, "SELECT ?s WHERE { ?s ?p ?o . FILTER (?s = ?o) }")
          .ok());  // only != supported
  EXPECT_FALSE(
      RunSparql(g,
                "SELECT ?s WHERE { ?s ?p ?o . FILTER bound(?s) }")
          .ok());  // unsupported function
  EXPECT_FALSE(
      RunSparql(g,
                "SELECT ?s WHERE { ?s ?p ?o . "
                "FILTER regex(?s, \"x\", \"gms\") }")
          .ok());  // unsupported flags
}

struct BadQuery {
  const char* name;
  const char* text;
};

class SparqlErrorTest : public ::testing::TestWithParam<BadQuery> {};

TEST_P(SparqlErrorTest, Rejected) {
  Graph g;
  EXPECT_FALSE(RunSparql(g, GetParam().text).ok()) << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(
    Bad, SparqlErrorTest,
    ::testing::Values(
        BadQuery{"no_select", "WHERE { ?s ?p ?o . }"},
        BadQuery{"no_where", "SELECT ?s { ?s ?p ?o . }"},
        BadQuery{"empty_projection", "SELECT WHERE { ?s ?p ?o . }"},
        BadQuery{"unterminated_block", "SELECT ?s WHERE { ?s ?p ?o ."},
        BadQuery{"undeclared_prefix",
                 "SELECT ?s WHERE { ?s ex:p ?o . }"},
        BadQuery{"literal_predicate",
                 "SELECT ?s WHERE { ?s \"p\" ?o . }"},
        BadQuery{"projection_not_in_where",
                 "SELECT ?nope WHERE { ?s ?p ?o . }"},
        BadQuery{"optional_unsupported",
                 "SELECT ?s WHERE { ?s ?p ?o . } OPTIONAL { ?s ?q ?r }"},
        BadQuery{"zero_limit", "SELECT ?s WHERE { ?s ?p ?o . } LIMIT 0"},
        BadQuery{"bad_limit", "SELECT ?s WHERE { ?s ?p ?o . } LIMIT x"}),
    [](const ::testing::TestParamInfo<BadQuery>& info) {
      return info.param.name;
    });

// A query decodes escapes as the N-Triples parser does, so it finds a term
// written with \u escapes in both.
TEST(SparqlEscapeTest, FindsEscapedTermsOfAnNTriplesGraph) {
  Graph g;
  ASSERT_TRUE(ParseNTriples("<http://e/caf\\u00E9> <http://e/p> "
                            "\"caf\\u00e9\" .\n",
                            &g)
                  .ok());
  auto by_iri =
      RunSparql(g, "SELECT ?o WHERE { <http://e/caf\\u00E9> ?p ?o }");
  ASSERT_TRUE(by_iri.ok()) << by_iri.status();
  ASSERT_EQ(by_iri->size(), 1u);
  EXPECT_EQ((*by_iri)[0][0], "caf\xC3\xA9");
  auto by_literal =
      RunSparql(g, "SELECT ?s WHERE { ?s <http://e/p> \"caf\\u00e9\" }");
  ASSERT_TRUE(by_literal.ok()) << by_literal.status();
  ASSERT_EQ(by_literal->size(), 1u);
  EXPECT_EQ((*by_literal)[0][0], "<http://e/caf\xC3\xA9>");
  // \' too, and a datatype IRI's escapes.
  ASSERT_TRUE(ParseNTriples("<http://e/q> <http://e/p> "
                            "\"it\\'s\"^^<http://e/\\u0041> .\n",
                            &g)
                  .ok());
  auto typed = RunSparql(
      g, "SELECT ?s WHERE { ?s ?p 'it\\'s'^^<http://e/\\u0041> }");
  ASSERT_TRUE(typed.ok()) << typed.status();
  ASSERT_EQ(typed->size(), 1u);
  EXPECT_EQ((*typed)[0][0], "<http://e/q>");
}

TEST_F(SparqlTest, TypedAndLangLiterals) {
  Graph g;
  ASSERT_TRUE(ParseTurtle(
                  "@prefix ex: <http://e/> .\n"
                  "@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n"
                  "ex:a ex:v \"42\"^^xsd:integer ; ex:l \"hi\"@en .\n",
                  &g)
                  .ok());
  auto typed = RunSparql(
      g,
      "PREFIX ex: <http://e/>\n"
      "SELECT ?s WHERE { ?s ex:v "
      "\"42\"^^<http://www.w3.org/2001/XMLSchema#integer> . }");
  ASSERT_TRUE(typed.ok()) << typed.status();
  EXPECT_EQ(typed->size(), 1u);
  auto lang = RunSparql(g,
                        "PREFIX ex: <http://e/>\n"
                        "SELECT ?s WHERE { ?s ex:l \"hi\"@en . }");
  ASSERT_TRUE(lang.ok()) << lang.status();
  EXPECT_EQ(lang->size(), 1u);
}

}  // namespace
}  // namespace rulelink::rdf
