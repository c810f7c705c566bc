#include "rdf/turtle.h"

#include <gtest/gtest.h>

#include "rdf/vocab.h"

namespace rulelink::rdf {
namespace {

TEST(TurtleTest, PrefixAndBasicStatement) {
  Graph g;
  const auto status = ParseTurtle(
      "@prefix ex: <http://example.org/> .\n"
      "ex:a ex:p ex:b .\n",
      &g);
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_EQ(g.size(), 1u);
  EXPECT_NE(g.dict().FindIri("http://example.org/a"), kInvalidTermId);
  EXPECT_NE(g.dict().FindIri("http://example.org/p"), kInvalidTermId);
}

TEST(TurtleTest, SparqlStylePrefixWithoutDot) {
  Graph g;
  const auto status = ParseTurtle(
      "PREFIX ex: <http://example.org/>\n"
      "ex:a ex:p ex:b .\n",
      &g);
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_EQ(g.size(), 1u);
}

TEST(TurtleTest, AKeywordExpandsToRdfType) {
  Graph g;
  const auto status = ParseTurtle(
      "@prefix ex: <http://example.org/> .\n"
      "ex:a a ex:Class .\n",
      &g);
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_NE(g.dict().FindIri(vocab::kRdfType), kInvalidTermId);
}

TEST(TurtleTest, PredicateAndObjectLists) {
  Graph g;
  const auto status = ParseTurtle(
      "@prefix ex: <http://example.org/> .\n"
      "ex:a ex:p ex:b , ex:c ;\n"
      "     ex:q \"v1\" , \"v2\" ;\n"
      "     a ex:T .\n",
      &g);
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_EQ(g.size(), 5u);
}

TEST(TurtleTest, TrailingSemicolonBeforeDot) {
  Graph g;
  const auto status = ParseTurtle(
      "@prefix ex: <http://example.org/> .\n"
      "ex:a ex:p ex:b ;\n"
      ".\n",
      &g);
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_EQ(g.size(), 1u);
}

TEST(TurtleTest, LiteralsWithLangAndDatatype) {
  Graph g;
  const auto status = ParseTurtle(
      "@prefix ex: <http://example.org/> .\n"
      "@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n"
      "ex:a ex:p \"hi\"@en ; ex:q \"5\"^^xsd:integer ; "
      "ex:r \"6\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n",
      &g);
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_NE(g.dict().Find(Term::LangLiteral("hi", "en")), kInvalidTermId);
  EXPECT_NE(g.dict().Find(Term::TypedLiteral(
                "5", "http://www.w3.org/2001/XMLSchema#integer")),
            kInvalidTermId);
  EXPECT_NE(g.dict().Find(Term::TypedLiteral(
                "6", "http://www.w3.org/2001/XMLSchema#integer")),
            kInvalidTermId);
}

TEST(TurtleTest, EscapesInLiterals) {
  Graph g;
  const auto status = ParseTurtle(
      "@prefix ex: <http://example.org/> .\n"
      "ex:a ex:p \"tab\\there \\\"quoted\\\"\" .\n",
      &g);
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_NE(g.dict().Find(Term::Literal("tab\there \"quoted\"")),
            kInvalidTermId);
}

TEST(TurtleTest, BlankNodeLabels) {
  Graph g;
  const auto status = ParseTurtle(
      "@prefix ex: <http://example.org/> .\n"
      "_:x ex:p _:y .\n",
      &g);
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_NE(g.dict().Find(Term::BlankNode("x")), kInvalidTermId);
}

TEST(TurtleTest, BaseResolution) {
  Graph g;
  const auto status = ParseTurtle(
      "@base <http://example.org/dir/> .\n"
      "<a> <p> <b> .\n",
      &g);
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_NE(g.dict().FindIri("http://example.org/dir/a"), kInvalidTermId);
}

// Only a relative IRI takes the base: one that opens with a scheme is
// absolute, whatever follows its ':'.
TEST(TurtleTest, BaseLeavesIrisWithASchemeAlone) {
  Graph g;
  const auto status = ParseTurtle(
      "@base <http://e/> .\n"
      "<urn:isbn:123> <rel> <mailto:x@y.org> .\n"
      "<a+b-c.d:x> <rel> <1a:x> .\n",
      &g);
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_NE(g.dict().FindIri("urn:isbn:123"), kInvalidTermId);
  EXPECT_NE(g.dict().FindIri("mailto:x@y.org"), kInvalidTermId);
  EXPECT_NE(g.dict().FindIri("http://e/rel"), kInvalidTermId);
  EXPECT_NE(g.dict().FindIri("a+b-c.d:x"), kInvalidTermId);
  // A scheme starts with a letter, so "1a:x" is relative.
  EXPECT_NE(g.dict().FindIri("http://e/1a:x"), kInvalidTermId);
  EXPECT_EQ(g.dict().FindIri("http://e/urn:isbn:123"), kInvalidTermId);
  EXPECT_EQ(g.dict().FindIri("http://e/mailto:x@y.org"), kInvalidTermId);
}

TEST(TurtleTest, CommentsAnywhere) {
  Graph g;
  const auto status = ParseTurtle(
      "# header comment\n"
      "@prefix ex: <http://example.org/> . # decl comment\n"
      "ex:a # subject\n"
      "  ex:p ex:b . # statement\n",
      &g);
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_EQ(g.size(), 1u);
}

TEST(TurtleErrorTest, UndeclaredPrefix) {
  Graph g;
  const auto status = ParseTurtle("ex:a ex:p ex:b .\n", &g);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("undeclared prefix"), std::string::npos);
}

TEST(TurtleErrorTest, MissingDot) {
  Graph g;
  EXPECT_FALSE(ParseTurtle("@prefix ex: <http://e/> .\nex:a ex:p ex:b\n",
                           &g)
                   .ok());
}

TEST(TurtleErrorTest, LiteralSubject) {
  Graph g;
  EXPECT_FALSE(ParseTurtle("\"lit\" <http://p> <http://o> .\n", &g).ok());
}

TEST(TurtleErrorTest, LiteralPredicate) {
  Graph g;
  EXPECT_FALSE(
      ParseTurtle("<http://s> \"lit\" <http://o> .\n", &g).ok());
}

TEST(TurtleErrorTest, PropertyListsUnsupportedButClear) {
  Graph g;
  const auto status =
      ParseTurtle("<http://s> <http://p> [ <http://q> 1 ] .\n", &g);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("not supported"), std::string::npos);
}

TEST(TurtleErrorTest, UnterminatedLiteral) {
  Graph g;
  EXPECT_FALSE(
      ParseTurtle("<http://s> <http://p> \"open... .\n", &g).ok());
}

TEST(TurtleErrorTest, UnknownAtKeyword) {
  Graph g;
  EXPECT_FALSE(ParseTurtle("@frobnicate <http://x> .\n", &g).ok());
}

TEST(TurtleFileTest, MissingFileIsNotFound) {
  Graph g;
  EXPECT_EQ(ParseTurtleFile("/nonexistent/file.ttl", &g).code(),
            util::StatusCode::kNotFound);
}

}  // namespace
}  // namespace rulelink::rdf
