// Turtle reads IRIs, literals and blank nodes through the term scanners
// N-Triples uses (rdf/term_scan.h): the same escapes, the same name rule,
// and error lines that count the newlines inside a literal. Its file entry
// point reads through util::ReadFile. ntriples_differential_test checks
// Turtle against N-Triples on N-Triples input; these cases cover what only
// Turtle writes.
#include <string>

#include <gtest/gtest.h>

#include "rdf/turtle.h"

namespace rulelink::rdf {
namespace {

TEST(TurtleTermScanTest, EscapesDecodeAsInNTriples) {
  Graph g;
  const util::Status status = ParseTurtle(
      "@base <http://e/> .\n"
      "<caf\\u00E9> <p> \"caf\\u00e9\" , 'it\\'s' , \"1\"^^<\\u0041> .\n",
      &g);
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_NE(g.dict().FindIri("http://e/caf\xC3\xA9"), kInvalidTermId);
  EXPECT_NE(g.dict().Find(Term::Literal("caf\xC3\xA9")), kInvalidTermId);
  EXPECT_NE(g.dict().Find(Term::Literal("it's")), kInvalidTermId);
  EXPECT_NE(g.dict().Find(Term::TypedLiteral("1", "http://e/A")),
            kInvalidTermId);
  EXPECT_EQ(g.size(), 3u);
}

TEST(TurtleTermScanTest, NamesEndBeforeTheDot) {
  Graph g;
  const util::Status status = ParseTurtle(
      "@prefix ex: <http://e/> .\n"
      "ex:a ex:p ex:b.\n"
      "_:x ex:p _:y.\n"
      "ex:c ex:p \"1\"^^ex:int.\n",
      &g);
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_EQ(g.size(), 3u);
  EXPECT_NE(g.dict().FindIri("http://e/b"), kInvalidTermId);
  EXPECT_NE(g.dict().Find(Term::BlankNode("y")), kInvalidTermId);
  EXPECT_NE(g.dict().Find(Term::TypedLiteral("1", "http://e/int")),
            kInvalidTermId);
}

TEST(TurtleTermScanTest, ErrorLinesCountNewlinesInLiterals) {
  Graph g;
  EXPECT_EQ(ParseTurtle("<http://e/s> <http://e/p> \"a\nb\" <http://e/o> .\n",
                        &g)
                .message(),
            "Turtle line 2: expected '.'");
  EXPECT_EQ(ParseTurtle("<http://e/s> <http://e/p> \"a\nb\nc .\n", &g)
                .message(),
            "Turtle line 4: unterminated literal");
  EXPECT_EQ(ParseTurtle("<http://e/s> <http://e/p> \"a\nb\"@ .\n", &g)
                .message(),
            "Turtle line 2: empty language tag");
}

TEST(TurtleTermScanTest, MalformedTokenReportsItsOwnError) {
  // Where the grammar needs '.', a prefix name or an IRI, a malformed
  // token found there reports what is wrong with it.
  Graph g;
  EXPECT_EQ(ParseTurtle("<http://e/s> <http://e/p> <http://e/o> <x .\n", &g)
                .message(),
            "Turtle line 1: unterminated IRI");
  EXPECT_EQ(ParseTurtle("@prefix ex <http://e/> .\n", &g).message(),
            "Turtle line 1: unexpected token: ex");
  EXPECT_EQ(ParseTurtle("@prefix ex: \"x\" .\n", &g).message(),
            "Turtle line 1: expected namespace IRI");
  EXPECT_EQ(ParseTurtle("<http://e/s> <http://e/p> <http://e/o> ex:o .\n", &g)
                .message(),
            "Turtle line 1: expected '.'");
}

TEST(TurtleFileTest, DirectoryIsInvalidArgument) {
  Graph g;
  const util::Status status = ParseTurtleFile(::testing::TempDir(), &g);
  EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find(::testing::TempDir()), std::string::npos)
      << status;
}

}  // namespace
}  // namespace rulelink::rdf
