#include "rdf/term.h"

#include <gtest/gtest.h>

namespace rulelink::rdf {
namespace {

TEST(TermTest, IriFactory) {
  const Term t = Term::Iri("http://example.org/a");
  EXPECT_TRUE(t.is_iri());
  EXPECT_FALSE(t.is_literal());
  EXPECT_FALSE(t.is_blank());
  EXPECT_EQ(t.lexical(), "http://example.org/a");
  EXPECT_EQ(t.ToNTriples(), "<http://example.org/a>");
}

TEST(TermTest, PlainLiteral) {
  const Term t = Term::Literal("hello");
  EXPECT_TRUE(t.is_literal());
  EXPECT_EQ(t.ToNTriples(), "\"hello\"");
  EXPECT_TRUE(t.datatype().empty());
  EXPECT_TRUE(t.language().empty());
}

TEST(TermTest, TypedLiteral) {
  const Term t = Term::TypedLiteral(
      "42", "http://www.w3.org/2001/XMLSchema#integer");
  EXPECT_EQ(t.ToNTriples(),
            "\"42\"^^<http://www.w3.org/2001/XMLSchema#integer>");
}

TEST(TermTest, LangLiteral) {
  const Term t = Term::LangLiteral("bonjour", "fr");
  EXPECT_EQ(t.ToNTriples(), "\"bonjour\"@fr");
}

TEST(TermTest, BlankNode) {
  const Term t = Term::BlankNode("b0");
  EXPECT_TRUE(t.is_blank());
  EXPECT_EQ(t.ToNTriples(), "_:b0");
}

TEST(TermTest, LiteralEscaping) {
  const Term t = Term::Literal("a\"b\\c\nd\te\rf");
  EXPECT_EQ(t.ToNTriples(), "\"a\\\"b\\\\c\\nd\\te\\rf\"");
}

TEST(TermTest, IriEscapesEveryByteIriRefForbids) {
  const std::string_view bytes("http://e/\0 <>\"{}|^`\\\x1F\x7F\xC3\xA9", 24);
  const Term iri = Term::Iri(std::string(bytes));
  EXPECT_EQ(iri.ToNTriples(),
            "<http://e/\\u0000\\u0020\\u003C\\u003E\\u0022\\u007B\\u007D"
            "\\u007C\\u005E\\u0060\\u005C\\u001F\x7F\xC3\xA9>");
  const Term typed = Term::TypedLiteral("1", "http://e/t y");
  EXPECT_EQ(typed.ToNTriples(), "\"1\"^^<http://e/t\\u0020y>");
}

TEST(TermTest, EqualityDistinguishesKindAndFields) {
  EXPECT_EQ(Term::Iri("x"), Term::Iri("x"));
  EXPECT_NE(Term::Iri("x"), Term::Literal("x"));
  EXPECT_NE(Term::Iri("x"), Term::BlankNode("x"));
  EXPECT_NE(Term::Literal("x"), Term::LangLiteral("x", "en"));
  EXPECT_NE(Term::TypedLiteral("x", "dt1"), Term::TypedLiteral("x", "dt2"));
}

TEST(TermTest, OrderingIsTotalByKindThenFields) {
  EXPECT_LT(Term::Iri("a"), Term::Iri("b"));
  EXPECT_LT(Term::Iri("z"), Term::Literal("a"));       // kIri < kLiteral
  EXPECT_LT(Term::Literal("z"), Term::BlankNode("a"));  // kLiteral < kBlank
}

TEST(EscapeTest, PassesThroughPlainText) {
  EXPECT_EQ(EscapeNTriplesString("CRCW0805-10K"), "CRCW0805-10K");
}

}  // namespace
}  // namespace rulelink::rdf
