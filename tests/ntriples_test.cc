#include "rdf/ntriples.h"

#include <sys/stat.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <thread>

#include <gtest/gtest.h>

namespace rulelink::rdf {
namespace {

TEST(NTriplesParseTest, BasicTriples) {
  Graph g;
  const auto status = ParseNTriples(
      "<http://a> <http://p> <http://b> .\n"
      "<http://a> <http://p> \"literal\" .\n",
      &g);
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_EQ(g.size(), 2u);
}

TEST(NTriplesParseTest, CommentsAndBlankLines) {
  Graph g;
  const auto status = ParseNTriples(
      "# a comment\n"
      "\n"
      "   \n"
      "<http://a> <http://p> <http://b> . # trailing comment\n",
      &g);
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_EQ(g.size(), 1u);
}

TEST(NTriplesParseTest, LangAndTypedLiterals) {
  Graph g;
  const auto status = ParseNTriples(
      "<http://a> <http://p> \"chat\"@fr .\n"
      "<http://a> <http://q> \"42\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n",
      &g);
  ASSERT_TRUE(status.ok()) << status;
  const TermId lang = g.dict().Find(Term::LangLiteral("chat", "fr"));
  EXPECT_NE(lang, kInvalidTermId);
  const TermId typed = g.dict().Find(Term::TypedLiteral(
      "42", "http://www.w3.org/2001/XMLSchema#integer"));
  EXPECT_NE(typed, kInvalidTermId);
}

TEST(NTriplesParseTest, BlankNodes) {
  Graph g;
  const auto status =
      ParseNTriples("_:b0 <http://p> _:b1 .\n", &g);
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_NE(g.dict().Find(Term::BlankNode("b0")), kInvalidTermId);
  EXPECT_NE(g.dict().Find(Term::BlankNode("b1")), kInvalidTermId);
}

TEST(NTriplesParseTest, EscapesInLiterals) {
  Graph g;
  const auto status = ParseNTriples(
      "<http://a> <http://p> \"line1\\nline2\\t\\\"q\\\" \\\\\" .\n", &g);
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_NE(g.dict().Find(Term::Literal("line1\nline2\t\"q\" \\")),
            kInvalidTermId);
}

TEST(NTriplesParseTest, UnicodeEscapes) {
  Graph g;
  const auto status = ParseNTriples(
      "<http://a> <http://p> \"caf\\u00E9\" .\n", &g);
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_NE(g.dict().Find(Term::Literal("caf\xC3\xA9")), kInvalidTermId);
}

// N-Triples decodes a datatype IRI's escapes as it does any other IRI's.
TEST(NTriplesParseTest, DatatypeIriEscapesAreDecoded) {
  Graph g;
  const auto status =
      ParseNTriples("<http://e/a> <http://e/p> \"1\"^^<http://e/\\u0041> .\n",
                    &g);
  ASSERT_TRUE(status.ok()) << status;
  ASSERT_EQ(g.size(), 1u);
  EXPECT_EQ(g.dict().term(g.triples()[0].object),
            Term::TypedLiteral("1", "http://e/A"));
}

// A blank-node label never ends with '.', so a '.' right after it ends the
// triple.
TEST(NTriplesParseTest, BlankLabelStopsBeforeTheDot) {
  Graph g;
  const auto status = ParseNTriples("<http://e/a> <http://e/p> _:b1.\n", &g);
  ASSERT_TRUE(status.ok()) << status;
  ASSERT_EQ(g.size(), 1u);
  EXPECT_EQ(g.dict().term(g.triples()[0].object), Term::BlankNode("b1"));
}

TEST(NTriplesParseTest, EscapedSingleQuote) {
  Graph g;
  const auto status =
      ParseNTriples("<http://e/a> <http://e/p> \"it\\'s\" .\n", &g);
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_NE(g.dict().Find(Term::Literal("it's")), kInvalidTermId);
}

TEST(NTriplesParseTest, NoTrailingNewline) {
  Graph g;
  ASSERT_TRUE(ParseNTriples("<http://a> <http://p> <http://b> .", &g).ok());
  EXPECT_EQ(g.size(), 1u);
}

struct BadInput {
  const char* name;
  const char* content;
};

class NTriplesErrorTest : public ::testing::TestWithParam<BadInput> {};

TEST_P(NTriplesErrorTest, RejectsMalformedInput) {
  Graph g;
  const auto status = ParseNTriples(GetParam().content, &g);
  EXPECT_FALSE(status.ok()) << GetParam().name;
  EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument);
}

INSTANTIATE_TEST_SUITE_P(
    Malformed, NTriplesErrorTest,
    ::testing::Values(
        BadInput{"missing_dot", "<http://a> <http://p> <http://b>\n"},
        BadInput{"literal_subject", "\"x\" <http://p> <http://b> .\n"},
        BadInput{"literal_predicate", "<http://a> \"p\" <http://b> .\n"},
        BadInput{"blank_predicate", "<http://a> _:p <http://b> .\n"},
        BadInput{"unterminated_iri", "<http://a <http://p> <http://b> .\n"},
        BadInput{"unterminated_literal",
                 "<http://a> <http://p> \"oops .\n"},
        BadInput{"garbage_after_dot",
                 "<http://a> <http://p> <http://b> . junk\n"},
        BadInput{"missing_object", "<http://a> <http://p> .\n"},
        BadInput{"bad_escape", "<http://a> <http://p> \"\\x\" .\n"},
        BadInput{"bad_unicode_escape",
                 "<http://a> <http://p> \"\\u00G9\" .\n"},
        BadInput{"empty_blank_label", "_: <http://p> <http://b> .\n"}),
    [](const ::testing::TestParamInfo<BadInput>& info) {
      return info.param.name;
    });

TEST(NTriplesErrorTest, ErrorMentionsLineNumber) {
  Graph g;
  const auto status = ParseNTriples(
      "<http://a> <http://p> <http://b> .\n"
      "broken line\n",
      &g);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("line 2"), std::string::npos)
      << status.message();
}

TEST(NTriplesRoundTripTest, WriteThenParseIsIdentity) {
  Graph g;
  g.InsertIri("http://s", "http://p", "http://o");
  g.Insert(Term::Iri("http://s"), Term::Iri("http://p"),
           Term::LangLiteral("héllo \"world\"\n", "en-GB"));
  g.Insert(Term::BlankNode("x"), Term::Iri("http://p"),
           Term::TypedLiteral("3.14", "http://www.w3.org/2001/XMLSchema#double"));

  const std::string serialized = WriteNTriples(g);
  Graph g2;
  ASSERT_TRUE(ParseNTriples(serialized, &g2).ok());
  ASSERT_EQ(g2.size(), g.size());
  // Same triples term-by-term.
  for (const Triple& t : g.triples()) {
    const Triple mapped{
        g2.dict().Find(g.dict().term(t.subject)),
        g2.dict().Find(g.dict().term(t.predicate)),
        g2.dict().Find(g.dict().term(t.object)),
    };
    EXPECT_TRUE(g2.Contains(mapped));
  }
}

// IRIs holding bytes IRIREF forbids (here a '>' and a newline, read from
// \u escapes) are written with \u00XX escapes, so the output parses back.
TEST(NTriplesRoundTripTest, ForbiddenIriBytesAreEscaped) {
  constexpr char kInput[] =
      "<http://e/a\\u003E> <http://e/p> <http://e/o\\u000Ax> .\n";
  Graph g;
  ASSERT_TRUE(ParseNTriples(kInput, &g).ok());
  ASSERT_NE(g.dict().FindIri("http://e/a>"), kInvalidTermId);
  ASSERT_NE(g.dict().FindIri("http://e/o\nx"), kInvalidTermId);

  const std::string serialized = WriteNTriples(g);
  EXPECT_EQ(serialized, kInput);
  Graph g2;
  const util::Status status = ParseNTriples(serialized, &g2);
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_EQ(g2.triples(), g.triples());
  EXPECT_NE(g2.dict().FindIri("http://e/a>"), kInvalidTermId);
  EXPECT_NE(g2.dict().FindIri("http://e/o\nx"), kInvalidTermId);
}

TEST(NTriplesFileTest, MissingFileIsNotFound) {
  Graph g;
  const auto status = ParseNTriplesFile("/nonexistent/file.nt", &g);
  EXPECT_EQ(status.code(), util::StatusCode::kNotFound);
}

TEST(NTriplesFileTest, DirectoryIsInvalidArgument) {
  // A directory opens but has no regular size (its end offset can be far
  // past any real size) and cannot be read: an error naming the path, not
  // an empty graph and not an abort.
  Graph g;
  const util::Status status = ParseNTriplesFile(::testing::TempDir(), &g);
  EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find(::testing::TempDir()), std::string::npos)
      << status;
  EXPECT_EQ(g.size(), 0u);
}

// A file larger than one read chunk, with a final line that has no newline.
std::string FileContent() {
  std::string content;
  for (int i = 0; i < 3000; ++i) {
    content += "<http://e/s" + std::to_string(i % 700) + "> <http://e/p" +
               std::to_string(i % 3) + "> \"value \\\"" +
               std::to_string(i) + "\\\"\"@en .\n";
  }
  return content + "_:tail <http://e/p0> <http://e/o> .";
}

void ExpectSameGraph(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.triples(), b.triples());
  ASSERT_EQ(a.dict().size(), b.dict().size());
  for (TermId id = 1; id <= a.dict().size(); ++id) {
    ASSERT_EQ(a.dict().term(id), b.dict().term(id)) << "term " << id;
  }
}

TEST(NTriplesFileTest, FileParsesLikeItsContent) {
  const std::string content = FileContent();
  ASSERT_GT(content.size(), std::size_t{1} << 17);  // several read chunks
  const std::string path = ::testing::TempDir() + "ntriples_file_test.nt";
  {
    std::ofstream out(path, std::ios::binary);
    out << content;
  }
  Graph from_file;
  ASSERT_TRUE(ParseNTriplesFile(path, &from_file).ok());
  std::remove(path.c_str());
  Graph from_string;
  ASSERT_TRUE(ParseNTriples(content, &from_string).ok());
  EXPECT_EQ(from_file.size(), 3001u);
  ExpectSameGraph(from_file, from_string);
}

TEST(NTriplesFileTest, PipeParsesLikeItsContent) {
  // A FIFO reports no size and cannot seek, so the file reader falls back
  // to reading chunks until the writer closes it.
  const std::string content = FileContent();
  const std::string path = ::testing::TempDir() + "ntriples_pipe_test.nt";
  std::remove(path.c_str());
  ASSERT_EQ(::mkfifo(path.c_str(), 0600), 0);
  std::thread writer([&] {
    std::ofstream out(path, std::ios::binary);
    out << content;
  });
  Graph from_pipe;
  const util::Status status = ParseNTriplesFile(path, &from_pipe);
  writer.join();
  std::remove(path.c_str());
  ASSERT_TRUE(status.ok()) << status;
  Graph from_string;
  ASSERT_TRUE(ParseNTriples(content, &from_string).ok());
  ExpectSameGraph(from_pipe, from_string);
}

// Single terms, each as the object of a one-line input.
TEST(ParseTermTest, SingleTerms) {
  const auto object_of = [](const std::string& term) {
    Graph g;
    const util::Status status =
        ParseNTriples("<http://s> <http://p> " + term + " .", &g);
    EXPECT_TRUE(status.ok()) << term << ": " << status;
    return g.size() == 1 ? g.dict().term(g.triples()[0].object) : Term();
  };
  EXPECT_EQ(object_of("<http://x>"), Term::Iri("http://x"));
  EXPECT_EQ(object_of("\"v\"@en"), Term::LangLiteral("v", "en"));
  EXPECT_EQ(object_of("\"1\"^^<http://dt>"),
            Term::TypedLiteral("1", "http://dt"));
  EXPECT_EQ(object_of("_:b"), Term::BlankNode("b"));

  Graph g;
  const util::Status trailing =
      ParseNTriples("<http://s> <http://p> <http://x> extra .", &g);
  EXPECT_EQ(trailing.message(),
            "N-Triples line 1: missing terminating '.'");
  const util::Status empty = ParseNTriples("<http://s> <http://p>", &g);
  EXPECT_EQ(empty.message(), "N-Triples line 1: expected term");
  EXPECT_EQ(g.size(), 0u);
  EXPECT_EQ(g.dict().size(), 0u);  // a rejected line interns nothing
}

}  // namespace
}  // namespace rulelink::rdf
