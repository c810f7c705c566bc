// Differential fuzz of the N-Triples scanner. Every input is parsed twice:
// by rdf::ParseNTriples, which scans terms as views and interns them by
// those views, and by the reference term-at-a-time parser in
// ntriples_oracle. Both must return the same status (code and message) and
// leave the same triples, in the same order, over the same dictionary,
// term by term. N-Triples is a subset of Turtle, so every input
// ParseNTriples accepts must also parse under rdf::ParseTurtle to the same
// triples and dictionary. The inputs are a generated corpus, hand cases
// for every rule of the grammar and every error, and seeded mutations of
// both.
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/config.h"
#include "datagen/dataset.h"
#include "datagen/generator.h"
#include "fuzz_mutate.h"
#include "ntriples_oracle.h"
#include "rdf/ntriples.h"
#include "rdf/turtle.h"
#include "util/logging.h"
#include "util/rng.h"

namespace rulelink::rdf {
namespace {

// Printable form of an input for failure messages.
std::string Printable(std::string_view input) {
  std::string out;
  for (const char c : input) {
    if (c == '\n') {
      out += "\\n";
    } else if (c == '\r') {
      out += "\\r";
    } else if (c == '\t') {
      out += "\\t";
    } else if (static_cast<unsigned char>(c) < 32) {
      out += "\\x" + std::to_string(static_cast<unsigned char>(c));
    } else {
      out.push_back(c);
    }
  }
  return out;
}

// Empty when `got` holds the same triples, in the same order, over the
// same dictionary as `want`, term by term; else what differs.
std::string GraphDifference(const Graph& got, const Graph& want) {
  if (got.triples() != want.triples()) {
    return std::to_string(got.size()) + " triples, want " +
           std::to_string(want.size()) + " (or a different order)";
  }
  if (got.dict().size() != want.dict().size()) {
    return std::to_string(got.dict().size()) + " terms, want " +
           std::to_string(want.dict().size());
  }
  for (TermId id = 1; id <= got.dict().size(); ++id) {
    if (got.dict().term(id) != want.dict().term(id)) {
      return "term " + std::to_string(id) + " is " +
             got.dict().term(id).ToNTriples() + ", want " +
             want.dict().term(id).ToNTriples();
    }
  }
  return "";
}

::testing::AssertionResult SameParse(std::string_view input) {
  Graph scanned;
  Graph reference;
  const util::Status got = ParseNTriples(input, &scanned);
  const util::Status want = oracle::ParseNTriples(input, &reference);
  const auto fail = [&]() {
    return ::testing::AssertionFailure()
           << "input \"" << Printable(input.substr(0, 2000)) << "\": ";
  };
  if (got.code() != want.code() || got.message() != want.message()) {
    return fail() << "status " << got << ", oracle " << want;
  }
  if (const std::string diff = GraphDifference(scanned, reference);
      !diff.empty()) {
    return fail() << "against the oracle: " << diff;
  }
  if (got.ok()) {
    Graph turtle;
    const util::Status status = ParseTurtle(input, &turtle);
    if (!status.ok()) return fail() << "Turtle rejects it: " << status;
    if (const std::string diff = GraphDifference(turtle, scanned);
        !diff.empty()) {
      return fail() << "Turtle parses " << diff;
    }
  }
  return ::testing::AssertionSuccess();
}

// Escapes of every kind (in a datatype too), language and typed literals,
// blank nodes (one ending at the '.'), comments, CRLF and surrounding
// whitespace, as the mutation seed.
constexpr char kSnippet[] =
    "# a comment line\n"
    "<http://e/a> <http://e/p> <http://e/b> .\n"
    "<http://e/a> <http://e/q> \"tab\\there \\\"quoted\\\" back\\\\slash\" .\r\n"
    "_:b1 <http://e/p> \"42\"^^<http://e/int> .\n"
    "  <http://e/c>\t<http://e/p> \"lang\"@en-GB . # trailing comment\n"
    "<http://e/caf\\u00E9> <http://e/p> \"smile \\U0001F600 \\u00e9\" .\n"
    "\n"
    "<http://e/a> <http://e/p> <http://e/b> .\n"
    "_:b1 <http://e/r> _:b2 .\r\n"
    "_:b2 <http://e/q> \"it\\'s\"^^<http://e/t\\u0041> .\n"
    "<http://e/d> <http://e/r> _:b3.\n"
    "<http://e/d> <http://e/p> \"line\\nbreak\\rcr\"@fr .\n"
    "<http://e/d> <http://e/p> \"A\" .\n"
    "<http://e/d> <http://e/p> \"\\u0041\" .";

// Mutate, then sometimes insert a \u or \U escape with a mix of good and
// bad hex digits, or a lone backslash.
std::string MutateWithEscapes(std::string input, util::Rng* rng) {
  input = fuzz::Mutate(std::move(input), rng);
  if (input.empty() || rng->UniformUint64(2) == 0) return input;
  static constexpr char kHex[] = "0123456789abcdefABCDEF0A9fgG \"";
  std::string escape = "\\";
  switch (rng->UniformUint64(3)) {
    case 0:
      escape += 'u';
      break;
    case 1:
      escape += 'U';
      break;
    default:
      break;  // a lone backslash
  }
  const std::size_t digits = escape.size() == 1 ? 0 : rng->UniformUint64(10);
  for (std::size_t d = 0; d < digits; ++d) {
    escape += kHex[rng->UniformUint64(sizeof(kHex) - 1)];
  }
  input.insert(rng->UniformUint64(input.size() + 1), escape);
  return input;
}

// The three files of a small generated corpus, as the CLI reads them.
const std::vector<std::string>& CorpusFiles() {
  static const std::vector<std::string>* files = [] {
    datagen::DatasetConfig config;
    config.seed = 7;
    config.num_classes = 60;
    config.num_leaves = 25;
    config.catalog_size = 1200;
    config.num_links = 500;
    config.num_signal_classes = 6;
    config.num_other_frequent_classes = 8;
    config.signal_class_min_links = 30;
    config.signal_class_max_links = 60;
    config.frequent_class_min_links = 8;
    config.frequent_class_max_links = 12;
    config.tail_class_cap_links = 5;
    auto dataset = datagen::DatasetGenerator(config).Generate();
    RL_CHECK(dataset.ok()) << dataset.status();
    return new std::vector<std::string>{
        WriteNTriples(datagen::BuildLocalGraph(*dataset)),
        WriteNTriples(datagen::BuildExternalGraph(*dataset)),
        WriteNTriples(datagen::BuildLinksGraph(*dataset)),
    };
  }();
  return *files;
}

TEST(NTriplesDifferentialTest, GeneratedCorpus) {
  for (const std::string& file : CorpusFiles()) {
    ASSERT_TRUE(SameParse(file));
    Graph graph;
    ASSERT_TRUE(ParseNTriples(file, &graph).ok());
    EXPECT_GT(graph.size(), 0u);
  }
}

TEST(NTriplesDifferentialTest, HandCases) {
  const char* const kCases[] = {
      // Empty, blank and comment-only inputs.
      "",
      "\n\n",
      "# only a comment",
      "  \t \r\n# c\n",
      // Escapes in IRIs and literals.
      "<http://e/a\\u0041> <http://e/p> <http://e/b\\\\c> .\n",
      "<http://e/\\\"q\\\"> <http://e/p> <http://e/\\t\\n\\r> .\n",
      "<http://e/a> <http://e/p> \"tab\\tnl\\nquote\\\"bs\\\\\" .\n",
      "<http://e/a> <http://e/p> \"\\\\\" .\n",
      "<http://e/a> <http://e/p> \"it\\'s\" .\n",
      "<http://e/it\\'s> <http://e/p> \"1\"^^<http://e/\\'> .\n",
      "<http://e/a> <http://e/p> \"a\\\\\\\"b\" .\n",
      "<http://e/a> <http://e/p> \"\\u00E9 \\U0001F600 \\U0010FFFF\" .\n",
      "<http://e/a> <http://e/p> \"\\UFFFFFFFF \\u0000 \\u07FF \\uFFFF\" .\n",
      "<http://e/a> <http://e/p> \"A\" .\n"
      "<http://e/a> <http://e/p> \"\\u0041\" .\n",
      "<http://e/A> <http://e/p> <http://e/\\u0041> .\n",
      // Bad escapes: hex, truncation, unknown, dangling.
      "<http://e/a> <http://e/p> \"\\u00G9\" .\n",
      "<http://e/a\\u12x4> <http://e/p> <http://e/b> .\n",
      "<http://e/a> <http://e/p> \"\\u12\" .\n",
      "<http://e/\\u12> <http://e/p> <http://e/b> .\n",
      "<http://e/a> <http://e/p> \"\\U0001F60\" .\n",
      "<http://e/a> <http://e/p> \"\\x\" .\n",
      "<http://e/a\\> <http://e/p> <http://e/b> .\n",
      "<http://e/a> <http://e/p> \"abc\\\" .\n",
      // Language tags and datatypes.
      "<http://e/a> <http://e/p> \"x\"@en-GB .\n",
      "<http://e/a> <http://e/p> \"x\"@ .\n",
      "<http://e/a> <http://e/p> \"x\"@en<http://e/o> .\n",
      "<http://e/a> <http://e/p> \"1\"^^<http://e/int> .\n",
      "<http://e/a> <http://e/p> \"1\"^^<http://e/\\u0041> .\n",
      "<http://e/a> <http://e/p> \"1\"^^<> .\n",
      "<http://e/a> <http://e/p> \"1\"^^http://e/int .\n",
      "<http://e/a> <http://e/p> \"1\"^^<http://e/int .\n",
      "<http://e/a> <http://e/p> \"1\"^<http://e/int> .\n",
      "<http://e/a> <http://e/p> \"1\"^^ .\n",
      "<http://e/a> <http://e/p> \"x\"@en^^<http://e/int> .\n",
      // Blank nodes.
      "_:b0 <http://e/p> _:b1 .\n",
      "_: <http://e/p> <http://e/b> .\n",
      "_x <http://e/p> <http://e/b> .\n",
      "_:b1. <http://e/p> <http://e/b> .\n",
      "<http://e/a> <http://e/p> _:b1.\n",
      "_:b1.. <http://e/p> <http://e/b> .\n",
      "_:a.b<http://e/p>_:c;d .\n",
      "_:a,b <http://e/p> <http://e/b> .\n",
      "<http://e/a> <http://e/p> _:x{y} .\n",
      "<http://e/a> <http://e/p> _:x'y .\n",
      "_:.. <http://e/p> <http://e/b> .\n",
      "_:a#b <http://e/p> <http://e/b> .\n",
      "_:a\"x\" <http://e/p> <http://e/b> .\n",
      "_:x <http://e/p> <x> .\n<x> <http://e/p> \"x\" .\n",
      // Positions.
      "\"x\" <http://e/p> <http://e/b> .\n",
      "\"x\"@ <http://e/p> <http://e/b> .\n",
      "<http://e/a> \"p\" <http://e/b> .\n",
      "<http://e/a> _:p <http://e/b> .\n",
      "<http://e/a> <http://e/p> .\n",
      "<http://e/a> <http://e/p>\n",
      "<http://e/a>\n",
      "<http://e/a> <http://e/p> <http://e/b>\n",
      "<http://e/a> <http://e/p> <http://e/b> . junk\n",
      "<http://e/a> <http://e/p> <http://e/b> ..\n",
      "<http://e/a <http://e/p> <http://e/b> .\n",
      "<http://e/a> <http://e/p> \"oops .\n",
      "<> <http://e/p> <> .\n",
      "<http://e/a>\r<http://e/p> <http://e/b> .\n",
      "? <http://e/p> <http://e/b> .\n",
      // Comments, CRLF, whitespace, duplicates, final lines.
      "<http://e/a> <http://e/p> <http://e/b> .# c\n",
      "<http://e/a> <http://e/p> <http://e/b> . # c\r\n"
      "<http://e/a> <http://e/p> <http://e/c> .\r\n",
      "\t <http://e/a>\t<http://e/p>   <http://e/b>\t.\t \n",
      "<http://e/a> <http://e/p> <http://e/b> .\n"
      "<http://e/a> <http://e/p> <http://e/b> .\n"
      "<http://e/a> <http://e/p> <http://e/b> .",
      "<http://e/a> <http://e/p> <http://e/b> .",
      "<http://e/a> <http://e/p> <http://e/b> .\n"
      "<http://e/new> <http://e/p> <http://e/c>\n",
      "<http://e/a> <http://e/p> <http://e/b> .\n"
      "<http://e/new> <http://e/newp> \"bad\\q\"",
      // Raw non-ASCII bytes and an embedded NUL.
      "<http://e/\xC3\xA9> <http://e/p> \"\xE2\x82\xAC\" .\n",
      // One spelling as every kind of term.
      "<x> <x> <x> .\n_:x <x> \"x\" .\n<x> <x> \"x\"@x .\n<x> <x> \"x\"^^<x> .\n",
  };
  for (const char* input : kCases) {
    ASSERT_TRUE(SameParse(input));
  }
  static constexpr char kWithNul[] = "<http://e/a> <http://e/p> \"a\0b\" .\n";
  ASSERT_TRUE(SameParse(std::string_view(kWithNul, sizeof(kWithNul) - 1)));
}

TEST(NTriplesDifferentialTest, SeededMutationsOfTheSnippet) {
  util::Rng rng(20260);
  std::size_t rejected = 0;
  for (int i = 0; i < 20000; ++i) {
    const std::string input = MutateWithEscapes(kSnippet, &rng);
    ASSERT_TRUE(SameParse(input)) << "mutation " << i;
    Graph graph;
    if (!ParseNTriples(input, &graph).ok()) ++rejected;
  }
  // Both outcomes are exercised in bulk.
  EXPECT_GT(rejected, 2000u);
  EXPECT_LT(rejected, 19000u);
}

TEST(NTriplesDifferentialTest, SeededMutationsOfCorpusSlices) {
  util::Rng rng(2027);
  const std::vector<std::string>& files = CorpusFiles();
  for (int i = 0; i < 300; ++i) {
    const std::string& file = files[rng.UniformUint64(files.size())];
    const std::size_t begin = rng.UniformUint64(file.size());
    const std::size_t length = 1 + rng.UniformUint64(4096);
    const std::string input =
        MutateWithEscapes(file.substr(begin, length), &rng);
    ASSERT_TRUE(SameParse(input)) << "slice " << i;
  }
}

}  // namespace
}  // namespace rulelink::rdf
