#include "io/csv.h"

#include <gtest/gtest.h>

#include "io/item_loader.h"

namespace rulelink::io {
namespace {

TEST(CsvTest, BasicParsing) {
  auto table = ParseCsv("id,pn,mfr\n1,CRCW0805,Voltron\n2,T83,Tekdyne\n");
  ASSERT_TRUE(table.ok()) << table.status();
  ASSERT_EQ(table->header.size(), 3u);
  ASSERT_EQ(table->rows.size(), 2u);
  EXPECT_EQ(table->rows[0][1], "CRCW0805");
  EXPECT_EQ(table->rows[1][2], "Tekdyne");
}

TEST(CsvTest, QuotedFields) {
  auto table = ParseCsv(
      "id,desc\n"
      "1,\"has, comma\"\n"
      "2,\"has \"\"quotes\"\"\"\n"
      "3,\"multi\nline\"\n");
  ASSERT_TRUE(table.ok()) << table.status();
  ASSERT_EQ(table->rows.size(), 3u);
  EXPECT_EQ(table->rows[0][1], "has, comma");
  EXPECT_EQ(table->rows[1][1], "has \"quotes\"");
  EXPECT_EQ(table->rows[2][1], "multi\nline");
}

TEST(CsvTest, CrLfLineEndings) {
  auto table = ParseCsv("a,b\r\n1,2\r\n3,4\r\n");
  ASSERT_TRUE(table.ok());
  ASSERT_EQ(table->rows.size(), 2u);
  EXPECT_EQ(table->rows[0][0], "1");
  EXPECT_EQ(table->rows[1][1], "4");
}

// Regression: a \r NOT followed by \n is field data, not a line ending.
// The parser used to swallow every unquoted \r, silently corrupting
// fields containing a bare carriage return ("a\rb" became "ab").
TEST(CsvTest, LoneCarriageReturnIsData) {
  auto table = ParseCsv("a,b\nx\ry,2\n");
  ASSERT_TRUE(table.ok()) << table.status();
  ASSERT_EQ(table->rows.size(), 1u);
  EXPECT_EQ(table->rows[0][0], "x\ry");
  EXPECT_EQ(table->rows[0][1], "2");
}

// Regression: only the \r of a \r\n pair is stripped; a trailing \r with
// no newline after it stays in the final field.
TEST(CsvTest, TrailingCarriageReturnWithoutNewline) {
  auto table = ParseCsv("a,b\n1,2\r");
  ASSERT_TRUE(table.ok()) << table.status();
  ASSERT_EQ(table->rows.size(), 1u);
  EXPECT_EQ(table->rows[0][1], "2\r");
}

// Mixed endings in one file: CRLF records and LF records agree.
TEST(CsvTest, MixedLineEndings) {
  auto table = ParseCsv("a,b\r\n1,2\n3,4\r\n");
  ASSERT_TRUE(table.ok()) << table.status();
  ASSERT_EQ(table->rows.size(), 2u);
  EXPECT_EQ(table->rows[0][1], "2");
  EXPECT_EQ(table->rows[1][0], "3");
}

// A quoted field keeps \r\n verbatim — terminator stripping only applies
// outside quotes.
TEST(CsvTest, QuotedCrLfPreserved) {
  auto table = ParseCsv("a,b\n1,\"x\r\ny\"\n");
  ASSERT_TRUE(table.ok()) << table.status();
  ASSERT_EQ(table->rows.size(), 1u);
  EXPECT_EQ(table->rows[0][1], "x\r\ny");
}

TEST(CsvTest, NoTrailingNewline) {
  auto table = ParseCsv("a,b\n1,2");
  ASSERT_TRUE(table.ok());
  ASSERT_EQ(table->rows.size(), 1u);
}

TEST(CsvTest, EmptyFields) {
  auto table = ParseCsv("a,b,c\n,,\nx,,z\n");
  ASSERT_TRUE(table.ok());
  ASSERT_EQ(table->rows.size(), 2u);
  EXPECT_EQ(table->rows[0][0], "");
  EXPECT_EQ(table->rows[1][1], "");
  EXPECT_EQ(table->rows[1][2], "z");
}

TEST(CsvTest, ShortRowsPadded) {
  auto table = ParseCsv("a,b,c\n1\n");
  ASSERT_TRUE(table.ok());
  ASSERT_EQ(table->rows[0].size(), 3u);
  EXPECT_EQ(table->rows[0][2], "");
}

TEST(CsvTest, OverlongRowRejectedWhenEnforcing) {
  EXPECT_FALSE(ParseCsv("a,b\n1,2,3\n").ok());
  CsvOptions options;
  options.enforce_width = false;
  auto table = ParseCsv("a,b\n1,2,3\n", options);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->rows[0].size(), 3u);
}

TEST(CsvTest, CustomSeparator) {
  CsvOptions options;
  options.separator = ';';
  auto table = ParseCsv("a;b\n1;2\n", options);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->rows[0][1], "2");
}

TEST(CsvTest, NoHeaderMode) {
  CsvOptions options;
  options.has_header = false;
  auto table = ParseCsv("1,2\n3,4\n", options);
  ASSERT_TRUE(table.ok());
  EXPECT_TRUE(table->header.empty());
  EXPECT_EQ(table->rows.size(), 2u);
}

TEST(CsvTest, UnterminatedQuoteIsError) {
  EXPECT_FALSE(ParseCsv("a\n\"oops\n").ok());
}

// Regression: the unterminated-quote error names the line the quote
// OPENED on. The old message used the line count at end-of-scan, which
// for a quote spanning trailing lines pointed at the EOF line instead.
TEST(CsvTest, UnterminatedQuoteReportsOpeningLine) {
  const auto status = ParseCsv("a\nok\n\"oops\nmore\nlines\n").status();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("line 3"), std::string::npos)
      << status.message();
}

TEST(CsvTest, EmptyContent) {
  EXPECT_FALSE(ParseCsv("").ok());  // header required by default
  CsvOptions options;
  options.has_header = false;
  auto table = ParseCsv("", options);
  ASSERT_TRUE(table.ok());
  EXPECT_TRUE(table->rows.empty());
}

TEST(CsvTest, ColumnIndex) {
  auto table = ParseCsv("id,pn\n1,x\n");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->ColumnIndex("pn"), 1u);
  EXPECT_EQ(table->ColumnIndex("nope"), CsvTable::npos);
}

TEST(CsvFileTest, MissingFile) {
  EXPECT_EQ(ParseCsvFile("/nonexistent.csv").status().code(),
            util::StatusCode::kNotFound);
}

TEST(CsvFileTest, DirectoryIsInvalidArgument) {
  // Not "missing header row": the read fails and says which path.
  const util::Status status = ParseCsvFile(::testing::TempDir()).status();
  EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find(::testing::TempDir()), std::string::npos)
      << status;
}

// --- Item loading ---------------------------------------------------------

constexpr char kProviderCsv[] =
    "sku,partnumber,manufacturer,notes\n"
    "D1,CRCW0805-10K-ohm,Voltron,\n"
    "D2,T83.106.16V,Tekdyne,tantalum\n";

TEST(ItemLoaderTest, AutoMapping) {
  ItemCsvMapping mapping;
  mapping.id_column = "sku";
  mapping.iri_prefix = "http://provider/";
  mapping.property_prefix = "http://provider/schema#";
  auto items = LoadItemsFromCsv(kProviderCsv, mapping);
  ASSERT_TRUE(items.ok()) << items.status();
  ASSERT_EQ(items->size(), 2u);
  EXPECT_EQ((*items)[0].iri, "http://provider/D1");
  // Empty "notes" skipped on D1, present on D2.
  EXPECT_EQ((*items)[0].facts.size(), 2u);
  EXPECT_EQ((*items)[1].facts.size(), 3u);
  EXPECT_EQ((*items)[0].ValuesOf("http://provider/schema#partnumber"),
            std::vector<std::string>{"CRCW0805-10K-ohm"});
}

TEST(ItemLoaderTest, ExplicitMapping) {
  ItemCsvMapping mapping;
  mapping.id_column = "sku";
  mapping.iri_prefix = "p:";
  mapping.columns = {{"partnumber", "http://s/pn"}};
  auto items = LoadItemsFromCsv(kProviderCsv, mapping);
  ASSERT_TRUE(items.ok());
  EXPECT_EQ((*items)[0].facts.size(), 1u);
  EXPECT_EQ((*items)[0].facts[0].property, "http://s/pn");
}

TEST(ItemLoaderTest, MissingIdColumn) {
  ItemCsvMapping mapping;
  mapping.id_column = "nope";
  EXPECT_FALSE(LoadItemsFromCsv(kProviderCsv, mapping).ok());
}

TEST(ItemLoaderTest, MissingMappedColumn) {
  ItemCsvMapping mapping;
  mapping.id_column = "sku";
  mapping.columns = {{"nope", "p"}};
  EXPECT_FALSE(LoadItemsFromCsv(kProviderCsv, mapping).ok());
}

TEST(ItemLoaderTest, DuplicateIdsRejected) {
  ItemCsvMapping mapping;
  mapping.id_column = "id";
  EXPECT_FALSE(
      LoadItemsFromCsv("id,pn\nX,1\nX,2\n", mapping).ok());
}

TEST(ItemLoaderTest, EmptyIdRejected) {
  ItemCsvMapping mapping;
  mapping.id_column = "id";
  EXPECT_FALSE(LoadItemsFromCsv("id,pn\n,1\n", mapping).ok());
}

}  // namespace
}  // namespace rulelink::io
