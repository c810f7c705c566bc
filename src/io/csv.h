// RFC-4180-style CSV parsing: quoted fields, embedded separators, escaped
// quotes ("" inside quotes), CRLF/LF line endings. Provider catalogs are
// routinely delivered as CSV next to (or instead of) RDF, so ingestion is
// part of the linking substrate.
#ifndef RULELINK_IO_CSV_H_
#define RULELINK_IO_CSV_H_

#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace rulelink::io {

struct CsvTable {
  std::vector<std::string> header;             // empty if has_header=false
  std::vector<std::vector<std::string>> rows;  // all records

  // Column index by header name, or npos.
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  std::size_t ColumnIndex(std::string_view name) const;
};

struct CsvOptions {
  char separator = ',';
  bool has_header = true;
  // When true, rows shorter than the header are padded with empty fields
  // and longer rows are an error; when false, ragged rows pass through.
  bool enforce_width = true;
};

// Parses CSV content. Returns InvalidArgument with a line number on
// unterminated quotes or (with enforce_width) over-long rows.
util::Result<CsvTable> ParseCsv(std::string_view content,
                                const CsvOptions& options = CsvOptions());

// ParseCsv over the file at `path`, read by util::ReadFile (NotFound when
// it cannot be opened, InvalidArgument when it cannot be read).
util::Result<CsvTable> ParseCsvFile(const std::string& path,
                                    const CsvOptions& options = CsvOptions());

}  // namespace rulelink::io

#endif  // RULELINK_IO_CSV_H_
