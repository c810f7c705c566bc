#include "io/csv.h"

#include "util/file.h"

namespace rulelink::io {

std::size_t CsvTable::ColumnIndex(std::string_view name) const {
  for (std::size_t i = 0; i < header.size(); ++i) {
    if (header[i] == name) return i;
  }
  return npos;
}

util::Result<CsvTable> ParseCsv(std::string_view content,
                                const CsvOptions& options) {
  std::vector<std::vector<std::string>> records;
  std::vector<std::string> record;
  std::string field;
  bool in_quotes = false;
  bool field_started = false;  // any char consumed for the current record
  std::size_t line_no = 1;
  std::size_t quote_open_line = 0;  // line of the last unmatched opening quote

  const auto end_field = [&] {
    record.push_back(std::move(field));
    field.clear();
  };
  const auto end_record = [&] {
    end_field();
    records.push_back(std::move(record));
    record.clear();
    field_started = false;
  };

  for (std::size_t i = 0; i < content.size(); ++i) {
    const char c = content[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < content.size() && content[i + 1] == '"') {
          field.push_back('"');
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        if (c == '\n') ++line_no;
        field.push_back(c);
      }
      continue;
    }
    if (c == '"') {
      in_quotes = true;
      quote_open_line = line_no;
      field_started = true;
    } else if (c == options.separator) {
      end_field();
      field_started = true;
    } else if (c == '\r' && i + 1 < content.size() &&
               content[i + 1] == '\n') {
      // CRLF: the \r is part of the record terminator, not of the field;
      // the \n that follows ends the record. A \r NOT followed by \n is
      // ordinary field data and falls through to the default branch.
    } else if (c == '\n') {
      ++line_no;
      if (field_started || !field.empty() || !record.empty()) {
        end_record();
      }
    } else {
      field.push_back(c);
      field_started = true;
    }
  }
  if (in_quotes) {
    // Report where the offending quote opened, not the line the scan ended
    // on — a quoted field may span many physical lines, and the EOF line
    // number points nowhere near the actual mistake.
    return util::InvalidArgumentError(
        "CSV: unterminated quoted field (opened on line " +
        std::to_string(quote_open_line) + ")");
  }
  if (field_started || !field.empty() || !record.empty()) {
    end_record();
  }

  CsvTable table;
  std::size_t first_row = 0;
  if (options.has_header) {
    if (records.empty()) {
      return util::InvalidArgumentError("CSV: missing header row");
    }
    table.header = std::move(records[0]);
    first_row = 1;
  }
  for (std::size_t r = first_row; r < records.size(); ++r) {
    if (options.has_header && options.enforce_width) {
      if (records[r].size() > table.header.size()) {
        return util::InvalidArgumentError(
            "CSV: row " + std::to_string(r + 1) + " has " +
            std::to_string(records[r].size()) + " fields, header has " +
            std::to_string(table.header.size()));
      }
      records[r].resize(table.header.size());
    }
    table.rows.push_back(std::move(records[r]));
  }
  return table;
}

util::Result<CsvTable> ParseCsvFile(const std::string& path,
                                    const CsvOptions& options) {
  RL_ASSIGN_OR_RETURN(const std::string content, util::ReadFile(path));
  return ParseCsv(content, options);
}

}  // namespace rulelink::io
