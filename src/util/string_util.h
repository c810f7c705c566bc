// String helpers shared across the library. All functions are pure and
// allocation-conscious: splitting returns string_views into the input.
#ifndef RULELINK_UTIL_STRING_UTIL_H_
#define RULELINK_UTIL_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace rulelink::util {

// Splits `input` on any character in `separators`; empty pieces are dropped.
// The returned views alias `input`.
std::vector<std::string_view> SplitAny(std::string_view input,
                                       std::string_view separators);
// SplitAny appending to `out`, so a caller's reused buffer allocates
// nothing once it has grown.
void SplitAnyInto(std::string_view input, std::string_view separators,
                  std::vector<std::string_view>* out);

// Splits `input` on the single character `sep`, keeping empty pieces.
std::vector<std::string_view> Split(std::string_view input, char sep);

// Joins `pieces` with `sep`.
std::string Join(const std::vector<std::string>& pieces, std::string_view sep);
std::string Join(const std::vector<std::string_view>& pieces,
                 std::string_view sep);

// Removes leading/trailing ASCII whitespace.
std::string_view StripAsciiWhitespace(std::string_view input);

// ASCII case conversion (locale-independent).
std::string AsciiToLower(std::string_view input);
std::string AsciiToUpper(std::string_view input);

bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

// True when `c` is an ASCII letter or digit. The paper's segmentation splits
// part-numbers on every character that is neither.
bool IsAsciiAlnum(char c);
bool IsAsciiDigit(char c);
bool IsAsciiAlpha(char c);

// Replaces every occurrence of `from` (non-empty) with `to`.
std::string ReplaceAll(std::string_view input, std::string_view from,
                       std::string_view to);

// Formats a double with `digits` digits after the decimal point.
std::string FormatDouble(double value, int digits);

// Formats a double as the shortest decimal string that parses back to
// exactly the same value (std::to_chars round-trip semantics). Locale
// independent; non-finite values render as "inf"/"-inf"/"nan".
std::string FormatDoubleRoundTrip(double value);

// Parses a base-10 floating-point literal (the full string, no trailing
// junk); returns false on malformed input. Round-trips the output of
// FormatDoubleRoundTrip bit-exactly.
bool ParseDouble(std::string_view s, double* out);

// Formats a ratio as a percentage string, e.g. 0.969 -> "96.9%".
std::string FormatPercent(double ratio, int digits = 1);

// Parses a non-negative base-10 integer; returns false on any non-digit or
// overflow.
bool ParseUint64(std::string_view s, unsigned long long* out);

}  // namespace rulelink::util

#endif  // RULELINK_UTIL_STRING_UTIL_H_
