#include "util/string_util.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <system_error>

namespace rulelink::util {

std::vector<std::string_view> SplitAny(std::string_view input,
                                       std::string_view separators) {
  std::vector<std::string_view> pieces;
  SplitAnyInto(input, separators, &pieces);
  return pieces;
}

void SplitAnyInto(std::string_view input, std::string_view separators,
                  std::vector<std::string_view>* out) {
  std::size_t start = 0;
  for (std::size_t i = 0; i <= input.size(); ++i) {
    const bool at_sep =
        i == input.size() || separators.find(input[i]) != std::string_view::npos;
    if (at_sep) {
      if (i > start) out->push_back(input.substr(start, i - start));
      start = i + 1;
    }
  }
}

std::vector<std::string_view> Split(std::string_view input, char sep) {
  std::vector<std::string_view> pieces;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= input.size(); ++i) {
    if (i == input.size() || input[i] == sep) {
      pieces.push_back(input.substr(start, i - start));
      start = i + 1;
    }
  }
  return pieces;
}

namespace {
template <typename Container>
std::string JoinImpl(const Container& pieces, std::string_view sep) {
  std::string out;
  bool first = true;
  for (const auto& piece : pieces) {
    if (!first) out.append(sep);
    out.append(piece);
    first = false;
  }
  return out;
}
}  // namespace

std::string Join(const std::vector<std::string>& pieces,
                 std::string_view sep) {
  return JoinImpl(pieces, sep);
}
std::string Join(const std::vector<std::string_view>& pieces,
                 std::string_view sep) {
  return JoinImpl(pieces, sep);
}

std::string_view StripAsciiWhitespace(std::string_view input) {
  std::size_t begin = 0;
  std::size_t end = input.size();
  while (begin < end && (input[begin] == ' ' || input[begin] == '\t' ||
                         input[begin] == '\n' || input[begin] == '\r')) {
    ++begin;
  }
  while (end > begin && (input[end - 1] == ' ' || input[end - 1] == '\t' ||
                         input[end - 1] == '\n' || input[end - 1] == '\r')) {
    --end;
  }
  return input.substr(begin, end - begin);
}

std::string AsciiToLower(std::string_view input) {
  std::string out(input);
  for (char& c : out) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  return out;
}

std::string AsciiToUpper(std::string_view input) {
  std::string out(input);
  for (char& c : out) {
    if (c >= 'a' && c <= 'z') c = static_cast<char>(c - 'a' + 'A');
  }
  return out;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

bool IsAsciiAlnum(char c) {
  return IsAsciiAlpha(c) || IsAsciiDigit(c);
}
bool IsAsciiDigit(char c) { return c >= '0' && c <= '9'; }
bool IsAsciiAlpha(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
}

std::string ReplaceAll(std::string_view input, std::string_view from,
                       std::string_view to) {
  if (from.empty()) return std::string(input);
  std::string out;
  std::size_t pos = 0;
  while (pos < input.size()) {
    const std::size_t hit = input.find(from, pos);
    if (hit == std::string_view::npos) {
      out.append(input.substr(pos));
      break;
    }
    out.append(input.substr(pos, hit - pos));
    out.append(to);
    pos = hit + from.size();
  }
  return out;
}

std::string FormatDouble(double value, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, value);
  return buf;
}

std::string FormatDoubleRoundTrip(double value) {
  if (std::isnan(value)) return "nan";
  if (std::isinf(value)) return value < 0 ? "-inf" : "inf";
  char buf[64];
  const auto result = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, result.ptr);
}

bool ParseDouble(std::string_view s, double* out) {
  if (s.empty()) return false;
  double value = 0.0;
  const auto result = std::from_chars(s.data(), s.data() + s.size(), value);
  if (result.ec != std::errc() || result.ptr != s.data() + s.size()) {
    return false;
  }
  *out = value;
  return true;
}

std::string FormatPercent(double ratio, int digits) {
  return FormatDouble(ratio * 100.0, digits) + "%";
}

bool ParseUint64(std::string_view s, unsigned long long* out) {
  if (s.empty()) return false;
  unsigned long long value = 0;
  for (char c : s) {
    if (!IsAsciiDigit(c)) return false;
    const unsigned long long digit = static_cast<unsigned long long>(c - '0');
    if (value > (~0ULL - digit) / 10ULL) return false;  // overflow
    value = value * 10ULL + digit;
  }
  *out = value;
  return true;
}

}  // namespace rulelink::util
