// Whole-file reading for the parsers' *File entry points.
#ifndef RULELINK_UTIL_FILE_H_
#define RULELINK_UTIL_FILE_H_

#include <string>

#include "util/status.h"

namespace rulelink::util {

// Reads the file (or pipe) at `path` into memory with one copy. NotFound
// when it cannot be opened; InvalidArgument naming `path` when a read
// fails, as reading a directory does.
Result<std::string> ReadFile(const std::string& path);

}  // namespace rulelink::util

#endif  // RULELINK_UTIL_FILE_H_
