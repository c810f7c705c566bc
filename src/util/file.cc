#include "util/file.h"

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <system_error>

namespace rulelink::util {

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return NotFoundError("cannot open file: " + path);
  // Reserve from a regular file's size, then read in chunks to the end,
  // which serves a pipe too. Only a regular file has a size: a directory
  // can report an end offset far past any real size.
  constexpr std::size_t kChunk = std::size_t{1} << 16;
  std::string content;
  std::error_code size_error;
  const std::uintmax_t size = std::filesystem::file_size(path, size_error);
  if (!size_error) content.reserve(static_cast<std::size_t>(size) + kChunk);
  std::size_t used = 0;
  while (in) {
    content.resize(used + kChunk);
    in.read(content.data() + used, static_cast<std::streamsize>(kChunk));
    used += static_cast<std::size_t>(in.gcount());
  }
  if (in.bad()) return InvalidArgumentError("cannot read file: " + path);
  content.resize(used);
  return content;
}

}  // namespace rulelink::util
