// Seeded byte-level mutations shared by the parser fuzz tests
// (parser_robustness_test, ntriples_differential_test). Deterministic for a
// given util::Rng state.
#ifndef RULELINK_TESTS_FUZZ_MUTATE_H_
#define RULELINK_TESTS_FUZZ_MUTATE_H_

#include <cstddef>
#include <string>

#include "util/rng.h"

namespace rulelink::fuzz {

// Applies 1-4 random edits to `input`: substitute, delete or duplicate a
// byte, or insert a structural character.
inline std::string Mutate(std::string input, util::Rng* rng) {
  const std::size_t edits = 1 + rng->UniformUint64(4);
  for (std::size_t e = 0; e < edits && !input.empty(); ++e) {
    const std::size_t pos = rng->UniformUint64(input.size());
    switch (rng->UniformUint64(4)) {
      case 0:  // substitute with a random byte (printable-ish range)
        input[pos] = static_cast<char>(32 + rng->UniformUint64(95));
        break;
      case 1:  // delete
        input.erase(input.begin() + static_cast<std::ptrdiff_t>(pos));
        break;
      case 2:  // duplicate a byte
        input.insert(input.begin() + static_cast<std::ptrdiff_t>(pos),
                     input[pos]);
        break;
      case 3:  // insert a structural character
        input.insert(pos, 1, "<>\"\\.;,@{}()?#\n"[rng->UniformUint64(15)]);
        break;
    }
  }
  return input;
}

}  // namespace rulelink::fuzz

#endif  // RULELINK_TESTS_FUZZ_MUTATE_H_
