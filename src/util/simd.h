// CPU SIMD detection, kept only for the benchmark's host block
// (perfbench/main.cc prints the mode and installs a ScopedSimdMode). No
// library code, test or bench reads it: stage A's signature overlap picks
// SSE2 at compile time and stage B probes with the single-pair kernel
// (DESIGN.md §5h), so nothing dispatches on the mode.
#ifndef RULELINK_UTIL_SIMD_H_
#define RULELINK_UTIL_SIMD_H_

#include <cstdint>

namespace rulelink::util {

enum class SimdMode : std::uint8_t {
  kScalar,  // baseline ISA
  kAVX2,    // 256-bit lanes
};

// The best mode this CPU supports.
SimdMode DetectCpuSimdMode();

// The ScopedSimdMode override clamped to the CPU's capability, else
// DetectCpuSimdMode().
SimdMode ActiveSimdMode();

// "scalar" or "avx2".
const char* SimdModeName(SimdMode mode);

// Forces every ActiveSimdMode() in scope to `mode` (clamped to the CPU),
// restoring the previous override on destruction. Not itself
// thread-safe: install it before spawning threads.
class ScopedSimdMode {
 public:
  explicit ScopedSimdMode(SimdMode mode);
  ~ScopedSimdMode();
  ScopedSimdMode(const ScopedSimdMode&) = delete;
  ScopedSimdMode& operator=(const ScopedSimdMode&) = delete;

 private:
  std::int16_t previous_;  // -1 = no override was installed
};

}  // namespace rulelink::util

#endif  // RULELINK_UTIL_SIMD_H_
