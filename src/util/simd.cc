#include "util/simd.h"

namespace rulelink::util {
namespace {

// The active ScopedSimdMode override, encoded as -1 (none) or the mode's
// underlying value. Plain int: overrides are installed from one thread
// before parallel regions, like the morsel-size override.
std::int16_t g_override = -1;

}  // namespace

SimdMode DetectCpuSimdMode() {
#if defined(__x86_64__) || defined(__i386__)
  static const SimdMode detected = __builtin_cpu_supports("avx2")
                                       ? SimdMode::kAVX2
                                       : SimdMode::kScalar;
  return detected;
#else
  return SimdMode::kScalar;
#endif
}

SimdMode ActiveSimdMode() {
  const SimdMode cpu = DetectCpuSimdMode();
  if (g_override < 0) return cpu;
  const SimdMode requested = static_cast<SimdMode>(g_override);
  return static_cast<std::uint8_t>(requested) <=
                 static_cast<std::uint8_t>(cpu)
             ? requested
             : cpu;
}

const char* SimdModeName(SimdMode mode) {
  switch (mode) {
    case SimdMode::kScalar: return "scalar";
    case SimdMode::kAVX2: return "avx2";
  }
  return "scalar";
}

ScopedSimdMode::ScopedSimdMode(SimdMode mode) : previous_(g_override) {
  g_override = static_cast<std::int16_t>(static_cast<std::uint8_t>(mode));
}

ScopedSimdMode::~ScopedSimdMode() { g_override = previous_; }

}  // namespace rulelink::util
