#include "util/simd.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

namespace rulelink::util {
namespace {

// The active ScopedSimdMode override, encoded as -1 (none) or the mode's
// underlying value. Plain int: overrides are installed from one thread
// before parallel regions, like the morsel-size override.
std::int16_t g_override = -1;

SimdMode ClampToCpu(SimdMode requested) {
  const SimdMode cpu = DetectCpuSimdMode();
  return static_cast<std::uint8_t>(requested) <=
                 static_cast<std::uint8_t>(cpu)
             ? requested
             : cpu;
}

SimdMode ParseEnvMode() {
  const char* env = std::getenv("RULELINK_SIMD");
  if (env == nullptr || env[0] == '\0' ||
      std::strcmp(env, "native") == 0) {
    return DetectCpuSimdMode();
  }
  if (std::strcmp(env, "scalar") == 0) return SimdMode::kScalar;
  if (std::strcmp(env, "sse4.2") == 0 || std::strcmp(env, "sse42") == 0) {
    return ClampToCpu(SimdMode::kSSE42);
  }
  if (std::strcmp(env, "avx2") == 0) return ClampToCpu(SimdMode::kAVX2);
  // Unknown value: fail safe to the portable mode rather than crashing a
  // serving process on a typo.
  return SimdMode::kScalar;
}

struct AtomicSimdTotals {
  std::atomic<std::uint64_t> cascade_batched{0};
  std::atomic<std::uint64_t> cascade_remainder{0};
  std::atomic<std::uint64_t> kernel_batched{0};
  std::atomic<std::uint64_t> kernel_remainder{0};
};

AtomicSimdTotals& Totals() {
  static AtomicSimdTotals totals;
  return totals;
}

}  // namespace

SimdMode DetectCpuSimdMode() {
#if defined(__x86_64__) || defined(__i386__)
  static const SimdMode detected = [] {
    if (__builtin_cpu_supports("avx2")) return SimdMode::kAVX2;
    if (__builtin_cpu_supports("sse4.2")) return SimdMode::kSSE42;
    return SimdMode::kScalar;
  }();
  return detected;
#else
  return SimdMode::kScalar;
#endif
}

SimdMode ActiveSimdMode() {
  if (g_override >= 0) {
    return ClampToCpu(static_cast<SimdMode>(g_override));
  }
  static const SimdMode from_env = ParseEnvMode();
  return from_env;
}

const char* SimdModeName(SimdMode mode) {
  switch (mode) {
    case SimdMode::kScalar: return "scalar";
    case SimdMode::kSSE42: return "sse4.2";
    case SimdMode::kAVX2: return "avx2";
  }
  return "scalar";
}

std::size_t SimdBatchWidth(SimdMode mode) {
  switch (mode) {
    case SimdMode::kAVX2: return 8;
    case SimdMode::kSSE42: return 4;
    case SimdMode::kScalar: return 1;
  }
  return 1;
}

ScopedSimdMode::ScopedSimdMode(SimdMode mode) : previous_(g_override) {
  g_override = static_cast<std::int16_t>(static_cast<std::uint8_t>(mode));
}

ScopedSimdMode::~ScopedSimdMode() { g_override = previous_; }

SimdTotals SimdTotals::Minus(const SimdTotals& earlier) const {
  SimdTotals delta;
  delta.cascade_batched_pairs =
      cascade_batched_pairs - earlier.cascade_batched_pairs;
  delta.cascade_remainder_pairs =
      cascade_remainder_pairs - earlier.cascade_remainder_pairs;
  delta.kernel_batched_pairs =
      kernel_batched_pairs - earlier.kernel_batched_pairs;
  delta.kernel_remainder_pairs =
      kernel_remainder_pairs - earlier.kernel_remainder_pairs;
  return delta;
}

SimdTotals GlobalSimdTotals() {
  const AtomicSimdTotals& t = Totals();
  SimdTotals totals;
  totals.cascade_batched_pairs =
      t.cascade_batched.load(std::memory_order_relaxed);
  totals.cascade_remainder_pairs =
      t.cascade_remainder.load(std::memory_order_relaxed);
  totals.kernel_batched_pairs =
      t.kernel_batched.load(std::memory_order_relaxed);
  totals.kernel_remainder_pairs =
      t.kernel_remainder.load(std::memory_order_relaxed);
  return totals;
}

SimdStats GlobalSimdStats() {
  SimdStats stats;
  stats.mode = ActiveSimdMode();
  stats.dispatch = SimdModeName(stats.mode);
  stats.batch_width = SimdBatchWidth(stats.mode);
  stats.totals = GlobalSimdTotals();
  return stats;
}

void AddSimdCascadePairs(std::uint64_t batched, std::uint64_t remainder) {
  if (batched != 0) {
    Totals().cascade_batched.fetch_add(batched, std::memory_order_relaxed);
  }
  if (remainder != 0) {
    Totals().cascade_remainder.fetch_add(remainder,
                                         std::memory_order_relaxed);
  }
}

void AddSimdKernelPairs(std::uint64_t batched, std::uint64_t remainder) {
  if (batched != 0) {
    Totals().kernel_batched.fetch_add(batched, std::memory_order_relaxed);
  }
  if (remainder != 0) {
    Totals().kernel_remainder.fetch_add(remainder,
                                        std::memory_order_relaxed);
  }
}

}  // namespace rulelink::util
