#include "util/simd.h"

#include <atomic>

namespace rulelink::util {
namespace {

// The active ScopedSimdMode override, encoded as -1 (none) or the mode's
// underlying value. Plain int: overrides are installed from one thread
// before parallel regions, like the morsel-size override.
std::int16_t g_override = -1;

struct AtomicSimdTotals {
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

SimdTotals SimdTotals::Minus(const SimdTotals& earlier) const {
  SimdTotals delta;
  delta.kernel_batched_pairs =
      kernel_batched_pairs - earlier.kernel_batched_pairs;
  delta.kernel_remainder_pairs =
      kernel_remainder_pairs - earlier.kernel_remainder_pairs;
  return delta;
}

SimdTotals GlobalSimdTotals() {
  const AtomicSimdTotals& t = Totals();
  SimdTotals totals;
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
  stats.totals = GlobalSimdTotals();
  return stats;
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
