// Runtime SIMD dispatch for the batched linking hot path (DESIGN.md §5h).
//
// The batch kernels (FilterCascade::PruneBatch's stage-A lanes and the
// interleaved Myers Levenshtein in text/similarity.cc) are compiled twice
// — baseline ISA and AVX2 via per-function target attributes — and one of
// them is picked at runtime from CPUID. The mode only selects *which
// compiled copy of the same elementwise arithmetic* runs; every copy
// performs the identical IEEE operations per pair, so links and
// FilterStats are byte-identical across modes (the contract
// tests/filter_batch_differential_test.cc enforces).
//
// Override order: ScopedSimdMode (tests/benches, in-process) beats CPU
// detection. A requested ISA the CPU lacks is clamped down to what it
// supports. Every mode runs the batch entry points; "scalar" is their
// baseline-ISA floor.
//
// The process-wide counters here mirror the scheduler's observability
// discipline: hot paths accumulate into local plain integers and fold
// them in with one atomic add per batch, and the totals are
// timing/dispatch-variant, so they render only in the full
// MetricsSnapshot ("simd" section), never in DeterministicJson.
#ifndef RULELINK_UTIL_SIMD_H_
#define RULELINK_UTIL_SIMD_H_

#include <cstddef>
#include <cstdint>

namespace rulelink::util {

enum class SimdMode : std::uint8_t {
  kScalar,  // batch layout and loops, compiled at the baseline ISA
  kAVX2,    // 256-bit lanes
};

// The best mode this CPU supports.
SimdMode DetectCpuSimdMode();

// The mode the batch entry points should use right now: the
// ScopedSimdMode override clamped to the CPU's capability, else
// DetectCpuSimdMode(). Cheap (one plain load and a cached CPUID result).
SimdMode ActiveSimdMode();

// "scalar" or "avx2".
const char* SimdModeName(SimdMode mode);

// Forces every ActiveSimdMode() in scope to `mode` (clamped to the CPU),
// restoring the previous override on destruction. Like ScopedMorselItems:
// not itself thread-safe — install before spawning the loops under test.
class ScopedSimdMode {
 public:
  explicit ScopedSimdMode(SimdMode mode);
  ~ScopedSimdMode();
  ScopedSimdMode(const ScopedSimdMode&) = delete;
  ScopedSimdMode& operator=(const ScopedSimdMode&) = delete;

 private:
  std::int16_t previous_;  // -1 = no override was installed
};

// --- Observability ------------------------------------------------------

// Cumulative process-wide bounded-Levenshtein probe counts, subtractable
// so benches can report per-measurement deltas (like SchedulerTotals):
// batched = lanes of the interleaved Myers kernel, remainder =
// single-pair calls.
struct SimdTotals {
  std::uint64_t kernel_batched_pairs = 0;
  std::uint64_t kernel_remainder_pairs = 0;

  SimdTotals Minus(const SimdTotals& earlier) const;
};

// Snapshot for the MetricsSnapshot "simd" section: the active dispatch
// target plus the lifetime counters.
struct SimdStats {
  SimdMode mode = SimdMode::kScalar;
  const char* dispatch = "scalar";
  SimdTotals totals;
};

SimdTotals GlobalSimdTotals();
SimdStats GlobalSimdStats();

// Fold local counts into the process totals (one atomic add each; call
// once per batch, never per pair).
void AddSimdKernelPairs(std::uint64_t batched, std::uint64_t remainder);

}  // namespace rulelink::util

#endif  // RULELINK_UTIL_SIMD_H_
