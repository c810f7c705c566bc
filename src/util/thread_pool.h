// Morsel-driven parallel loops on one persistent process pool, used by the
// learner, classifier, linker, evaluator and workload-generator hot paths.
//
// Design (see DESIGN.md §5g; §5b documents the determinism discipline):
//   * morsels: [0, n) is split into fixed-size contiguous morsels of
//     `items_per_morsel` items. Morsel s — the "slot" — always covers
//     [s*m, min(n, (s+1)*m)), a pure function of (n, m) and never of
//     scheduling order. Every participant claims the next unclaimed slot
//     from the loop's one shared cursor, so skewed per-item costs
//     self-balance: while one participant is stuck in an expensive slot,
//     the others keep claiming the rest.
//   * determinism contract (non-negotiable): the slot index passed to the
//     body is the morsel's position in index order, so callers shard into
//     per-slot accumulators — sized with ParallelSlots — and merge them in
//     slot order. Slot s always precedes slot s+1's item range, hence the
//     slot-order merge replays the exact serial order and every entry
//     point stays byte-identical to the serial path at any thread count,
//     any morsel size and any claim interleaving.
//   * persistent pool: the process keeps one lazily-spawned pool, private
//     to thread_pool.cc, that grows to the largest parallelism ever
//     requested and is reused by every ParallelFor call — no thread spawn
//     per invocation. The calling thread participates, so `num_threads`
//     means "execution contexts", not "extra threads".
//   * num_threads <= 1 (after resolution) runs the body inline on the
//     calling thread as one slot covering [0, n) — no pool, no locks, no
//     allocation; the legacy serial code path, kept reachable so
//     differential tests can compare the sharded paths against it.
//   * nested ParallelFor from inside a loop body is safe: the nested
//     caller drives its own loop to completion (claiming slots itself),
//     pool workers join only if free, and loop-completion waits follow
//     strict nesting, so no cycle of waits can form.
//   * exceptions thrown by morsel bodies are captured and rethrown on the
//     calling thread, lowest slot index first, so failure behaviour is
//     deterministic too. Every slot still runs.
//   * oversubscription is graceful, not clamped: an explicit request above
//     hardware_concurrency stands up that many contexts. Morsels are small
//     enough that extra contexts time-slice instead of stretching a static
//     partition.
#ifndef RULELINK_UTIL_THREAD_POOL_H_
#define RULELINK_UTIL_THREAD_POOL_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace rulelink::util {

// Hard ceiling on execution contexts; far above any sane request, it only
// bounds what a pathological --threads value can spawn.
inline constexpr std::size_t kMaxParallelWorkers = 256;

// Resolves a user-facing thread-count option: 0 means "use the hardware",
// i.e. std::thread::hardware_concurrency() (at least 1); an explicit
// request passes through (capped only at kMaxParallelWorkers). Requests
// beyond the hardware are honoured — morsel scheduling degrades gracefully
// under oversubscription, and tests rely on forcing contention.
std::size_t ResolveNumThreads(std::size_t requested);

// Morsel body: half-open item range [begin, end) plus the slot ordinal
// (the morsel's index-order position), which callers use to index
// per-slot accumulators.
using ChunkBody =
    std::function<void(std::size_t slot, std::size_t begin, std::size_t end)>;

// --- Scheduler observability -------------------------------------------

// One participant's scheduler counters. Thread-variant by nature: they
// depend on timing and on who claimed which slot, so they belong in the
// full MetricsSnapshot but never in its deterministic section.
struct SchedulerWorkerStats {
  std::uint64_t morsels = 0;      // morsels executed
  std::uint64_t busy_micros = 0;  // wall time spent inside morsel bodies
};

// Aggregate totals, subtractable so benches can report per-measurement
// deltas of the cumulative process-wide counters.
struct SchedulerTotals {
  std::uint64_t loops = 0;  // pool-scheduled ParallelFor invocations
  std::uint64_t morsels = 0;
  // Always 0: slots are claimed from one shared cursor, so nothing is
  // stolen. Kept only because perfbench reports it as util.pool_steals.
  std::uint64_t steals = 0;
  std::uint64_t busy_micros = 0;

  SchedulerTotals Minus(const SchedulerTotals& earlier) const;
};

// Snapshot of the process pool's lifetime counters.
struct SchedulerStats {
  std::size_t workers = 0;           // pool threads spawned so far
  bool pinned = false;               // workers were pinned at spawn time
  std::uint64_t loops = 0;           // pool-scheduled ParallelFor calls
  std::uint64_t uptime_micros = 0;   // since the first worker spawned
  SchedulerWorkerStats external;     // caller-thread participation
  std::vector<SchedulerWorkerStats> per_worker;

  SchedulerTotals Totals() const;
  // Pool workers' busy time / (workers * uptime); 0 when unknown (no
  // workers yet). Callers are not among `workers`, so their participation
  // is left out and the gauge stays in [0, 1]. Only nested loops can
  // exceed 1: their morsels' busy time also counts inside the enclosing
  // morsel's.
  double Utilization() const;
};

// Snapshot / totals of the process pool. Cheap (relaxed atomic reads);
// safe to call while loops are running.
SchedulerStats GlobalSchedulerStats();
SchedulerTotals GlobalSchedulerTotals();

// --- Pinning ------------------------------------------------------------

// Requests that pool workers be pinned to cores (worker i -> core
// i % hardware_concurrency, Linux only; a no-op elsewhere). Applies to
// workers spawned after the call, so set it before the first parallel
// region — the CLI's --pin-threads and the benches'
// RULELINK_PIN_THREADS=1 both do. Already-spawned workers stay put.
void SetThreadPinning(bool enabled);
bool ThreadPinningEnabled();

// --- Morsel granularity -------------------------------------------------

// The items-per-morsel ParallelFor will use for a loop of n items at the
// given participant count. Resolution order: the process-wide test
// override (ScopedMorselItems) if set, else a non-zero per-call hint,
// else a heuristic targeting ~16 morsels per participant (capped so a
// huge n cannot explode the slot count and the per-slot accumulator
// memory of callers).
std::size_t MorselItemsFor(std::size_t participants, std::size_t n,
                           std::size_t items_per_morsel_hint);

// Forces every ParallelFor in scope to the given morsel size (tests use 1
// so that every item is its own slot, claimable by any participant).
// Restores the previous override on destruction. Not itself thread-safe:
// install before spawning the loops under test.
class ScopedMorselItems {
 public:
  explicit ScopedMorselItems(std::size_t items_per_morsel);
  ~ScopedMorselItems();
  ScopedMorselItems(const ScopedMorselItems&) = delete;
  ScopedMorselItems& operator=(const ScopedMorselItems&) = delete;

 private:
  std::size_t previous_;
};

// --- Loops --------------------------------------------------------------

// Runs body over [0, n) in ceil(n / m) slots, m = MorselItemsFor(...).
// Resolves `num_threads` (0 = hardware concurrency) and either runs the
// single slot body(0, 0, n) inline — the exact serial path, zero
// allocation — or posts one ticket per wanted helper to the process pool
// and claims slots itself alongside them, returning once every slot has
// run. Slot exceptions are rethrown lowest-slot-first. Safe to call from
// inside a loop body. `items_per_morsel` is the per-call granularity hint
// (0 = heuristic); callers with expensive per-slot accumulators pass a
// coarse value, cheap accumulators afford fine morsels. The same hint
// must be passed to ParallelSlots when sizing accumulators.
void ParallelFor(std::size_t num_threads, std::size_t n,
                 const ChunkBody& body, std::size_t items_per_morsel = 0);

// The number of slots ParallelFor(num_threads, n, body, items_per_morsel)
// will invoke the body with; callers size their per-slot accumulator
// vectors with this. 1 whenever the resolved thread count is serial.
std::size_t ParallelSlots(std::size_t num_threads, std::size_t n,
                          std::size_t items_per_morsel = 0);

}  // namespace rulelink::util

#endif  // RULELINK_UTIL_THREAD_POOL_H_
