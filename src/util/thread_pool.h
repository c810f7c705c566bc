// Morsel-driven parallel execution: a persistent work-stealing pool plus a
// deterministic ParallelFor used by the learner, classifier, linker,
// evaluator and workload-generator hot paths.
//
// Design (see DESIGN.md §5g; §5b documents the static-chunking ancestor):
//   * morsels: [0, n) is split into fixed-size contiguous morsels of
//     `items_per_morsel` items. Morsel s — the "slot" — always covers
//     [s*m, min(n, (s+1)*m)), a pure function of (n, m) and never of
//     scheduling order. Workers claim morsels dynamically (work stealing),
//     so skewed per-item costs self-balance instead of serializing on the
//     slowest static chunk.
//   * determinism contract (non-negotiable): the slot index passed to the
//     body is the morsel's position in index order, so callers shard into
//     per-slot accumulators — sized with ParallelSlots — and merge them in
//     slot order. Slot s always precedes slot s+1's item range, hence the
//     slot-order merge replays the exact serial order and every entry
//     point stays byte-identical to the serial path at any thread count,
//     any morsel size and any steal interleaving.
//   * persistent pool: the process keeps one lazily-initialized pool
//     (ThreadPool::Global()) that grows on demand and is reused by every
//     ParallelFor call — no thread spawn per invocation. The calling
//     thread participates as a worker, so `num_threads` means "execution
//     contexts", not "extra threads".
//   * num_threads <= 1 (after resolution) runs the body inline on the
//     calling thread as one slot covering [0, n) — no pool, no locks, no
//     allocation; the legacy serial code path, kept reachable so
//     differential tests can compare the sharded paths against it.
//   * nested ParallelFor from inside a pool task is safe: the nested
//     caller drives its own loop to completion (claiming morsels itself),
//     pool workers join only if free, and loop-completion waits follow
//     strict nesting, so no cycle of waits can form.
//   * exceptions thrown by morsel bodies are captured and rethrown on the
//     calling thread, lowest slot index first, so failure behaviour is
//     deterministic too. Every claimable morsel still runs.
//   * oversubscription is graceful, not clamped: an explicit request above
//     hardware_concurrency stands up that many contexts. Morsels are small
//     enough that extra contexts time-slice instead of stretching a static
//     partition, so the old silent clamp in ResolveNumThreads is gone.
#ifndef RULELINK_UTIL_THREAD_POOL_H_
#define RULELINK_UTIL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "util/perf_counters.h"

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

// Per-worker scheduler counters. Thread-variant by nature: they depend on
// timing and steal order, so they belong in the full MetricsSnapshot but
// never in its deterministic section.
struct SchedulerWorkerStats {
  std::uint64_t morsels = 0;         // morsels executed
  std::uint64_t steals = 0;          // successful steals
  std::uint64_t steal_failures = 0;  // full victim scans that found nothing
  std::uint64_t busy_micros = 0;     // wall time spent inside morsel bodies
  // Hardware counters for the worker's thread (cycles, instructions, LLC
  // misses), read live from its perf_event group; invalid when
  // perf_event_open is unavailable or the row is the external
  // (non-pool-thread) aggregate.
  HwCounterSample hw;
};

// Aggregate totals, subtractable so benches can report per-measurement
// deltas of the cumulative process-wide counters.
struct SchedulerTotals {
  std::uint64_t loops = 0;  // pool-scheduled ParallelFor invocations
  std::uint64_t morsels = 0;
  std::uint64_t steals = 0;
  std::uint64_t steal_failures = 0;
  std::uint64_t busy_micros = 0;
  HwCounterSample hw;  // summed over workers with live counter groups

  SchedulerTotals Minus(const SchedulerTotals& earlier) const;
};

// Snapshot of the global pool's lifetime counters.
struct SchedulerStats {
  std::size_t workers = 0;           // pool threads spawned so far
  bool pinned = false;               // workers were pinned at spawn time
  std::uint64_t loops = 0;           // pool-scheduled ParallelFor calls
  std::uint64_t uptime_micros = 0;   // since the first worker spawned
  SchedulerWorkerStats external;     // caller-thread participation
  std::vector<SchedulerWorkerStats> per_worker;

  SchedulerTotals Totals() const;
  // busy time / (workers * uptime); 0 when unknown (no workers yet).
  double Utilization() const;
};

// Snapshot / totals of ThreadPool::Global(). Cheap (relaxed atomic reads);
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
// to maximize stealing). Restores the previous override on destruction.
// Not itself thread-safe: install before spawning the loops under test.
class ScopedMorselItems {
 public:
  explicit ScopedMorselItems(std::size_t items_per_morsel);
  ~ScopedMorselItems();
  ScopedMorselItems(const ScopedMorselItems&) = delete;
  ScopedMorselItems& operator=(const ScopedMorselItems&) = delete;

 private:
  std::size_t previous_;
};

// --- The pool -----------------------------------------------------------

class ThreadPool {
 public:
  // Spawns max(1, num_workers) worker threads immediately (direct pools —
  // tests force worker counts and contention this way). `pin_threads`
  // overrides the global pinning flag for this pool.
  explicit ThreadPool(std::size_t num_workers);
  ThreadPool(std::size_t num_workers, bool pin_threads);

  // Drains the queue (pending tasks still run), then joins the workers.
  // Exceptions captured from tasks but never collected via Wait() are
  // dropped.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // The persistent process pool behind the free ParallelFor. Starts with
  // zero workers and grows lazily to the largest parallelism ever
  // requested (minus the participating caller), up to
  // kMaxParallelWorkers - 1.
  static ThreadPool& Global();

  std::size_t num_workers() const;

  // Spawns workers until at least `count` exist (capped at the pool's
  // capacity). Idempotent and thread-safe.
  void EnsureWorkers(std::size_t count);

  // Enqueues a task. Safe to call from inside a running task (nested
  // submission): the nested task is queued like any other and Wait()
  // keeps waiting until it has run too.
  void Submit(std::function<void()> task);

  // Blocks until the queue is empty and no task is running, then rethrows
  // the first exception captured from a submitted task, if any.
  void Wait();

  // Morsel-driven loop over [0, n): splits it into ceil(n / m) slots with
  // m = MorselItemsFor(...), distributes the slots over per-participant
  // deques (the caller is participant 0 and executes morsels too), lets
  // idle participants steal half a victim's remaining range, and blocks
  // until every slot has run. Slot exceptions are rethrown
  // lowest-slot-first. Safe to call from inside a pool task.
  // `parallelism` caps the participant count (0 = workers + caller).
  void ParallelFor(std::size_t n, const ChunkBody& body,
                   std::size_t items_per_morsel = 0,
                   std::size_t parallelism = 0);

  // Lifetime scheduler counters for this pool (the Global() pool's are
  // exposed via GlobalSchedulerStats()).
  SchedulerStats Stats() const;

  // One worker's live counter row. Written by that worker only (relaxed
  // atomics) so Stats() can read concurrently; public only so the
  // implementation's thread-local attribution pointer can name it.
  struct AtomicWorkerStatsRow {
    std::atomic<std::uint64_t> morsels{0};
    std::atomic<std::uint64_t> steals{0};
    std::atomic<std::uint64_t> steal_failures{0};
    std::atomic<std::uint64_t> busy_micros{0};
  };

 private:
  struct LoopState;
  struct GlobalTag {};
  explicit ThreadPool(GlobalTag);  // zero workers, dynamic pinning flag

  void WorkerLoop(std::size_t worker_index);
  void SpawnWorkerLocked();
  // Claims and executes morsels of `state` using deque `home` until no
  // claimable work remains. Counters go straight into `row` (relaxed),
  // each morsel's before its `executed` increment, so the release there
  // publishes them to the caller observing loop completion — a snapshot
  // taken right after ParallelFor returns sees every executed morsel.
  static void Participate(const std::shared_ptr<LoopState>& state,
                          std::size_t home, AtomicWorkerStatsRow* row);

  const std::size_t capacity_;  // stats slots; workers_ never exceeds it
  const bool pin_;
  const bool dynamic_pin_;  // Global(): honour SetThreadPinning at spawn
  mutable std::mutex mutex_;
  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::condition_variable task_ready_;  // signalled when work is queued
  std::condition_variable idle_;        // signalled when the pool drains
  std::size_t active_ = 0;              // tasks currently running
  bool stopping_ = false;
  bool pinned_any_ = false;             // some worker got pinned at spawn
  std::exception_ptr first_exception_;  // from Submit()ed tasks

  // Observability. Fixed-capacity so worker rows never move.
  // external_stats_ aggregates participation by non-pool caller threads.
  // hw_counters_[i] is published by worker i at startup (null when
  // perf_event_open is unavailable) and freed by the destructor after the
  // joins, so Stats() can read a live worker's group at any time.
  std::unique_ptr<AtomicWorkerStatsRow[]> worker_stats_;
  std::unique_ptr<std::atomic<ThreadPerfCounters*>[]> hw_counters_;
  AtomicWorkerStatsRow external_stats_;
  std::atomic<std::uint64_t> loops_{0};
  std::atomic<std::int64_t> first_spawn_micros_{-1};  // steady-clock stamp
};

// One-shot helper for code with a num_threads option: resolves the option
// (0 = hardware concurrency), and either runs the single slot body(0, 0, n)
// inline — the exact serial path, zero allocation — or schedules morsels
// on the persistent Global() pool with the caller participating.
// `items_per_morsel` is the per-call granularity hint (0 = heuristic);
// callers with expensive per-slot accumulators pass a coarse value, cheap
// accumulators afford fine morsels. The same hint must be passed to
// ParallelSlots when sizing accumulators.
void ParallelFor(std::size_t num_threads, std::size_t n,
                 const ChunkBody& body, std::size_t items_per_morsel = 0);

// The number of slots ParallelFor(num_threads, n, body, items_per_morsel)
// will invoke the body with; callers size their per-slot accumulator
// vectors with this. 1 whenever the resolved thread count is serial.
std::size_t ParallelSlots(std::size_t num_threads, std::size_t n,
                          std::size_t items_per_morsel = 0);

}  // namespace rulelink::util

#endif  // RULELINK_UTIL_THREAD_POOL_H_
