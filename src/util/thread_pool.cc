#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace rulelink::util {
namespace {

std::size_t HardwareConcurrency() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

std::int64_t SteadyMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Process-wide morsel-size override: 0 = none, set only by
// ScopedMorselItems.
std::atomic<std::size_t>& MorselOverride() {
  static std::atomic<std::size_t> value{0};
  return value;
}

std::atomic<bool>& PinningFlag() {
  static std::atomic<bool> value{false};
  return value;
}

}  // namespace

std::size_t ResolveNumThreads(std::size_t requested) {
  // 0 = hardware. Explicit requests pass through: small morsels keep
  // oversubscribed contexts productive (they time-slice gracefully), and
  // "--threads 8" means 8 contexts on any host.
  const std::size_t resolved = requested == 0 ? HardwareConcurrency()
                                              : requested;
  return std::min(resolved, kMaxParallelWorkers);
}

SchedulerTotals SchedulerTotals::Minus(const SchedulerTotals& earlier) const {
  SchedulerTotals delta;
  delta.loops = loops - earlier.loops;
  delta.morsels = morsels - earlier.morsels;
  delta.busy_micros = busy_micros - earlier.busy_micros;
  return delta;
}

SchedulerTotals SchedulerStats::Totals() const {
  SchedulerTotals totals;
  totals.loops = loops;
  totals.morsels = external.morsels;
  totals.busy_micros = external.busy_micros;
  for (const SchedulerWorkerStats& w : per_worker) {
    totals.morsels += w.morsels;
    totals.busy_micros += w.busy_micros;
  }
  return totals;
}

double SchedulerStats::Utilization() const {
  if (workers == 0 || uptime_micros == 0) return 0.0;
  std::uint64_t busy = 0;
  for (const SchedulerWorkerStats& w : per_worker) busy += w.busy_micros;
  return static_cast<double>(busy) /
         (static_cast<double>(workers) * static_cast<double>(uptime_micros));
}

void SetThreadPinning(bool enabled) {
  PinningFlag().store(enabled, std::memory_order_relaxed);
}

bool ThreadPinningEnabled() {
  return PinningFlag().load(std::memory_order_relaxed);
}

std::size_t MorselItemsFor(std::size_t participants, std::size_t n,
                           std::size_t items_per_morsel_hint) {
  if (n == 0) return 1;
  const std::size_t forced =
      MorselOverride().load(std::memory_order_relaxed);
  if (forced != 0) return forced;
  if (items_per_morsel_hint != 0) return items_per_morsel_hint;
  if (participants <= 1) return n;
  // ~16 morsels per participant keeps cursor traffic low while leaving
  // enough units for the tail to balance; the slot cap bounds the
  // per-slot accumulator memory of callers on huge loops.
  constexpr std::size_t kMorselsPerParticipant = 16;
  constexpr std::size_t kMaxHeuristicSlots = 4096;
  const std::size_t target = participants * kMorselsPerParticipant;
  std::size_t items = (n + target - 1) / target;
  const std::size_t floor_items =
      (n + kMaxHeuristicSlots - 1) / kMaxHeuristicSlots;
  items = std::max(items, floor_items);
  return std::max<std::size_t>(1, items);
}

ScopedMorselItems::ScopedMorselItems(std::size_t items_per_morsel)
    : previous_(MorselOverride().exchange(items_per_morsel,
                                          std::memory_order_relaxed)) {}

ScopedMorselItems::~ScopedMorselItems() {
  MorselOverride().store(previous_, std::memory_order_relaxed);
}

// --- Pool ---------------------------------------------------------------

namespace {

// One participant's live counters. Written by that participant only
// (relaxed), so a stats snapshot can read them concurrently.
struct StatsRow {
  std::atomic<std::uint64_t> morsels{0};
  std::atomic<std::uint64_t> busy_micros{0};

  SchedulerWorkerStats Read() const {
    return {morsels.load(std::memory_order_relaxed),
            busy_micros.load(std::memory_order_relaxed)};
  }
};

// The executing pool worker's row; null on threads that are not pool
// workers, whose participation lands in the pool's `external` row.
thread_local StatsRow* tls_worker_row = nullptr;

// One in-flight ParallelFor. Held by shared_ptr so a helper ticket that is
// only popped after the loop completed still finds a valid, exhausted
// cursor and returns without touching the caller's stack.
struct Loop {
  const ChunkBody* body = nullptr;
  std::size_t n = 0;
  std::size_t morsel = 1;
  std::size_t num_slots = 0;

  std::atomic<std::size_t> cursor{0};    // next unclaimed slot
  std::atomic<std::size_t> executed{0};  // slots whose body has returned
  std::mutex done_mu;
  bool done = false;  // guarded by done_mu
  std::condition_variable done_cv;
  std::mutex err_mu;
  std::vector<std::pair<std::size_t, std::exception_ptr>> errors;
};

// Claims slots of `loop` from its cursor and runs them until none is left.
// Each morsel's counters go into `row` before its `executed` increment,
// whose release publishes them to the caller observing loop completion —
// a snapshot taken right after ParallelFor returns sees every morsel.
void Participate(Loop& loop, StatsRow& row) {
  for (;;) {
    const std::size_t slot =
        loop.cursor.fetch_add(1, std::memory_order_relaxed);
    if (slot >= loop.num_slots) return;
    const std::size_t begin = slot * loop.morsel;
    const std::size_t end = std::min(loop.n, begin + loop.morsel);
    const std::int64_t t0 = SteadyMicros();
    try {
      (*loop.body)(slot, begin, end);
    } catch (...) {
      std::lock_guard<std::mutex> lock(loop.err_mu);
      loop.errors.emplace_back(slot, std::current_exception());
    }
    row.busy_micros.fetch_add(static_cast<std::uint64_t>(SteadyMicros() - t0),
                              std::memory_order_relaxed);
    row.morsels.fetch_add(1, std::memory_order_relaxed);
    if (loop.executed.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        loop.num_slots) {
      std::lock_guard<std::mutex> lock(loop.done_mu);
      loop.done = true;
      loop.done_cv.notify_all();
    }
  }
}

// The process pool: worker threads that pop loop tickets and participate
// in those loops. Starts with no workers and grows to the largest
// parallelism ever requested (minus the participating caller).
class Pool {
 public:
  // ResolveNumThreads caps a loop at kMaxParallelWorkers contexts, so the
  // pool never needs more workers than that minus the caller.
  Pool() : rows_(new StatsRow[kMaxParallelWorkers - 1]) {}

  // Stale tickets left in the queue belong to completed loops; workers
  // exit without popping them.
  ~Pool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stopping_ = true;
    }
    ready_.notify_all();
    for (std::thread& worker : workers_) worker.join();
  }

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  // Runs the slots of a loop over [0, n) with `participants` contexts:
  // posts one ticket per wanted helper, then claims slots alongside them.
  void Run(std::size_t n, const ChunkBody& body, std::size_t morsel,
           std::size_t participants) {
    auto loop = std::make_shared<Loop>();
    loop->body = &body;
    loop->n = n;
    loop->morsel = morsel;
    loop->num_slots = (n + morsel - 1) / morsel;
    loops_.fetch_add(1, std::memory_order_relaxed);
    const std::size_t helpers = std::min(participants, loop->num_slots) - 1;
    {
      std::lock_guard<std::mutex> lock(mu_);
      while (workers_.size() < helpers) SpawnLocked();
      for (std::size_t h = 0; h < helpers; ++h) tickets_.push_back(loop);
    }
    for (std::size_t h = 0; h < helpers; ++h) ready_.notify_one();

    Participate(*loop,
                tls_worker_row != nullptr ? *tls_worker_row : external_);
    // Slots another participant claimed may still be running.
    {
      std::unique_lock<std::mutex> lock(loop->done_mu);
      loop->done_cv.wait(lock, [&] { return loop->done; });
    }

    // The winning exception is moved out of the shared loop state, so this
    // thread drops its last reference. A helper may release the state
    // after the caller's handler has run, and exception reference counts
    // live in uninstrumented libstdc++, so ThreadSanitizer would report
    // that late free as a race on the exception object.
    std::exception_ptr error;
    {
      std::lock_guard<std::mutex> lock(loop->err_mu);
      auto first = loop->errors.begin();
      for (auto it = loop->errors.begin(); it != loop->errors.end(); ++it) {
        if (it->first < first->first) first = it;
      }
      if (first != loop->errors.end()) error = std::move(first->second);
    }
    if (error != nullptr) std::rethrow_exception(error);
  }

  SchedulerStats Stats() const {
    SchedulerStats stats;
    {
      std::lock_guard<std::mutex> lock(mu_);
      stats.workers = workers_.size();
      stats.pinned = pinned_;
    }
    stats.loops = loops_.load(std::memory_order_relaxed);
    stats.external = external_.Read();
    stats.per_worker.reserve(stats.workers);
    for (std::size_t i = 0; i < stats.workers; ++i) {
      stats.per_worker.push_back(rows_[i].Read());
    }
    // Read after the rows, so no busy time counted above postdates it.
    const std::int64_t spawn =
        first_spawn_micros_.load(std::memory_order_relaxed);
    if (spawn >= 0) {
      stats.uptime_micros = static_cast<std::uint64_t>(SteadyMicros() - spawn);
    }
    return stats;
  }

 private:
  void SpawnLocked() {
    const std::size_t index = workers_.size();
    if (index == 0) {
      first_spawn_micros_.store(SteadyMicros(), std::memory_order_relaxed);
    }
    workers_.emplace_back([this, index] { WorkerLoop(index); });
    if (!ThreadPinningEnabled()) return;
#if defined(__linux__)
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(static_cast<int>(index % HardwareConcurrency()), &set);
    if (pthread_setaffinity_np(workers_.back().native_handle(), sizeof(set),
                               &set) == 0) {
      pinned_ = true;
    }
#endif
  }

  void WorkerLoop(std::size_t index) {
    tls_worker_row = &rows_[index];
    for (;;) {
      std::shared_ptr<Loop> loop;
      {
        std::unique_lock<std::mutex> lock(mu_);
        ready_.wait(lock, [this] { return stopping_ || !tickets_.empty(); });
        if (stopping_) return;
        loop = std::move(tickets_.front());
        tickets_.pop_front();
      }
      Participate(*loop, rows_[index]);
    }
  }

  // Fixed capacity, so a worker's row never moves.
  const std::unique_ptr<StatsRow[]> rows_;
  StatsRow external_;  // participation by non-pool caller threads
  std::atomic<std::uint64_t> loops_{0};
  std::atomic<std::int64_t> first_spawn_micros_{-1};  // steady-clock stamp

  mutable std::mutex mu_;
  std::condition_variable ready_;  // signalled when a ticket is posted
  std::deque<std::shared_ptr<Loop>> tickets_;  // guarded by mu_
  bool stopping_ = false;                      // guarded by mu_
  bool pinned_ = false;  // some worker got pinned at spawn; guarded by mu_
  std::vector<std::thread> workers_;  // guarded by mu_; declared last
};

Pool& ProcessPool() {
  static Pool pool;
  return pool;
}

}  // namespace

SchedulerStats GlobalSchedulerStats() { return ProcessPool().Stats(); }

SchedulerTotals GlobalSchedulerTotals() {
  return GlobalSchedulerStats().Totals();
}

std::size_t ParallelSlots(std::size_t num_threads, std::size_t n,
                          std::size_t items_per_morsel) {
  if (n == 0) return 0;
  const std::size_t resolved = ResolveNumThreads(num_threads);
  if (resolved <= 1) return 1;
  const std::size_t morsel = MorselItemsFor(resolved, n, items_per_morsel);
  return (n + morsel - 1) / morsel;
}

void ParallelFor(std::size_t num_threads, std::size_t n,
                 const ChunkBody& body, std::size_t items_per_morsel) {
  if (n == 0) return;
  const std::size_t resolved = ResolveNumThreads(num_threads);
  const std::size_t morsel = MorselItemsFor(resolved, n, items_per_morsel);
  if (resolved <= 1 || morsel >= n) {
    // The serial path: inline on the caller with no pool, no locks and no
    // allocation — the reference every differential test compares against.
    body(0, 0, n);
    return;
  }
  ProcessPool().Run(n, body, morsel, resolved);
}

}  // namespace rulelink::util
