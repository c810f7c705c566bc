#include "util/thread_pool.h"

#include <algorithm>
#include <chrono>
#include <utility>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace rulelink::util {
namespace {

constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

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
  // 0 = hardware. Explicit requests pass through: morsel scheduling keeps
  // oversubscribed contexts productive (small self-balancing work units
  // time-slice gracefully), unlike the static partition this replaced,
  // which clamped here and silently changed what "--threads 8" meant.
  const std::size_t resolved = requested == 0 ? HardwareConcurrency()
                                              : requested;
  return std::min(resolved, kMaxParallelWorkers);
}

SchedulerTotals SchedulerTotals::Minus(const SchedulerTotals& earlier) const {
  SchedulerTotals delta;
  delta.loops = loops - earlier.loops;
  delta.morsels = morsels - earlier.morsels;
  delta.steals = steals - earlier.steals;
  delta.steal_failures = steal_failures - earlier.steal_failures;
  delta.busy_micros = busy_micros - earlier.busy_micros;
  delta.hw = hw.Minus(earlier.hw);
  return delta;
}

SchedulerTotals SchedulerStats::Totals() const {
  SchedulerTotals totals;
  totals.loops = loops;
  const auto add = [&totals](const SchedulerWorkerStats& w) {
    totals.morsels += w.morsels;
    totals.steals += w.steals;
    totals.steal_failures += w.steal_failures;
    totals.busy_micros += w.busy_micros;
    totals.hw.Add(w.hw);
  };
  add(external);
  for (const SchedulerWorkerStats& w : per_worker) add(w);
  return totals;
}

double SchedulerStats::Utilization() const {
  if (workers == 0 || uptime_micros == 0) return 0.0;
  std::uint64_t busy = external.busy_micros;
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
  // ~16 morsels per participant keeps the steal frequency low while
  // leaving enough units for the tail to balance; the slot cap bounds the
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
// Points at the executing pool worker's stats row so loop participation is
// attributed per worker; null on threads that are not pool workers (their
// participation lands in the pool's `external` row).
thread_local ThreadPool::AtomicWorkerStatsRow* tls_worker_stats = nullptr;
}  // namespace

// The per-participant state of one in-flight ParallelFor. Held by
// shared_ptr so a helper task that only gets scheduled after the loop
// completed still finds valid (empty) deques and returns without touching
// the caller's stack.
struct ThreadPool::LoopState {
  explicit LoopState(std::size_t participants) : deques(participants) {}

  const ChunkBody* body = nullptr;
  std::size_t n = 0;
  std::size_t morsel = 1;
  std::size_t num_slots = 0;

  // Range deque: [next, end) are the unclaimed slots this participant
  // owns. The owner pops from the front (locality: its range is a
  // contiguous run of items); thieves split off the back half. One tiny
  // critical section per morsel or steal — never two deque locks at once.
  struct alignas(64) Deque {
    std::mutex mu;
    std::size_t next = 0;
    std::size_t end = 0;
  };
  std::vector<Deque> deques;

  std::atomic<std::size_t> next_helper{1};  // deque ids for helper tasks
  std::atomic<std::size_t> executed{0};
  std::mutex done_mu;
  std::condition_variable done_cv;
  std::mutex err_mu;
  std::vector<std::pair<std::size_t, std::exception_ptr>> errors;
};

ThreadPool::ThreadPool(std::size_t num_workers)
    : ThreadPool(num_workers, ThreadPinningEnabled()) {}

ThreadPool::ThreadPool(std::size_t num_workers, bool pin_threads)
    : capacity_(std::max<std::size_t>(1, num_workers)),
      pin_(pin_threads),
      dynamic_pin_(false),
      worker_stats_(new AtomicWorkerStatsRow[capacity_]),
      hw_counters_(new std::atomic<ThreadPerfCounters*>[capacity_]()) {
  std::lock_guard<std::mutex> lock(mutex_);
  while (workers_.size() < capacity_) SpawnWorkerLocked();
}

ThreadPool::ThreadPool(GlobalTag)
    : capacity_(kMaxParallelWorkers - 1),  // plus the participating caller
      pin_(false),
      dynamic_pin_(true),  // honour SetThreadPinning at spawn time
      worker_stats_(new AtomicWorkerStatsRow[capacity_]),
      hw_counters_(new std::atomic<ThreadPerfCounters*>[capacity_]()) {}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  task_ready_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  for (std::size_t i = 0; i < capacity_; ++i) {
    delete hw_counters_[i].load(std::memory_order_acquire);
  }
}

ThreadPool& ThreadPool::Global() {
  static ThreadPool pool{GlobalTag{}};
  return pool;
}

std::size_t ThreadPool::num_workers() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return workers_.size();
}

void ThreadPool::EnsureWorkers(std::size_t count) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::size_t want = std::min(count, capacity_);
  while (workers_.size() < want) SpawnWorkerLocked();
}

void ThreadPool::SpawnWorkerLocked() {
  const std::size_t index = workers_.size();
  if (first_spawn_micros_.load(std::memory_order_relaxed) < 0) {
    first_spawn_micros_.store(SteadyMicros(), std::memory_order_relaxed);
  }
  workers_.emplace_back([this, index] { WorkerLoop(index); });
  const bool pin =
      pin_ || (dynamic_pin_ && ThreadPinningEnabled());
  if (pin) {
#if defined(__linux__)
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(static_cast<int>(index % HardwareConcurrency()), &set);
    if (pthread_setaffinity_np(workers_.back().native_handle(), sizeof(set),
                               &set) == 0) {
      pinned_any_ = true;
    }
#endif
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
  }
  task_ready_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
  if (first_exception_ != nullptr) {
    std::exception_ptr e = first_exception_;
    first_exception_ = nullptr;
    std::rethrow_exception(e);
  }
}

void ThreadPool::Participate(const std::shared_ptr<LoopState>& state,
                             std::size_t home,
                             AtomicWorkerStatsRow* row) {
  LoopState& loop = *state;
  const std::size_t participants = loop.deques.size();
  for (;;) {
    std::size_t slot = kNoSlot;
    {
      LoopState::Deque& mine = loop.deques[home];
      std::lock_guard<std::mutex> lock(mine.mu);
      if (mine.next < mine.end) slot = mine.next++;
    }
    if (slot == kNoSlot) {
      // Own range drained: steal the back half of the fullest-looking
      // victim we encounter (first non-empty in round-robin order). The
      // victim keeps its front, preserving its locality run.
      bool stole = false;
      for (std::size_t k = 1; k < participants && !stole; ++k) {
        const std::size_t v = (home + k) % participants;
        std::size_t lo = 0;
        std::size_t hi = 0;
        {
          LoopState::Deque& victim = loop.deques[v];
          std::lock_guard<std::mutex> lock(victim.mu);
          const std::size_t avail = victim.end - victim.next;
          if (avail == 0) continue;
          const std::size_t take = (avail + 1) / 2;
          hi = victim.end;
          lo = hi - take;
          victim.end = lo;
        }
        LoopState::Deque& mine = loop.deques[home];
        std::lock_guard<std::mutex> lock(mine.mu);
        mine.next = lo;
        mine.end = hi;
        stole = true;
        row->steals.fetch_add(1, std::memory_order_relaxed);
      }
      if (stole) continue;
      // Nothing claimable anywhere. Ranges a concurrent thief holds "in
      // limbo" are its responsibility; this participant is done.
      row->steal_failures.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    const std::size_t begin = slot * loop.morsel;
    const std::size_t end = std::min(loop.n, begin + loop.morsel);
    const std::int64_t t0 = SteadyMicros();
    try {
      (*loop.body)(slot, begin, end);
    } catch (...) {
      std::lock_guard<std::mutex> lock(loop.err_mu);
      loop.errors.emplace_back(slot, std::current_exception());
    }
    // Published before the executed increment below: its release makes
    // this morsel's counters visible to whoever observes loop completion,
    // so a stats snapshot right after ParallelFor is exact.
    row->busy_micros.fetch_add(
        static_cast<std::uint64_t>(SteadyMicros() - t0),
        std::memory_order_relaxed);
    row->morsels.fetch_add(1, std::memory_order_relaxed);
    if (loop.executed.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        loop.num_slots) {
      {
        std::lock_guard<std::mutex> lock(loop.done_mu);
      }
      loop.done_cv.notify_all();
    }
  }
}

void ThreadPool::ParallelFor(std::size_t n, const ChunkBody& body,
                             std::size_t items_per_morsel,
                             std::size_t parallelism) {
  if (n == 0) return;
  std::size_t participants =
      parallelism != 0 ? parallelism : num_workers() + 1;
  participants = std::min(participants, capacity_ + 1);
  const std::size_t morsel =
      MorselItemsFor(std::max<std::size_t>(1, participants), n,
                     items_per_morsel);
  const std::size_t num_slots = (n + morsel - 1) / morsel;
  if (participants <= 1 || num_slots <= 1) {
    // Serial resolution: inline on the caller, zero scheduler state.
    body(0, 0, n);
    return;
  }
  participants = std::min(participants, num_slots);

  auto state = std::make_shared<LoopState>(participants);
  state->body = &body;
  state->n = n;
  state->morsel = morsel;
  state->num_slots = num_slots;
  for (std::size_t d = 0; d < participants; ++d) {
    state->deques[d].next = d * num_slots / participants;
    state->deques[d].end = (d + 1) * num_slots / participants;
  }
  loops_.fetch_add(1, std::memory_order_relaxed);
  EnsureWorkers(participants - 1);
  for (std::size_t h = 1; h < participants; ++h) {
    Submit([state] {
      const std::size_t d =
          state->next_helper.fetch_add(1, std::memory_order_relaxed);
      if (d >= state->deques.size()) return;
      // Helper tasks only ever run on this pool's workers, whose rows the
      // worker loop installed.
      Participate(state, d, tls_worker_stats);
    });
  }

  // The caller is participant 0 — it owns the front of the range and
  // executes morsels like any worker, so `num_threads` contexts means
  // `num_threads - 1` pool threads.
  Participate(state, 0,
              tls_worker_stats != nullptr ? tls_worker_stats
                                          : &external_stats_);

  // Morsels another participant claimed may still be running; their
  // executed counts are the completion signal.
  if (state->executed.load(std::memory_order_acquire) != num_slots) {
    std::unique_lock<std::mutex> lock(state->done_mu);
    state->done_cv.wait(lock, [&] {
      return state->executed.load(std::memory_order_acquire) >= num_slots;
    });
  }

  // The winning exception is moved out of the shared loop state, so this
  // thread drops its last reference. A helper task may release the state
  // after the caller's handler has run, and exception reference counts
  // live in uninstrumented libstdc++, so ThreadSanitizer would report that
  // late free as a race on the exception object.
  std::exception_ptr error;
  {
    std::lock_guard<std::mutex> err_lock(state->err_mu);
    auto first = state->errors.begin();
    for (auto it = state->errors.begin(); it != state->errors.end(); ++it) {
      if (it->first < first->first) first = it;
    }
    if (first != state->errors.end()) error = std::move(first->second);
  }
  if (error != nullptr) std::rethrow_exception(error);
}

SchedulerStats ThreadPool::Stats() const {
  SchedulerStats stats;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stats.workers = workers_.size();
    stats.pinned = pinned_any_;
  }
  stats.loops = loops_.load(std::memory_order_relaxed);
  const std::int64_t spawn =
      first_spawn_micros_.load(std::memory_order_relaxed);
  if (spawn >= 0) {
    stats.uptime_micros =
        static_cast<std::uint64_t>(SteadyMicros() - spawn);
  }
  const auto read = [](const AtomicWorkerStatsRow& row) {
    SchedulerWorkerStats w;
    w.morsels = row.morsels.load(std::memory_order_relaxed);
    w.steals = row.steals.load(std::memory_order_relaxed);
    w.steal_failures = row.steal_failures.load(std::memory_order_relaxed);
    w.busy_micros = row.busy_micros.load(std::memory_order_relaxed);
    return w;
  };
  stats.external = read(external_stats_);
  stats.per_worker.reserve(stats.workers);
  for (std::size_t i = 0; i < stats.workers; ++i) {
    SchedulerWorkerStats w = read(worker_stats_[i]);
    // perf_event fds can be read from any thread; the group is bound to
    // the worker, so this samples its live counters without stopping it.
    const ThreadPerfCounters* counters =
        hw_counters_[i].load(std::memory_order_acquire);
    if (counters != nullptr) w.hw = counters->Read();
    stats.per_worker.push_back(w);
  }
  return stats;
}

void ThreadPool::WorkerLoop(std::size_t worker_index) {
  tls_worker_stats = &worker_stats_[worker_index];
  // Open this worker's hardware counter group on its own thread (the
  // events are thread-bound). Null when unavailable (gated by
  // perf_event_paranoid / seccomp); freed by the pool destructor after
  // the join so Stats() never races a teardown.
  hw_counters_[worker_index].store(
      ThreadPerfCounters::OpenForCurrentThread().release(),
      std::memory_order_release);
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      task_ready_.wait(lock,
                       [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping and fully drained
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    try {
      task();
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (first_exception_ == nullptr) {
        first_exception_ = std::current_exception();
      }
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --active_;
      if (queue_.empty() && active_ == 0) idle_.notify_all();
    }
  }
}

SchedulerStats GlobalSchedulerStats() { return ThreadPool::Global().Stats(); }

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
  if (resolved <= 1) {
    // The serial path: inline on the caller with no pool, no locks and no
    // allocation — the reference every differential test compares against.
    body(0, 0, n);
    return;
  }
  ThreadPool::Global().ParallelFor(n, body, items_per_morsel, resolved);
}

}  // namespace rulelink::util
