#include "util/thread_pool.h"

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace rulelink::util {
namespace {

std::size_t Hardware() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

TEST(ResolveNumThreadsTest, ZeroMeansHardwareAtLeastOne) {
  EXPECT_EQ(ResolveNumThreads(0), std::min(Hardware(), kMaxParallelWorkers));
  EXPECT_GE(ResolveNumThreads(0), 1u);
}

TEST(ResolveNumThreadsTest, ExplicitRequestsPassThroughUnclamped) {
  // The old scheduler clamped to hardware_concurrency here; morsel
  // scheduling handles oversubscription gracefully, so "--threads 8"
  // means 8 contexts even on a 1-core host.
  EXPECT_EQ(ResolveNumThreads(1), 1u);
  EXPECT_EQ(ResolveNumThreads(7), 7u);
  EXPECT_EQ(ResolveNumThreads(Hardware() + 5), Hardware() + 5);
  EXPECT_EQ(ResolveNumThreads(kMaxParallelWorkers + 100),
            kMaxParallelWorkers);
}

TEST(MorselItemsTest, HintAndOverridePrecedence) {
  // Start from no override: this test asserts the non-overridden
  // precedence order.
  ScopedMorselItems no_override(0);
  // Per-call hint wins over the heuristic.
  EXPECT_EQ(MorselItemsFor(4, 100000, 512), 512u);
  // Heuristic: ~16 morsels per participant.
  const std::size_t heuristic = MorselItemsFor(4, 6400, 0);
  EXPECT_EQ(heuristic, 100u);  // 6400 / (4 * 16)
  // Serial participant count: one morsel covering everything.
  EXPECT_EQ(MorselItemsFor(1, 6400, 0), 6400u);
  // The scoped override beats both the hint and the heuristic.
  {
    ScopedMorselItems force(1);
    EXPECT_EQ(MorselItemsFor(4, 100000, 512), 1u);
    EXPECT_EQ(MorselItemsFor(4, 6400, 0), 1u);
    {
      ScopedMorselItems nested(7);
      EXPECT_EQ(MorselItemsFor(4, 100, 0), 7u);
    }
    EXPECT_EQ(MorselItemsFor(4, 100, 0), 1u);  // restored
  }
  EXPECT_EQ(MorselItemsFor(4, 100000, 512), 512u);  // fully restored
}

TEST(MorselItemsTest, HeuristicCapsTheSlotCount) {
  // A huge n must not explode the slot count (callers allocate one
  // accumulator per slot): the heuristic floors items-per-morsel so that
  // ceil(n / items) stays bounded.
  ScopedMorselItems no_override(0);
  const std::size_t n = 100'000'000;
  const std::size_t items = MorselItemsFor(8, n, 0);
  EXPECT_LE((n + items - 1) / items, 4096u);
}

TEST(ParallelSlotsTest, MatchesTheLoopPartition) {
  ScopedMorselItems no_override(0);
  EXPECT_EQ(ParallelSlots(4, 0), 0u);
  EXPECT_EQ(ParallelSlots(1, 100), 1u);  // serial: one inline slot
  // With a hint of 10 items per morsel, 95 items -> 10 slots.
  EXPECT_EQ(ParallelSlots(4, 95, 10), 10u);
  {
    ScopedMorselItems force(1);
    EXPECT_EQ(ParallelSlots(4, 95, 10), 95u);  // forced 1-item morsels
    EXPECT_EQ(ParallelSlots(1, 95, 10), 1u);   // serial stays serial
  }
}

TEST(UtilizationTest, CountsPoolWorkersOnly) {
  // Callers are not among `workers`, so their participation stays out of
  // the numerator: one worker and one caller, each busy for the whole
  // uptime, make a fully utilized pool, not a 2x one.
  SchedulerStats stats;
  stats.workers = 1;
  stats.uptime_micros = 1000;
  stats.external.busy_micros = 1000;
  stats.per_worker.emplace_back();
  stats.per_worker[0].busy_micros = 1000;
  EXPECT_DOUBLE_EQ(stats.Utilization(), 1.0);

  // The same through the process pool: 2 contexts, each slot busy 50 ms.
  ParallelFor(2, 2, [](std::size_t, std::size_t, std::size_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  });
  const double utilization = GlobalSchedulerStats().Utilization();
  EXPECT_GE(utilization, 0.0);
  EXPECT_LE(utilization, 1.0);
}

TEST(ParallelForTest, EmptyRangeNeverCallsBody) {
  std::atomic<int> calls{0};
  ParallelFor(4, 0, [&](std::size_t, std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelForTest, SingleThreadRunsInlineOnCaller) {
  const std::thread::id caller = std::this_thread::get_id();
  std::size_t calls = 0;
  ParallelFor(1, 10, [&](std::size_t slot, std::size_t begin,
                         std::size_t end) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    EXPECT_EQ(slot, 0u);
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 10u);
    ++calls;
  });
  EXPECT_EQ(calls, 1u);
}

TEST(ParallelForTest, SlotsAreAPureFunctionOfNAndMorselSize) {
  // The determinism contract: slot s covers [s*m, min(n, (s+1)*m))
  // whatever the thread count and claim interleaving, and every slot runs
  // exactly once.
  for (std::size_t morsel : {1u, 3u, 7u, 32u}) {
    ScopedMorselItems force(morsel);
    for (std::size_t threads : {2u, 3u, 5u, 8u}) {
      for (std::size_t n : {1u, 2u, 7u, 16u, 100u}) {
        std::mutex mutex;
        std::vector<int> slot_hits((n + morsel - 1) / morsel, 0);
        ParallelFor(threads, n,
                    [&](std::size_t slot, std::size_t begin,
                        std::size_t end) {
                      std::lock_guard<std::mutex> lock(mutex);
                      ASSERT_LT(slot, slot_hits.size());
                      EXPECT_EQ(begin, slot * morsel);
                      EXPECT_EQ(end, std::min(n, (slot + 1) * morsel));
                      ++slot_hits[slot];
                    });
        for (std::size_t s = 0; s < slot_hits.size(); ++s) {
          EXPECT_EQ(slot_hits[s], 1)
              << "threads=" << threads << " n=" << n << " morsel=" << morsel
              << " slot=" << s;
        }
        EXPECT_EQ(ParallelSlots(threads, n), slot_hits.size());
      }
    }
  }
}

TEST(ParallelForTest, OversubscriptionStillCoversTheRangeExactly) {
  // 64 contexts on (probably) far fewer cores: morsels time-slice, every
  // item still runs exactly once.
  ScopedMorselItems force(1);
  std::vector<std::atomic<int>> hits(500);
  ParallelFor(64, hits.size(),
              [&](std::size_t, std::size_t begin, std::size_t end) {
                for (std::size_t i = begin; i < end; ++i) ++hits[i];
              });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForTest, RangeSmallerThanWorkerCount) {
  ScopedMorselItems force(1);
  std::atomic<int> calls{0};
  std::mutex mutex;
  std::set<std::pair<std::size_t, std::size_t>> ranges;
  ParallelFor(8, 3, [&](std::size_t, std::size_t begin, std::size_t end) {
    ++calls;
    std::lock_guard<std::mutex> lock(mutex);
    ranges.insert({begin, end});
  });
  // One morsel per item, not per worker.
  EXPECT_EQ(calls.load(), 3);
  EXPECT_EQ(ranges, (std::set<std::pair<std::size_t, std::size_t>>{
                        {0, 1}, {1, 2}, {2, 3}}));
}

TEST(ParallelForTest, PropagatesExceptionFromWorker) {
  // Slot 0 always exists, whatever the resolved worker count.
  EXPECT_THROW(
      ParallelFor(4, 100,
                  [](std::size_t slot, std::size_t, std::size_t) {
                    if (slot == 0) throw std::runtime_error("boom");
                  }),
      std::runtime_error);
}

TEST(ParallelForTest, RethrowsLowestSlotFirstUnderSkew) {
  // 1-item morsels with skewed workloads scatter the slots over every
  // participant; whichever participant ends up executing the throwing
  // slots, the caller must see the lowest slot's exception.
  ScopedMorselItems force(1);
  for (int repeat = 0; repeat < 20; ++repeat) {
    try {
      ParallelFor(4, 64, [](std::size_t slot, std::size_t, std::size_t) {
        if (slot % 5 == 0) {
          std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
        if (slot == 7) throw std::runtime_error("slot-7");
        if (slot == 41) throw std::runtime_error("slot-41");
      });
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "slot-7");
    }
  }
}

TEST(ParallelForTest, EverySlotRunsDespiteAnEarlyThrow) {
  ScopedMorselItems force(1);
  std::vector<std::atomic<int>> hits(50);
  EXPECT_THROW(ParallelFor(3, hits.size(),
                           [&](std::size_t slot, std::size_t, std::size_t) {
                             ++hits[slot];
                             if (slot == 0) throw std::runtime_error("boom");
                           }),
               std::runtime_error);
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "slot " << i;
  }
}

TEST(ParallelForTest, PoolSurvivesAFailedLoop) {
  EXPECT_THROW(ParallelFor(4, 8,
                           [](std::size_t, std::size_t, std::size_t) {
                             throw std::runtime_error("boom");
                           }),
               std::runtime_error);
  // The pool is still usable afterwards.
  std::atomic<int> sum{0};
  ParallelFor(4, 8, [&](std::size_t, std::size_t begin, std::size_t end) {
    sum += static_cast<int>(end - begin);
  });
  EXPECT_EQ(sum.load(), 8);
}

TEST(ParallelForTest, NestedParallelForFromAPoolTaskIsSafe) {
  // Regression test for the old "nested ParallelFor is forbidden"
  // restriction: a morsel body that itself runs a parallel loop must
  // complete (the nested caller drives its own loop; it never blocks on a
  // worker that could be waiting for it).
  ScopedMorselItems force(1);
  std::vector<std::atomic<int>> inner_hits(40 * 8);
  std::atomic<int> outer_calls{0};
  ParallelFor(4, 8, [&](std::size_t outer, std::size_t, std::size_t) {
    ++outer_calls;
    ParallelFor(3, 40, [&](std::size_t, std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        ++inner_hits[outer * 40 + i];
      }
    });
  });
  EXPECT_EQ(outer_calls.load(), 8);
  for (std::size_t i = 0; i < inner_hits.size(); ++i) {
    EXPECT_EQ(inner_hits[i].load(), 1) << "inner index " << i;
  }
}

TEST(ParallelForTest, IdleParticipantsRunEverySlotABlockedOneCannot) {
  // Self-balancing: with 2 contexts and 1-item morsels, slot 0 blocks
  // until every other slot has run. Its participant cannot run them, so
  // the other one must claim all of them. A partition fixed up front
  // would hand half of the slots to the blocked participant and hit the
  // deadline.
  ScopedMorselItems force(1);
  constexpr std::size_t kSlots = 64;
  std::atomic<std::size_t> others_done{0};
  std::atomic<bool> timed_out{false};
  ParallelFor(2, kSlots, [&](std::size_t slot, std::size_t, std::size_t) {
    if (slot != 0) {
      others_done.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (others_done.load(std::memory_order_relaxed) < kSlots - 1) {
      if (std::chrono::steady_clock::now() > deadline) {
        timed_out.store(true, std::memory_order_relaxed);
        return;
      }
      std::this_thread::yield();
    }
  });
  EXPECT_FALSE(timed_out.load());
  EXPECT_EQ(others_done.load(), kSlots - 1);
}

TEST(SchedulerStatsTest, CountsMorselsAndLoops) {
  ScopedMorselItems force(1);
  const SchedulerTotals before = GlobalSchedulerTotals();
  std::atomic<int> calls{0};
  for (int repeat = 0; repeat < 5; ++repeat) {
    ParallelFor(4, 100, [&](std::size_t, std::size_t, std::size_t) {
      ++calls;
    });
  }
  const SchedulerStats stats = GlobalSchedulerStats();
  const SchedulerTotals delta = stats.Totals().Minus(before);
  EXPECT_EQ(calls.load(), 500);
  EXPECT_EQ(delta.morsels, 500u);  // every slot accounted exactly once
  EXPECT_EQ(delta.loops, 5u);
  EXPECT_EQ(delta.steals, 0u);
  EXPECT_GE(stats.workers, 3u);  // 4 contexts = caller + 3 workers
}

TEST(SchedulerStatsTest, GlobalPoolIsPersistentAndObservable) {
  const SchedulerTotals before = GlobalSchedulerTotals();
  std::atomic<int> sum{0};
  ParallelFor(3, 64, [&](std::size_t, std::size_t begin, std::size_t end) {
    sum += static_cast<int>(end - begin);
  });
  const std::size_t workers_after_first = GlobalSchedulerStats().workers;
  EXPECT_GE(workers_after_first, 2u);  // 3 contexts = caller + 2 workers
  ParallelFor(3, 64, [&](std::size_t, std::size_t begin, std::size_t end) {
    sum += static_cast<int>(end - begin);
  });
  // Reused, not respawned.
  EXPECT_EQ(GlobalSchedulerStats().workers, workers_after_first);
  EXPECT_EQ(sum.load(), 128);
  const SchedulerTotals delta = GlobalSchedulerTotals().Minus(before);
  EXPECT_EQ(delta.loops, 2u);
  EXPECT_GT(delta.morsels, 0u);
  const SchedulerStats stats = GlobalSchedulerStats();
  EXPECT_EQ(stats.per_worker.size(), stats.workers);
  EXPECT_GT(stats.uptime_micros, 0u);
}

TEST(PinningTest, WorkersPinnedAtSpawnStillComputeCorrectly) {
  // Pinning is best-effort (Linux affinity call) and applies to workers
  // spawned after the flag is set; asking for two more contexts than the
  // pool has workers spawns at least one. The contract under test is that
  // a pinned worker behaves identically.
  ScopedMorselItems force(1);
  SetThreadPinning(true);
  std::atomic<int> sum{0};
  ParallelFor(GlobalSchedulerStats().workers + 2, 100,
              [&](std::size_t, std::size_t begin, std::size_t end) {
                sum += static_cast<int>(end - begin);
              });
  SetThreadPinning(false);
  EXPECT_EQ(sum.load(), 100);
}

TEST(PinningTest, FlagRoundTrips) {
  EXPECT_FALSE(ThreadPinningEnabled());
  SetThreadPinning(true);
  EXPECT_TRUE(ThreadPinningEnabled());
  SetThreadPinning(false);
  EXPECT_FALSE(ThreadPinningEnabled());
}

}  // namespace
}  // namespace rulelink::util
