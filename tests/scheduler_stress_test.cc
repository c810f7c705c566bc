// Sanitizer stress for the morsel scheduler's claim-and-complete protocol:
// many tiny morsels, maximal contention on the shared cursor, repeated
// pool reuse, nested loops and concurrent stats reads. The assertions are
// deliberately simple — every item exactly once, slot ranges exact —
// because the point of this suite is what TSan/ASan observe while it runs
// (the cursor claims, the completion handshake, the shared_ptr'd loop
// state outliving stale helper tickets), not the arithmetic.
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/thread_pool.h"

namespace rulelink::util {
namespace {

TEST(SchedulerStressTest, ContendedClaimsOverTinyMorsels) {
  // 8 participants fighting over one-item slots, re-running on the same
  // pool so helper tickets from finished loops (holding the old loop
  // state) drain while the next loop is already live.
  ScopedMorselItems force(1);
  constexpr std::size_t kItems = 2000;
  for (int round = 0; round < 10; ++round) {
    std::vector<std::atomic<std::uint32_t>> hits(kItems);
    std::atomic<std::uint64_t> checksum{0};
    ParallelFor(8, kItems,
                [&](std::size_t slot, std::size_t begin, std::size_t end) {
                  for (std::size_t i = begin; i < end; ++i) {
                    ++hits[i];
                    checksum.fetch_add(i * (slot + 1),
                                       std::memory_order_relaxed);
                  }
                });
    for (std::size_t i = 0; i < kItems; ++i) {
      ASSERT_EQ(hits[i].load(), 1u) << "round " << round << " item " << i;
    }
    // slot == item for 1-item morsels, so the checksum is deterministic.
    std::uint64_t expected = 0;
    for (std::size_t i = 0; i < kItems; ++i) expected += i * (i + 1);
    ASSERT_EQ(checksum.load(), expected) << "round " << round;
  }
}

TEST(SchedulerStressTest, StatsReadsRaceWithRunningLoops) {
  // Stats reads use relaxed loads of live counters by design; TSan must
  // see no lock-order or data-race issue between a reader thread and the
  // participants flushing their counters.
  ScopedMorselItems force(1);
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    std::uint64_t last = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const SchedulerTotals totals = GlobalSchedulerTotals();
      ASSERT_GE(totals.morsels, last);  // monotone
      last = totals.morsels;
    }
  });
  for (int round = 0; round < 20; ++round) {
    std::atomic<std::uint64_t> sum{0};
    ParallelFor(4, 500, [&](std::size_t, std::size_t begin, std::size_t end) {
      sum.fetch_add(end - begin, std::memory_order_relaxed);
    });
    ASSERT_EQ(sum.load(), 500u);
  }
  stop.store(true, std::memory_order_release);
  reader.join();
}

TEST(SchedulerStressTest, NestedLoopsUnderContention) {
  // Outer morsels spawn inner parallel loops on the same global pool:
  // workers can be inner callers and outer helpers at once, which is the
  // deadlock-shaped scenario the caller-participates design must survive.
  ScopedMorselItems force(1);
  constexpr std::size_t kOuter = 16;
  constexpr std::size_t kInner = 64;
  for (int round = 0; round < 5; ++round) {
    std::vector<std::atomic<std::uint32_t>> hits(kOuter * kInner);
    ParallelFor(8, kOuter, [&](std::size_t outer, std::size_t, std::size_t) {
      ParallelFor(4, kInner,
                  [&](std::size_t, std::size_t begin, std::size_t end) {
                    for (std::size_t i = begin; i < end; ++i) {
                      ++hits[outer * kInner + i];
                    }
                  });
    });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      ASSERT_EQ(hits[i].load(), 1u) << "round " << round << " cell " << i;
    }
  }
}

TEST(SchedulerStressTest, ManyShortLoopsReuseTheGlobalPool) {
  // Loop-start/loop-end churn: hundreds of small scheduled loops back to
  // back exercise loop-state construction, stale-ticket drain and the
  // completion condition variable far more often than a few big loops.
  ScopedMorselItems force(2);
  const SchedulerTotals before = GlobalSchedulerTotals();
  std::atomic<std::uint64_t> total{0};
  for (int round = 0; round < 300; ++round) {
    ParallelFor(4, 16, [&](std::size_t, std::size_t begin, std::size_t end) {
      total.fetch_add(end - begin, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(total.load(), 300u * 16u);
  const SchedulerTotals delta = GlobalSchedulerTotals().Minus(before);
  EXPECT_EQ(delta.loops, 300u);
  EXPECT_EQ(delta.morsels, 300u * 8u);  // 16 items / 2-item morsels
}

}  // namespace
}  // namespace rulelink::util
