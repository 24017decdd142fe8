#include "util/scheduler.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "util/work_stealing_deque.h"

namespace autofeat {
namespace {

TEST(SchedulerKindTest, NamesAndParsingRoundTrip) {
  EXPECT_STREQ("forkjoin", SchedulerKindName(SchedulerKind::kForkJoin));
  EXPECT_STREQ("morsel", SchedulerKindName(SchedulerKind::kMorsel));
  SchedulerKind kind = SchedulerKind::kForkJoin;
  EXPECT_TRUE(ParseSchedulerKind("morsel", &kind));
  EXPECT_EQ(SchedulerKind::kMorsel, kind);
  EXPECT_TRUE(ParseSchedulerKind("forkjoin", &kind));
  EXPECT_EQ(SchedulerKind::kForkJoin, kind);
  EXPECT_FALSE(ParseSchedulerKind("steal", &kind));
  EXPECT_EQ(SchedulerKind::kForkJoin, kind) << "failed parse must not write";
}

TEST(SchedulerKindTest, ParseSchedulerNormalisesCaseAndReportsValidValues) {
  EXPECT_EQ(*ParseScheduler("Morsel"), SchedulerKind::kMorsel);
  EXPECT_EQ(*ParseScheduler(" FORKJOIN "), SchedulerKind::kForkJoin);
  Result<SchedulerKind> bad = ParseScheduler("steal");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("valid values: forkjoin, morsel"),
            std::string::npos)
      << bad.status().message();
  SchedulerKind kind = SchedulerKind::kMorsel;
  EXPECT_TRUE(ParseSchedulerKind("MoRsEl", &kind));
  EXPECT_EQ(SchedulerKind::kMorsel, kind);
}

TEST(WorkStealingDequeTest, OwnerLifoThiefFifo) {
  WorkStealingDeque dq(8);
  for (size_t v : {10, 11, 12, 13}) ASSERT_TRUE(dq.PushBottom(v));
  size_t v = 0;
  ASSERT_TRUE(dq.StealTop(&v));
  EXPECT_EQ(10u, v);  // Thief takes the oldest item.
  ASSERT_TRUE(dq.PopBottom(&v));
  EXPECT_EQ(13u, v);  // Owner takes the newest.
  ASSERT_TRUE(dq.PopBottom(&v));
  EXPECT_EQ(12u, v);
  ASSERT_TRUE(dq.StealTop(&v));
  EXPECT_EQ(11u, v);
  EXPECT_FALSE(dq.PopBottom(&v));
  EXPECT_FALSE(dq.StealTop(&v));
}

TEST(WorkStealingDequeTest, CapacityRoundsUpAndRejectsOverflow) {
  WorkStealingDeque dq(5);
  EXPECT_EQ(8u, dq.capacity());
  for (size_t v = 0; v < 8; ++v) EXPECT_TRUE(dq.PushBottom(v));
  EXPECT_FALSE(dq.PushBottom(99));
  size_t v = 0;
  ASSERT_TRUE(dq.StealTop(&v));
  EXPECT_EQ(0u, v);
  // A freed slot becomes pushable again (ring wrap).
  EXPECT_TRUE(dq.PushBottom(99));
  EXPECT_FALSE(dq.PushBottom(100));
}

TEST(WorkStealingDequeTest, ConcurrentStealsClaimEveryItemExactlyOnce) {
  // One owner popping, several thieves stealing, all racing: the union of
  // claims must be an exact partition of the pushed items. Under TSan this
  // is also the data-race gate for the deque protocol.
  const size_t kItems = 20000;
  const size_t kThieves = 3;
  WorkStealingDeque dq(kItems);
  for (size_t v = 0; v < kItems; ++v) ASSERT_TRUE(dq.PushBottom(v));

  std::vector<std::vector<size_t>> stolen(kThieves);
  std::atomic<bool> owner_done{false};
  std::vector<std::thread> thieves;
  thieves.reserve(kThieves);
  for (size_t t = 0; t < kThieves; ++t) {
    thieves.emplace_back([&, t] {
      size_t v = 0;
      // Keep trying until the owner declared the deque drained; a failed
      // steal may just be a lost race.
      while (!owner_done.load(std::memory_order_acquire)) {
        if (dq.StealTop(&v)) stolen[t].push_back(v);
      }
      while (dq.StealTop(&v)) stolen[t].push_back(v);
    });
  }
  std::vector<size_t> popped;
  size_t v = 0;
  while (dq.PopBottom(&v)) popped.push_back(v);
  owner_done.store(true, std::memory_order_release);
  for (auto& th : thieves) th.join();

  std::set<size_t> seen(popped.begin(), popped.end());
  size_t total = popped.size();
  for (const auto& s : stolen) {
    seen.insert(s.begin(), s.end());
    total += s.size();
  }
  EXPECT_EQ(kItems, total) << "an item was claimed twice or dropped";
  EXPECT_EQ(kItems, seen.size());
  EXPECT_EQ(0u, *seen.begin());
  EXPECT_EQ(kItems - 1, *seen.rbegin());
}

TEST(MorselParallelForTest, EmptyRangeIsANoOp) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  MorselParallelFor(&pool, 5, 5, 1, [&](size_t) { calls.fetch_add(1); });
  MorselParallelFor(&pool, 7, 3, 1, [&](size_t) { calls.fetch_add(1); });
  MorselParallelFor(nullptr, 0, 0, 4, [&](size_t) { calls.fetch_add(1); });
  EXPECT_EQ(0, calls.load());
}

TEST(MorselParallelForTest, CoversEveryIndexExactlyOnceAcrossShapes) {
  // Odd ranges x odd morsel sizes x pool widths, including lanes > morsels
  // and morsels > deque pre-fill splits.
  for (size_t threads : {1, 2, 3, 5}) {
    ThreadPool pool(threads);
    for (size_t range : {1, 2, 7, 64, 97, 1000}) {
      for (size_t morsel : {0, 1, 3, 7, 64, 2000}) {
        std::vector<std::atomic<int>> hits(range);
        MorselParallelFor(&pool, 0, range, morsel,
                          [&](size_t i) { hits[i].fetch_add(1); });
        for (size_t i = 0; i < range; ++i) {
          ASSERT_EQ(1, hits[i].load())
              << "threads=" << threads << " range=" << range
              << " morsel=" << morsel << " i=" << i;
        }
      }
    }
  }
}

TEST(MorselParallelForTest, NonZeroBeginIsRespected) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(50);
  MorselParallelFor(&pool, 17, 41, 2, [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(i >= 17 && i < 41 ? 1 : 0, hits[i].load()) << "i=" << i;
  }
}

TEST(MorselParallelForTest, SkewedMorselsRebalanceThroughStealing) {
  // Lane 0's block front-loads all the expensive work (the first few
  // indices sleep; everything else is free). Helpers must steal across the
  // block boundaries for the loop to finish in sensible time, and the
  // counters must show it happened. Under TSan this is the steal-heavy
  // stress for owner/thief interleavings.
  // The registry must outlive the pool: workers touch their thread_pool.*
  // counters after each task body returns, so destruction must join the
  // workers (pool) before the counters (metrics) go away.
  obs::MetricsRegistry metrics;
  ThreadPool pool(3);
  pool.set_metrics(&metrics);
  const size_t kRange = 400;
  std::vector<std::atomic<int>> hits(kRange);
  MorselParallelFor(&pool, 0, kRange, 1, [&](size_t i) {
    if (i < 4) std::this_thread::sleep_for(std::chrono::milliseconds(30));
    hits[i].fetch_add(1);
  });
  for (size_t i = 0; i < kRange; ++i) ASSERT_EQ(1, hits[i].load());
  obs::Counter* steals =
      obs::GetCounter(&metrics, "thread_pool.morsel.steals",
                      /*deterministic=*/false);
  obs::Counter* executed =
      obs::GetCounter(&metrics, "thread_pool.morsel.executed",
                      /*deterministic=*/false);
  EXPECT_EQ(kRange, executed->value());
  // The caller's block alone holds ~100 morsels, 4 of which cost 30ms each;
  // with three helper lanes idle after ~100 free morsels, stealing is the
  // only way the run completes with every lane busy. At least one steal is
  // guaranteed unless the OS serialised the whole pool, which the sleeps
  // make effectively impossible.
  EXPECT_GT(steals->value(), 0u);
}

TEST(MorselParallelForTest, PropagatesLowestMorselException) {
  ThreadPool pool(4);
  for (int round = 0; round < 20; ++round) {
    try {
      MorselParallelFor(&pool, 0, 256, 1, [&](size_t i) {
        if (i == 31) throw std::runtime_error("boom-31");
        if (i == 200) throw std::runtime_error("boom-200");
      });
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ("boom-31", e.what());
    }
  }
}

TEST(MorselParallelForTest, InlineWhenPoolIsNullOrSingleThreaded) {
  std::vector<int> out(10, 0);
  MorselParallelFor(nullptr, 0, out.size(), 1, [&](size_t i) { out[i] = 1; });
  EXPECT_EQ(10, std::accumulate(out.begin(), out.end(), 0));
  ThreadPool pool(1);
  MorselParallelFor(&pool, 0, out.size(), 1, [&](size_t i) { out[i] += 1; });
  EXPECT_EQ(20, std::accumulate(out.begin(), out.end(), 0));
}

TEST(MorselParallelForTest, ThousandsOfTinyCallsReturnCleanly) {
  // Helper lanes signal completion through a mutex and counter in the
  // caller's frame, so the caller must not return while a helper still
  // touches them. Many short calls back to back keep that window hot; the
  // sanitizer lanes turn a premature return into a use-after-scope report.
  ThreadPool pool(4);
  std::atomic<size_t> ran{0};
  size_t expected = 0;
  for (size_t call = 0; call < 4000; ++call) {
    const size_t n = 2 + call % 4;
    expected += n;
    MorselParallelFor(&pool, 0, n, /*morsel_size=*/1, [&](size_t) {
      ran.fetch_add(1, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(ran.load(), expected);
}

TEST(ParallelMapWithTest, BothKindsProduceIdenticalIndexOrderedResults) {
  // The scheduler decides placement, never results: identical output vector
  // for any (kind, thread count) combination.
  auto body = [](size_t i) {
    return static_cast<double>(i * i) + 0.25 * static_cast<double>(i);
  };
  std::vector<double> want(333);
  for (size_t i = 0; i < want.size(); ++i) want[i] = body(i);
  for (SchedulerKind kind : {SchedulerKind::kForkJoin, SchedulerKind::kMorsel}) {
    for (size_t threads : {1, 2, 8}) {
      ThreadPool pool(threads);
      std::vector<double> got =
          ParallelMapWith<double>(kind, &pool, want.size(), 1, body);
      EXPECT_EQ(want, got) << SchedulerKindName(kind) << " threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace autofeat
