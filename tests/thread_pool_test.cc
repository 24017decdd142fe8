#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "util/rng.h"

namespace autofeat {
namespace {

TEST(ThreadPoolTest, ResolveNumThreads) {
  EXPECT_GE(ResolveNumThreads(0), 1u);
  EXPECT_EQ(ResolveNumThreads(1), 1u);
  EXPECT_EQ(ResolveNumThreads(7), 7u);
}

TEST(ThreadPoolTest, SubmitRunsEveryTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  std::atomic<int> counter{0};
  std::atomic<int> done{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&] {
      counter.fetch_add(1);
      done.fetch_add(1);
    });
  }
  while (done.load() < 100) std::this_thread::yield();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ParallelForTest, EmptyRangeIsANoOp) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  ParallelFor(&pool, 5, 5, 1, [&](size_t) { calls.fetch_add(1); });
  ParallelFor(&pool, 7, 3, 1, [&](size_t) { calls.fetch_add(1); });
  ParallelFor(nullptr, 0, 0, 4, [&](size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  ParallelFor(&pool, 0, hits.size(), 7,
              [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ParallelForTest, GrainLargerThanRangeRunsInline) {
  ThreadPool pool(2);
  std::vector<int> out(5, 0);
  // range <= grain falls back to the caller thread; still covers all.
  ParallelFor(&pool, 0, out.size(), 100, [&](size_t i) { out[i] = 1; });
  EXPECT_EQ(std::accumulate(out.begin(), out.end(), 0), 5);
}

TEST(ParallelForTest, NullPoolRunsInlineInOrder) {
  std::vector<size_t> order;
  ParallelFor(nullptr, 2, 8, 2, [&](size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<size_t>{2, 3, 4, 5, 6, 7}));
}

TEST(ParallelForTest, ExceptionsPropagateToCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(
      ParallelFor(&pool, 0, 64, 1,
                  [&](size_t i) {
                    if (i % 2 == 1) throw std::runtime_error("boom");
                  }),
      std::runtime_error);
  // The pool survives a throwing loop and stays usable.
  std::atomic<int> counter{0};
  ParallelFor(&pool, 0, 16, 1, [&](size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 16);
}

TEST(ParallelForTest, LowestChunkExceptionWins) {
  ThreadPool pool(4);
  // Every index throws its own value; the rethrown one must come from the
  // lowest chunk regardless of scheduling.
  for (int round = 0; round < 5; ++round) {
    size_t thrown = 9999;
    try {
      ParallelFor(&pool, 0, 32, 1, [](size_t i) {
        throw i;  // NOLINT: test-only control flow
      });
    } catch (size_t i) {
      thrown = i;
    }
    EXPECT_EQ(thrown, 0u);
  }
}

TEST(ParallelMapTest, PreservesIndexOrder) {
  ThreadPool pool(4);
  std::vector<int> squares =
      ParallelMap<int>(&pool, 100, 3, [](size_t i) {
        return static_cast<int>(i * i);
      });
  ASSERT_EQ(squares.size(), 100u);
  for (size_t i = 0; i < squares.size(); ++i) {
    EXPECT_EQ(squares[i], static_cast<int>(i * i));
  }
  // Inline (null pool) agrees.
  EXPECT_EQ(squares, ParallelMap<int>(nullptr, 100, 3, [](size_t i) {
              return static_cast<int>(i * i);
            }));
}

TEST(ParallelForTest, ThousandsOfTinyCallsReturnCleanly) {
  // Helpers signal completion through a mutex and counter in the caller's
  // frame, so the caller must not return while a helper still touches them.
  // Many short calls back to back keep that window hot; the sanitizer lanes
  // turn a premature return into a use-after-scope report.
  ThreadPool pool(4);
  std::atomic<size_t> ran{0};
  size_t expected = 0;
  for (size_t call = 0; call < 4000; ++call) {
    const size_t n = 2 + call % 4;
    expected += n;
    ParallelFor(&pool, 0, n, /*grain=*/1, [&](size_t) {
      ran.fetch_add(1, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(ran.load(), expected);
}

TEST(DeriveSeedTest, StreamsAreStableAndDistinct) {
  EXPECT_EQ(DeriveSeed(42, 0), DeriveSeed(42, 0));
  EXPECT_NE(DeriveSeed(42, 0), DeriveSeed(42, 1));
  EXPECT_NE(DeriveSeed(42, 0), DeriveSeed(43, 0));
}

}  // namespace
}  // namespace autofeat
