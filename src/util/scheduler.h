// Morsel-driven work-stealing scheduler, and the SchedulerKind switch that
// selects between it and the fork-join chunk cursor in thread_pool.h.
//
// ParallelFor's shared atomic cursor is simple and fair, but every chunk
// claim bounces one cache line between all lanes, and a lane that hits a
// long-running chunk late keeps the whole call alive while the other lanes
// idle at the exit barrier. The morsel scheduler (Leis et al.,
// "Morsel-Driven Parallelism", SIGMOD 2014) instead pre-partitions the index
// range into fixed-size morsels, deals them out block-contiguously across
// per-lane Chase-Lev deques, and lets each lane run its own block LIFO
// (ascending index order, cache-friendly) with zero shared-state traffic.
// Only when a lane runs dry does it touch other lanes' deques, stealing
// from the top (the work the owner would reach last). Skewed workloads —
// one expensive candidate amid hundreds of cheap ones — rebalance
// automatically without any lane ever waiting at an intermediate barrier.
//
// Determinism: the scheduler only decides *where* an index runs, never what
// it computes or where the result lands. Callers fold results in index
// order (ParallelMapWith writes out[i]), stochastic bodies derive their RNG
// stream from the index via DeriveSeed, and the scheduler's own counters
// (`thread_pool.morsel.*`) register as non-deterministic — so observable
// output is byte-identical across thread counts and across both scheduler
// kinds.

#ifndef AUTOFEAT_UTIL_SCHEDULER_H_
#define AUTOFEAT_UTIL_SCHEDULER_H_

#include <cstddef>
#include <functional>
#include <vector>

#include "util/thread_pool.h"

namespace autofeat {

/// \brief Which data-parallel loop runtime a component uses.
enum class SchedulerKind {
  /// Shared atomic chunk cursor with an exit barrier (ParallelFor).
  kForkJoin,
  /// Per-lane work-stealing deques over fixed-size morsels.
  kMorsel,
};

/// Runs `fn(i)` for every i in [begin, end) using morsel-driven work
/// stealing: the range is cut into morsels of `morsel_size` iterations
/// (0 behaves like 1), dealt block-contiguously across one deque per lane
/// (pool workers + the participating caller), and lanes steal across deques
/// once their own runs dry. Same contract as ParallelFor: inline with a
/// null/single-thread pool or a range of at most one morsel, iterations may
/// run concurrently in any order, and if any iteration throws, the
/// exception from the lowest-indexed morsel is rethrown on the caller after
/// all morsels finished.
void MorselParallelFor(ThreadPool* pool, size_t begin, size_t end,
                       size_t morsel_size,
                       const std::function<void(size_t)>& fn);

/// ParallelMap dispatching on `kind`: maps `fn` over [0, n) and returns the
/// results in index order regardless of which lane ran which index. `grain`
/// is the chunk size for kForkJoin and the morsel size for kMorsel.
template <typename T, typename Fn>
std::vector<T> ParallelMapWith(SchedulerKind kind, ThreadPool* pool, size_t n,
                               size_t grain, Fn&& fn) {
  std::vector<T> out(n);
  const std::function<void(size_t)> body = [&](size_t i) { out[i] = fn(i); };
  if (kind == SchedulerKind::kMorsel) {
    MorselParallelFor(pool, 0, n, grain, body);
  } else {
    ParallelFor(pool, 0, n, grain, body);
  }
  return out;
}

}  // namespace autofeat

#endif  // AUTOFEAT_UTIL_SCHEDULER_H_
