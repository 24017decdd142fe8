#include "util/scheduler.h"

#include <algorithm>
#include <cassert>
#include <condition_variable>
#include <exception>
#include <mutex>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/work_stealing_deque.h"

namespace autofeat {

namespace {

// Shared state of one MorselParallelFor invocation. The deques are filled
// by the caller before any helper is submitted and never pushed to again, so
// every morsel leaves exactly one deque exactly once — either popped by its
// owner lane or stolen — and the latch counts it when its body finished.
struct MorselState {
  size_t begin = 0;
  size_t morsel_size = 1;
  size_t end = 0;
  const std::function<void(size_t)>* fn = nullptr;

  std::vector<WorkStealingDeque> deques;
  size_t num_morsels = 0;

  std::mutex mutex;
  std::condition_variable done_cv;
  size_t morsels_finished = 0;

  // First exception by morsel index, so the propagated error does not depend
  // on which lane ran the morsel or when.
  std::exception_ptr error;
  size_t error_morsel = 0;

  // Runs one morsel's iteration block and updates the completion latch.
  void RunMorsel(size_t morsel) {
    size_t lo = begin + morsel * morsel_size;
    size_t hi = std::min(end, lo + morsel_size);
    std::exception_ptr caught;
    try {
      for (size_t i = lo; i < hi; ++i) (*fn)(i);
    } catch (...) {
      caught = std::current_exception();
    }
    std::lock_guard<std::mutex> lock(mutex);
    if (caught && (!error || morsel < error_morsel)) {
      error = caught;
      error_morsel = morsel;
    }
    if (++morsels_finished == num_morsels) done_cv.notify_all();
  }

  // One lane's whole schedule: drain the own deque bottom-up (ascending
  // morsel index — the pre-fill pushes in reverse), then sweep the other
  // lanes as a thief until a full round of attempts claims nothing.
  //
  // The sweep may end while some deque still holds work (a lost steal race
  // advances past the victim), but never strands it: each deque's owner
  // drains its own deque to empty before turning thief, and the caller's
  // completion wait is on the morsel latch, not on lane exits. Returns
  // (morsels executed, morsels stolen) for the scheduler counters.
  std::pair<size_t, size_t> RunLane(size_t lane) {
    size_t executed = 0;
    size_t stolen = 0;
    size_t morsel = 0;
    while (deques[lane].PopBottom(&morsel)) {
      RunMorsel(morsel);
      ++executed;
    }
    const size_t lanes = deques.size();
    size_t offset = 1;
    while (offset < lanes) {
      size_t victim = (lane + offset) % lanes;
      if (deques[victim].StealTop(&morsel)) {
        RunMorsel(morsel);
        ++executed;
        ++stolen;
        // Keep milking this victim; a failed steal moves the sweep on.
        continue;
      }
      ++offset;
    }
    return {executed, stolen};
  }
};

}  // namespace

void MorselParallelFor(ThreadPool* pool, size_t begin, size_t end,
                       size_t morsel_size,
                       const std::function<void(size_t)>& fn) {
  if (begin >= end) return;
  size_t range = end - begin;
  if (morsel_size == 0) morsel_size = 1;
  if (pool == nullptr || pool->num_threads() <= 1 || range <= morsel_size) {
    for (size_t i = begin; i < end; ++i) fn(i);
    return;
  }

  MorselState state;
  state.begin = begin;
  state.morsel_size = morsel_size;
  state.end = end;
  state.fn = &fn;
  state.num_morsels = (range + morsel_size - 1) / morsel_size;

  // One lane per pool worker plus the participating caller, capped at one
  // morsel per lane. Pre-fill happens before any helper exists, so the
  // deques see their owner as the only pusher ever.
  size_t lanes = std::min(pool->num_threads() + 1, state.num_morsels);
  state.deques.reserve(lanes);
  size_t per_lane = state.num_morsels / lanes;
  size_t remainder = state.num_morsels % lanes;
  size_t next = 0;
  for (size_t lane = 0; lane < lanes; ++lane) {
    size_t count = per_lane + (lane < remainder ? 1 : 0);
    state.deques.emplace_back(count);
    // Pushed in reverse so the owner's LIFO pops walk the block in
    // ascending index order (contiguous input access), while thieves bite
    // off the block's tail.
    for (size_t k = count; k > 0; --k) {
      bool pushed = state.deques[lane].PushBottom(next + k - 1);
      assert(pushed);
      (void)pushed;
    }
    next += count;
  }
  assert(next == state.num_morsels);

  obs::MetricsRegistry* metrics = pool->metrics();
  obs::Counter* calls = obs::GetCounter(metrics, "thread_pool.morsel.calls",
                                        /*deterministic=*/false);
  obs::Counter* executed = obs::GetCounter(
      metrics, "thread_pool.morsel.executed", /*deterministic=*/false);
  obs::Counter* steals = obs::GetCounter(metrics, "thread_pool.morsel.steals",
                                         /*deterministic=*/false);
  obs::Increment(calls);

  size_t helpers = lanes - 1;
  // Guarded by helper_mutex: helpers decrement and notify under it, so the
  // wait below sees zero only once no helper can touch this frame again.
  size_t helpers_live = helpers;
  std::mutex helper_mutex;
  std::condition_variable helper_cv;
  obs::Tracer* tracer = pool->tracer();
  for (size_t t = 0; t < helpers; ++t) {
    // Captured on the caller thread: the enqueuing span parents the helper
    // span and the flow id draws the Submit -> execute arrow in the trace.
    obs::TaskContext ctx = obs::CaptureTaskContext(tracer);
    size_t lane = t + 1;
    pool->Submit([&, ctx, lane] {
      obs::ScopedWorkerSpan span(ctx, "thread_pool.worker");
      auto [ran, stole] = state.RunLane(lane);
      obs::Increment(executed, ran);
      obs::Increment(steals, stole);
      std::lock_guard<std::mutex> lock(helper_mutex);
      if (--helpers_live == 0) helper_cv.notify_all();
    });
  }
  auto [ran, stole] = state.RunLane(0);
  obs::Increment(executed, ran);
  obs::Increment(steals, stole);
  {
    std::unique_lock<std::mutex> lock(state.mutex);
    state.done_cv.wait(
        lock, [&] { return state.morsels_finished == state.num_morsels; });
  }
  // All morsels are done, but helper lambdas may still be on their final
  // instructions; don't let `state` leave scope under them.
  {
    std::unique_lock<std::mutex> lock(helper_mutex);
    helper_cv.wait(lock, [&] { return helpers_live == 0; });
  }
  if (state.error) std::rethrow_exception(state.error);
}

}  // namespace autofeat
