#include "discovery/sketch_cache.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "discovery/data_lake.h"
#include "obs/trace.h"
#include "util/thread_pool.h"

namespace autofeat {

ColumnSketch BuildColumnSketch(const Column& col, size_t max_sample) {
  ColumnSketch sketch;
  std::unordered_set<std::string> values;
  for (size_t i = 0; i < col.size(); ++i) {
    if (!col.IsNull(i)) values.insert(col.KeyAt(i));
  }
  sketch.num_distinct = values.size();
  if (values.size() <= max_sample) {
    sketch.values = std::move(values);
    return sketch;
  }
  // Bottom-k by hash: the kept set is a deterministic function of the value
  // set (ranking by (hash, value) has no ties across distinct values).
  std::vector<std::pair<size_t, std::string>> hashed;
  hashed.reserve(values.size());
  std::hash<std::string> hasher;
  for (auto& v : values) hashed.emplace_back(hasher(v), v);
  std::nth_element(hashed.begin(),
                   hashed.begin() + static_cast<ptrdiff_t>(max_sample),
                   hashed.end());
  for (size_t i = 0; i < max_sample; ++i) {
    sketch.values.insert(std::move(hashed[i].second));
  }
  return sketch;
}

namespace {

size_t SketchIntersection(const ColumnSketch& a, const ColumnSketch& b) {
  const auto& small = a.values.size() <= b.values.size() ? a.values : b.values;
  const auto& large = a.values.size() <= b.values.size() ? b.values : a.values;
  size_t inter = 0;
  for (const auto& v : small) inter += large.count(v);
  return inter;
}

}  // namespace

double SketchContainment(const ColumnSketch& a, const ColumnSketch& b) {
  if (a.values.empty() || b.values.empty()) return 0.0;
  size_t smaller = std::min(a.values.size(), b.values.size());
  return static_cast<double>(SketchIntersection(a, b)) /
         static_cast<double>(smaller);
}

double SketchJaccard(const ColumnSketch& a, const ColumnSketch& b) {
  if (a.values.empty() && b.values.empty()) return 0.0;
  size_t inter = SketchIntersection(a, b);
  size_t uni = a.values.size() + b.values.size() - inter;
  return uni == 0 ? 0.0
                  : static_cast<double>(inter) / static_cast<double>(uni);
}

LakeSketchCache::LakeSketchCache(const DataLake* lake, size_t max_sample,
                                 obs::MetricsRegistry* metrics,
                                 size_t budget_bytes)
    : lake_(lake),
      max_sample_(max_sample),
      builds_(obs::GetCounter(metrics, "sketch_cache.builds")),
      // Schedule-dependent under a budget, so excluded from the digest.
      rebuilds_(obs::GetCounter(metrics, "sketch_cache.rebuilds",
                                /*deterministic=*/false)),
      core_(metrics, "sketch_cache", "sketch", budget_bytes) {}

LakeSketchCache LakeSketchCache::Build(const DataLake& lake,
                                       size_t max_sample, ThreadPool* pool,
                                       obs::MetricsRegistry* metrics,
                                       size_t budget_bytes) {
  LakeSketchCache cache(&lake, max_sample, metrics, budget_bytes);
  cache.PrewarmAll(pool);
  return cache;
}

LakeSketchCache::TableSketchesPin LakeSketchCache::GetOrBuild(
    size_t table_index) {
  return GetOrBuildWithTick(table_index, /*tick=*/0, /*pool=*/nullptr);
}

LakeSketchCache::TableSketchesPin LakeSketchCache::GetOrBuildWithTick(
    size_t table_index, uint64_t tick, ThreadPool* pool) {
  const Table& table = lake_->tables()[table_index];
  Core::Lookup lookup = core_.GetOrBuild(
      table.name(),
      [&]() -> Result<Core::Built> {
        obs::ScopedWorkerSpan span(
            pool != nullptr ? pool->tracer() : nullptr, "sketch.table");
        auto sketches = std::make_shared<std::vector<ColumnSketch>>();
        sketches->reserve(table.num_columns());
        size_t footprint = sizeof(std::vector<ColumnSketch>);
        for (size_t c = 0; c < table.num_columns(); ++c) {
          sketches->push_back(BuildColumnSketch(table.column(c), max_sample_));
          footprint += sketches->back().ApproxBytes();
        }
        return Core::Built{std::move(sketches), footprint};
      },
      tick);
  // The builder cannot fail.
  TableSketchesPin pin = lookup.pin.MoveValue();
  if (lookup.source != Core::Source::kHit) {
    obs::Increment(lookup.source == Core::Source::kBuild ? builds_ : rebuilds_,
                   pin->size());
  }
  return pin;
}

void LakeSketchCache::PrewarmAll(ThreadPool* pool) {
  const uint64_t batch_tick = core_.BatchTick();
  ParallelFor(pool, 0, lake_->num_tables(), /*grain=*/1, [&](size_t t) {
    GetOrBuildWithTick(t, batch_tick, pool);
  });
}

size_t LakeSketchCache::CarryOver(
    const LakeSketchCache& prev,
    const std::unordered_set<std::string>& invalidated_tables) {
  if (prev.max_sample_ != max_sample_) return 0;
  return core_.CarryOver(
      prev.core_, invalidated_tables,
      [this](const std::string& table) { return lake_->HasTable(table); });
}

}  // namespace autofeat
