#include "discovery/sketch_cache.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "discovery/data_lake.h"
#include "obs/event_log.h"
#include "obs/memory.h"
#include "obs/metrics.h"
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
      budget_bytes_(budget_bytes),
      builds_(obs::GetCounter(metrics, "sketch_cache.builds")),
      // Schedule-dependent under a budget — excluded from the deterministic
      // digest, like the JoinIndexCache eviction metrics.
      rebuilds_(obs::GetCounter(metrics, "sketch_cache.rebuilds",
                                /*deterministic=*/false)),
      evictions_(obs::GetCounter(metrics, "sketch_cache.evictions",
                                 /*deterministic=*/false)),
      bytes_(obs::GetGauge(metrics, "sketch_cache.bytes",
                           /*deterministic=*/false)),
      bytes_peak_(obs::GetGauge(metrics, "sketch_cache.bytes_peak",
                                /*deterministic=*/false)),
      state_(std::make_unique<State>()) {
  state_->entries.resize(lake_->num_tables());
  for (auto& slot : state_->entries) slot = std::make_shared<Entry>();
}

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
  State& st = *state_;
  std::shared_ptr<Entry> entry;
  {
    std::lock_guard<std::mutex> lock(st.mutex);
    if (tick == 0) tick = ++st.tick;
    entry = st.entries[table_index];
    entry->last_used = std::max(entry->last_used, tick);
    if (entry->sketches != nullptr) return entry->sketches;
  }

  // Miss: serialise builders of this entry; the sketch itself is built with
  // only build_mutex held, so distinct tables sketch concurrently.
  std::lock_guard<std::mutex> build_lock(entry->build_mutex);
  bool rebuild = false;
  {
    std::lock_guard<std::mutex> lock(st.mutex);
    if (entry->sketches != nullptr) return entry->sketches;
    rebuild = entry->ever_built;
  }

  obs::Tracer* tracer = pool != nullptr ? pool->tracer() : nullptr;
  obs::ScopedWorkerSpan span(tracer, "sketch.table");
  const Table& table = lake_->tables()[table_index];
  auto sketches = std::make_shared<std::vector<ColumnSketch>>();
  sketches->reserve(table.num_columns());
  size_t footprint = sizeof(std::vector<ColumnSketch>);
  for (size_t c = 0; c < table.num_columns(); ++c) {
    sketches->push_back(BuildColumnSketch(table.column(c), max_sample_));
    footprint += sketches->back().ApproxBytes();
  }
  TableSketchesPin pin = std::move(sketches);

  std::lock_guard<std::mutex> lock(st.mutex);
  if (!rebuild) {
    entry->ever_built = true;
    obs::Increment(builds_, table.num_columns());
  } else {
    obs::Increment(rebuilds_, table.num_columns());
    obs::Append(event_log_, "cache_rebuild",
                {{"cache", "sketch"},
                 {"table", table.name()},
                 {"bytes", footprint}});
  }
  // Publish only while it fits: an entry larger than the whole budget is
  // handed to the caller pin-only, so the resident gauge never exceeds the
  // budget.
  if (budget_bytes_ == 0 || footprint <= budget_bytes_) {
    EvictForLocked(footprint, entry.get());
    entry->sketches = pin;
    entry->bytes = footprint;
    st.resident_bytes += footprint;
    obs::AddBytesWithPeak(bytes_, bytes_peak_,
                          static_cast<int64_t>(footprint));
  }
  return pin;
}

void LakeSketchCache::EvictForLocked(size_t incoming, const Entry* keep) {
  State& st = *state_;
  if (budget_bytes_ == 0) return;
  while (st.resident_bytes + incoming > budget_bytes_) {
    // Victim: least-recently-used resident entry; among equally recent
    // entries (one prewarm batch) the largest footprint goes first — most
    // bytes reclaimed per rebuild risked. Entries are scanned in table
    // order, so victim order is deterministic.
    Entry* victim = nullptr;
    size_t victim_index = 0;
    for (size_t i = 0; i < st.entries.size(); ++i) {
      const auto& entry = st.entries[i];
      if (entry->sketches == nullptr || entry.get() == keep) continue;
      if (victim == nullptr || entry->last_used < victim->last_used ||
          (entry->last_used == victim->last_used &&
           entry->bytes > victim->bytes)) {
        victim = entry.get();
        victim_index = i;
      }
    }
    if (victim == nullptr) break;  // everything left is `keep`
    st.resident_bytes -= victim->bytes;
    obs::AddBytesWithPeak(bytes_, bytes_peak_,
                          -static_cast<int64_t>(victim->bytes));
    obs::Append(event_log_, "cache_evict",
                {{"cache", "sketch"},
                 {"table", lake_->tables()[victim_index].name()},
                 {"bytes", victim->bytes}});
    victim->sketches.reset();
    victim->bytes = 0;
    obs::Increment(evictions_);
  }
}

void LakeSketchCache::PrewarmAll(ThreadPool* pool) {
  State& st = *state_;
  size_t n;
  uint64_t batch_tick;
  {
    std::lock_guard<std::mutex> lock(st.mutex);
    // One recency tick for the whole batch: prewarmed entries are equally
    // recent, so the cost-aware (largest-first) tie-break decides eviction
    // order among them under a budget.
    batch_tick = ++st.tick;
    n = st.entries.size();
  }
  ParallelFor(pool, 0, n, /*grain=*/1, [&](size_t t) {
    GetOrBuildWithTick(t, batch_tick, pool);
  });
}

size_t LakeSketchCache::CarryOver(
    const LakeSketchCache& prev,
    const std::unordered_set<std::string>& invalidated_tables) {
  if (prev.max_sample_ != max_sample_) return 0;
  // Positions shift when tables are dropped, so survivors are matched by
  // name: for each table of our lake, find its position in prev's lake.
  std::unordered_map<std::string, size_t> prev_pos;
  {
    const auto prev_tables = prev.lake_->tables();
    for (size_t t = 0; t < prev_tables.size(); ++t) {
      prev_pos[prev_tables[t].name()] = t;
    }
  }
  struct Carried {
    size_t index;
    TableSketchesPin sketches;
    size_t bytes;
    uint64_t last_used;
  };
  std::vector<Carried> carried;
  uint64_t prev_tick = 0;
  {
    std::lock_guard<std::mutex> lock(prev.state_->mutex);
    prev_tick = prev.state_->tick;
    const auto tables = lake_->tables();
    for (size_t t = 0; t < tables.size(); ++t) {
      const std::string& name = tables[t].name();
      if (invalidated_tables.count(name) > 0) continue;
      auto it = prev_pos.find(name);
      if (it == prev_pos.end()) continue;
      const auto& entry = prev.state_->entries[it->second];
      if (entry->sketches == nullptr) continue;
      carried.push_back({t, entry->sketches, entry->bytes, entry->last_used});
    }
  }
  std::sort(carried.begin(), carried.end(),
            [](const Carried& a, const Carried& b) {
              return a.last_used != b.last_used ? a.last_used < b.last_used
                                                : a.index < b.index;
            });
  State& st = *state_;
  std::lock_guard<std::mutex> lock(st.mutex);
  st.tick = std::max(st.tick, prev_tick);
  size_t installed = 0;
  for (Carried& c : carried) {
    if (budget_bytes_ != 0 && c.bytes > budget_bytes_) continue;
    auto& slot = st.entries[c.index];
    if (slot->sketches != nullptr) continue;
    EvictForLocked(c.bytes, slot.get());
    slot->sketches = std::move(c.sketches);
    slot->bytes = c.bytes;
    slot->last_used = c.last_used;
    slot->ever_built = true;
    st.resident_bytes += c.bytes;
    obs::AddBytesWithPeak(bytes_, bytes_peak_, static_cast<int64_t>(c.bytes));
    ++installed;
  }
  return installed;
}

void LakeSketchCache::EvictAll() {
  State& st = *state_;
  std::lock_guard<std::mutex> lock(st.mutex);
  for (size_t i = 0; i < st.entries.size(); ++i) {
    auto& entry = st.entries[i];
    if (entry->sketches == nullptr) continue;
    st.resident_bytes -= entry->bytes;
    obs::AddBytesWithPeak(bytes_, bytes_peak_,
                          -static_cast<int64_t>(entry->bytes));
    obs::Append(event_log_, "cache_evict",
                {{"cache", "sketch"},
                 {"table", lake_->tables()[i].name()},
                 {"bytes", entry->bytes}});
    entry->sketches.reset();
    entry->bytes = 0;
    obs::Increment(evictions_);
  }
}

size_t LakeSketchCache::num_tables() const {
  std::lock_guard<std::mutex> lock(state_->mutex);
  return state_->entries.size();
}

size_t LakeSketchCache::num_resident() const {
  std::lock_guard<std::mutex> lock(state_->mutex);
  size_t resident = 0;
  for (const auto& entry : state_->entries) {
    resident += entry->sketches != nullptr ? 1 : 0;
  }
  return resident;
}

size_t LakeSketchCache::resident_bytes() const {
  std::lock_guard<std::mutex> lock(state_->mutex);
  return state_->resident_bytes;
}

}  // namespace autofeat
