// Precomputed distinct-value sketches for DRG construction.
//
// All-pairs joinability matching is quadratic in the number of tables, and
// the naive formulation re-scans (and re-sketches) each column once per
// table pair it participates in. A LakeSketchCache computes every column's
// bottom-k-by-hash sketch once per residency — in parallel over tables when
// a ThreadPool is given — so pair scoring degenerates to set intersections
// over cached sketches. The sketch keeps the values with the smallest
// hashes, so the *same* values survive on both sides of any comparison and
// containment/Jaccard estimates are stable under sampling (see
// schema_matcher.h).
//
// LakeSketchCache is an adapter over PinnedLruCache keyed by table name
// (budget, eviction, pins, carry-over and byte gauges live there).
// Sketches are pure functions of (table contents, max_sample), so rebuilds
// are byte-identical and eviction never changes the discovered DRG.

#ifndef AUTOFEAT_DISCOVERY_SKETCH_CACHE_H_
#define AUTOFEAT_DISCOVERY_SKETCH_CACHE_H_

#include <cstddef>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "discovery/pinned_lru_cache.h"
#include "obs/metrics.h"
#include "table/table.h"

namespace autofeat {

class DataLake;
class ThreadPool;

/// \brief Distinct-value summary of one column.
struct ColumnSketch {
  /// Up to `max_sample` distinct non-null values (bottom-k by hash).
  std::unordered_set<std::string> values;
  /// Exact distinct non-null count before sampling (for the low-cardinality
  /// evidence discount, which needs the true count, not the sample size).
  size_t num_distinct = 0;

  /// Approximate heap footprint in bytes. Size-based (value count and
  /// lengths, not bucket capacity), so equal content reports equal bytes
  /// and the `sketch_cache.bytes` gauge stays deterministic.
  size_t ApproxBytes() const {
    size_t total = sizeof(ColumnSketch);
    for (const auto& v : values) {
      total += sizeof(std::string) + v.size() + 2 * sizeof(void*);
    }
    return total;
  }
};

/// Builds the sketch of a single column.
ColumnSketch BuildColumnSketch(const Column& col, size_t max_sample);

/// Containment |A ∩ B| / min(|A|, |B|) of two sketches (0 if either empty).
double SketchContainment(const ColumnSketch& a, const ColumnSketch& b);

/// Jaccard |A ∩ B| / |A ∪ B| of two sketches (0 if both empty).
double SketchJaccard(const ColumnSketch& a, const ColumnSketch& b);

/// \brief Budget-aware cache of every lake column's sketch, one entry per
/// table (columns of a table share value scans' cache locality).
class LakeSketchCache {
 public:
  /// One table's sketches in column order; valid across eviction.
  using TableSketchesPin = std::shared_ptr<const std::vector<ColumnSketch>>;

  /// `lake` must outlive the cache; `budget_bytes` = 0 is unbounded.
  /// `metrics` counts `sketch_cache.builds` (column sketches first
  /// computed — deterministic) and the schedule-dependent `.rebuilds`.
  LakeSketchCache(const DataLake* lake, size_t max_sample,
                  obs::MetricsRegistry* metrics = nullptr,
                  size_t budget_bytes = 0);

  /// A cache over `lake` with every table prewarmed (fanning out over
  /// `pool`, whose tracer receives `sketch.table` worker spans).
  static LakeSketchCache Build(const DataLake& lake, size_t max_sample,
                               ThreadPool* pool = nullptr,
                               obs::MetricsRegistry* metrics = nullptr,
                               size_t budget_bytes = 0);

  /// The sketches of table `table_index` (a lake position, keyed by the
  /// table's name), built on first request and rebuilt after eviction.
  /// Thread-safe; concurrent requests build once.
  TableSketchesPin GetOrBuild(size_t table_index);

  /// Builds every table's entry under one shared batch recency tick.
  void PrewarmAll(ThreadPool* pool = nullptr);

  /// Copies the resident entries of `prev` for every table of this cache's
  /// lake not in `invalidated_tables` (see PinnedLruCache::CarryOver);
  /// nothing when max_sample differs. Returns the number installed.
  size_t CarryOver(const LakeSketchCache& prev,
                   const std::unordered_set<std::string>& invalidated_tables);

  /// Attaches the `cache_evict` / `cache_rebuild` event log.
  void set_event_log(obs::EventLog* log) { core_.set_event_log(log); }

  /// Evicts every resident entry; outstanding pins stay valid.
  void EvictAll() { core_.EvictAll(); }

  /// Entries currently holding built sketches.
  size_t num_resident() const { return core_.num_resident(); }
  /// Sum of the resident entries' footprints.
  size_t resident_bytes() const { return core_.resident_bytes(); }

 private:
  using Core = PinnedLruCache<std::vector<ColumnSketch>>;

  TableSketchesPin GetOrBuildWithTick(size_t table_index, uint64_t tick,
                                      ThreadPool* pool);

  const DataLake* lake_;
  size_t max_sample_ = 0;
  obs::Counter* builds_;
  obs::Counter* rebuilds_;
  Core core_;
};

}  // namespace autofeat

#endif  // AUTOFEAT_DISCOVERY_SKETCH_CACHE_H_
