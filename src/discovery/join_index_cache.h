// Lake-wide cache of interned join-key indexes.
//
// Every BFS candidate edge, top-k materialisation and baseline join probes
// some lake table on some key column. The dictionary + CSR index + the
// deterministic cardinality-normalisation representative of a (table, key
// column) pair are built at most once per residency and shared across the
// discovery frontier, ML evaluation, the ARDA/MAB/JoinAll baselines and
// threads. The cache is an adapter over PinnedLruCache, keyed
// "table\0column" (budget, eviction, pins, carry-over and byte gauges live
// there). An entry is a pure function of (table contents, column, seed), so
// results are byte-identical under any eviction schedule (the
// `cache.eviction_oblivious` fuzzer invariant).
//
// Metrics: `requests`, first-time `builds` and `key_cardinality` (first
// builds only) are workload-determined and deterministic; `hits` and
// `rebuilds`, like the core's eviction metrics, depend on the eviction
// schedule and are registered non-deterministic, so the obs digest is the
// same for evicted and unevicted runs.

#ifndef AUTOFEAT_DISCOVERY_JOIN_INDEX_CACHE_H_
#define AUTOFEAT_DISCOVERY_JOIN_INDEX_CACHE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>

#include "discovery/pinned_lru_cache.h"
#include "obs/metrics.h"
#include "relational/join_index.h"
#include "util/status.h"

namespace autofeat {

namespace obs {
class Tracer;
}  // namespace obs

class DataLake;
class DatasetRelationGraph;
class ThreadPool;

/// \brief Thread-safe (table, key column) -> JoinKeyIndex cache over a lake.
class JoinIndexCache {
 public:
  /// Keeps the index alive across eviction until the caller drops it.
  using IndexPin = std::shared_ptr<const JoinKeyIndex>;

  /// `lake` must outlive the cache. `seed` fixes the representative-row
  /// draws, so same-seed caches over one lake build interchangeable
  /// entries. `budget_bytes` = 0 is unbounded. A non-null `tracer` records
  /// each index build as a `join_index.build` worker span.
  JoinIndexCache(const DataLake* lake, uint64_t seed,
                 obs::MetricsRegistry* metrics = nullptr,
                 obs::Tracer* tracer = nullptr, size_t budget_bytes = 0);

  /// The index of `table`.`column`, built on first request and rebuilt
  /// after eviction. Fails if the table or column does not exist.
  Result<IndexPin> GetOrBuild(const std::string& table,
                              const std::string& column);

  /// Builds the index of every join target (to_node, to_column) of `drg` up
  /// front, fanning out over `pool` when given, under one batch recency
  /// tick. Purely an optimisation: GetOrBuild fills whatever is missing.
  void Prewarm(const DatasetRelationGraph& drg, ThreadPool* pool = nullptr);

  /// Copies the resident entries of `prev` whose table is neither in
  /// `invalidated_tables` nor absent from this cache's lake (see
  /// PinnedLruCache::CarryOver); nothing when the seeds differ. Call before
  /// publishing the cache. Returns the number of entries installed.
  size_t CarryOver(const JoinIndexCache& prev,
                   const std::unordered_set<std::string>& invalidated_tables);

  /// Attaches the `cache_evict` / `cache_rebuild` event log.
  void set_event_log(obs::EventLog* log) { core_.set_event_log(log); }

  /// The eviction-stress schedules; outstanding pins stay valid.
  void EvictAll() { core_.EvictAll(); }
  void EvictRandomHalf(uint64_t draw) { core_.EvictRandomHalf(draw); }

  /// Entries ever created (resident or evicted).
  size_t num_entries() const { return core_.num_entries(); }
  /// Entries currently holding a built index.
  size_t num_resident() const { return core_.num_resident(); }
  /// Sum of the resident entries' ApproxBytes.
  size_t resident_bytes() const { return core_.resident_bytes(); }

 private:
  using Core = PinnedLruCache<JoinKeyIndex>;

  Result<IndexPin> GetOrBuildWithTick(const std::string& table,
                                      const std::string& column,
                                      uint64_t tick);

  const DataLake* lake_;
  uint64_t seed_;
  obs::Tracer* tracer_;
  obs::Counter* requests_;
  obs::Counter* builds_;
  obs::Counter* hits_;
  obs::Counter* rebuilds_;
  obs::Histogram* key_cardinality_;
  Core core_;
};

}  // namespace autofeat

#endif  // AUTOFEAT_DISCOVERY_JOIN_INDEX_CACHE_H_
