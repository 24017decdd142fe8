#include "discovery/join_index_cache.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "discovery/data_lake.h"
#include "graph/drg.h"
#include "obs/trace.h"
#include "util/hash.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace autofeat {

JoinIndexCache::JoinIndexCache(const DataLake* lake, uint64_t seed,
                               obs::MetricsRegistry* metrics,
                               obs::Tracer* tracer, size_t budget_bytes)
    : lake_(lake),
      seed_(seed),
      tracer_(tracer),
      requests_(obs::GetCounter(metrics, "join_index_cache.requests")),
      builds_(obs::GetCounter(metrics, "join_index_cache.builds")),
      // Schedule-dependent, so excluded from the digest (see the header).
      hits_(obs::GetCounter(metrics, "join_index_cache.hits",
                            /*deterministic=*/false)),
      rebuilds_(obs::GetCounter(metrics, "join_index_cache.rebuilds",
                                /*deterministic=*/false)),
      key_cardinality_(
          obs::GetHistogram(metrics, "join_index_cache.key_cardinality")),
      core_(metrics, "join_index_cache", "join_index", budget_bytes) {}

Result<JoinIndexCache::IndexPin> JoinIndexCache::GetOrBuild(
    const std::string& table, const std::string& column) {
  return GetOrBuildWithTick(table, column, /*tick=*/0);
}

Result<JoinIndexCache::IndexPin> JoinIndexCache::GetOrBuildWithTick(
    const std::string& table, const std::string& column, uint64_t tick) {
  obs::Increment(requests_);
  const std::string key = table + '\0' + column;
  Core::Lookup lookup = core_.GetOrBuild(
      key,
      [&]() -> Result<Core::Built> {
        obs::ScopedWorkerSpan span(tracer_, "join_index.build");
        AF_ASSIGN_OR_RETURN(const Table* t, lake_->GetTable(table));
        AF_ASSIGN_OR_RETURN(const Column* col, t->GetColumn(column));
        // The representative draws come from a stream fixed by FNV-1a of
        // "table\0column\0", so they do not depend on which caller builds
        // the entry first, and a rebuild after eviction reproduces the
        // exact same index.
        auto index = std::make_shared<const JoinKeyIndex>(BuildJoinKeyIndex(
            *col, DeriveSeed(seed_, Fnv1a64(key + '\0'))));
        return Core::Built{index, index->ApproxBytes()};
      },
      tick);
  if (lookup.source == Core::Source::kBuild && lookup.pin.ok()) {
    obs::Record(key_cardinality_, (*lookup.pin)->num_distinct_keys());
  }
  obs::Increment(lookup.source == Core::Source::kHit     ? hits_
                 : lookup.source == Core::Source::kBuild ? builds_
                                                         : rebuilds_);
  return std::move(lookup.pin);
}

void JoinIndexCache::Prewarm(const DatasetRelationGraph& drg,
                             ThreadPool* pool) {
  // Every (to_node, to_column) of every oriented edge is a potential join
  // target; neighbour lists are symmetric, so this covers both directions.
  std::vector<std::pair<std::string, std::string>> targets;
  for (size_t node = 0; node < drg.num_nodes(); ++node) {
    for (size_t neighbor : drg.Neighbors(node)) {
      for (const JoinStep& edge : drg.EdgesBetween(node, neighbor)) {
        targets.emplace_back(drg.NodeName(edge.to_node), edge.to_column);
      }
    }
  }
  std::sort(targets.begin(), targets.end());
  targets.erase(std::unique(targets.begin(), targets.end()), targets.end());
  const uint64_t batch_tick = core_.BatchTick();
  ParallelFor(pool, 0, targets.size(), /*grain=*/1, [&](size_t i) {
    // Failures are sticky and surface at join time.
    (void)GetOrBuildWithTick(targets[i].first, targets[i].second, batch_tick);
  });
}

size_t JoinIndexCache::CarryOver(
    const JoinIndexCache& prev,
    const std::unordered_set<std::string>& invalidated_tables) {
  if (prev.seed_ != seed_) return 0;
  return core_.CarryOver(
      prev.core_, invalidated_tables,
      [this](const std::string& table) { return lake_->HasTable(table); });
}

}  // namespace autofeat
