// AutoFeat: transitive feature discovery over join paths (paper §VI).
//
// Given a base table with a label and a Dataset Relation Graph over the
// lake, AutoFeat explores multi-hop join paths breadth-first, prunes
// low-quality joins, runs streaming relevance/redundancy feature selection
// on each join batch, ranks paths (Algorithm 2) and finally evaluates the
// top-k paths by training an ML model, returning the best augmented table.

#ifndef AUTOFEAT_CORE_AUTOFEAT_H_
#define AUTOFEAT_CORE_AUTOFEAT_H_

#include <memory>
#include <string>
#include <vector>

#include "core/config.h"
#include "discovery/data_lake.h"
#include "discovery/join_index_cache.h"
#include "graph/drg.h"
#include "graph/join_path.h"
#include "ml/trainer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "table/table.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace autofeat {

/// \brief A join path with its ranking score and selected features.
struct RankedPath {
  JoinPath path;
  /// Cumulative ranking score along the path (Algorithm 2 per hop, summed).
  double score = 0.0;
  /// Features selected anywhere along the path (names in the joined table).
  std::vector<FeatureScore> selected_features;
  /// Datasets joined by the path (excluding the base table).
  size_t tables_joined() const { return path.length(); }
};

/// \brief Outcome of the ranking phase (Algorithm 1).
struct DiscoveryResult {
  /// Paths with a positive score, sorted by descending score. Ties keep BFS
  /// (shortest-first) order.
  std::vector<RankedPath> ranked;
  /// Time spent in relevance + redundancy analysis only.
  double feature_selection_seconds = 0.0;
  /// Wall time of the whole discovery (joins + pruning + selection).
  double total_seconds = 0.0;
  size_t paths_explored = 0;
  size_t paths_pruned_infeasible = 0;  // join produced no matches
  size_t paths_pruned_quality = 0;     // completeness < tau
};

/// \brief Outcome of the full augmentation pipeline (§III-C).
struct AugmentationResult {
  /// Base table augmented with the best path's selected features.
  Table augmented;
  RankedPath best_path;
  /// Test accuracy of the model trained on `augmented`.
  double accuracy = 0.0;
  DiscoveryResult discovery;
  /// End-to-end wall time (discovery + top-k training).
  double total_seconds = 0.0;
};

/// \brief The AutoFeat engine.
///
/// With config.num_threads != 1 the engine owns a worker pool and runs the
/// hot loops — frontier-candidate evaluation during discovery and top-k
/// path materialisation/training — concurrently. Parallelism is invisible
/// in the results: candidates are merged in deterministic edge order and
/// stochastic tasks use RNG streams derived from (seed, task_index), so
/// ranked paths, selected features and accuracies are byte-identical at any
/// thread count (including the sequential num_threads=1 path).
class AutoFeat {
 public:
  /// `lake` and `drg` must outlive the engine.
  AutoFeat(const DataLake* lake, const DatasetRelationGraph* drg,
           AutoFeatConfig config)
      : lake_(lake), drg_(drg), config_(config) {
    if (config_.metrics_enabled) {
      // External sinks win (one shared report across phases); otherwise the
      // engine owns private ones, reachable via metrics() / tracer().
      metrics_ = config_.metrics;
      tracer_ = config_.tracer;
      if (metrics_ == nullptr) {
        owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
        metrics_ = owned_metrics_.get();
      }
      if (tracer_ == nullptr) {
        owned_tracer_ = std::make_unique<obs::Tracer>();
        tracer_ = owned_tracer_.get();
      }
    }
    if (ResolveNumThreads(config_.num_threads) > 1) {
      pool_ = std::make_unique<ThreadPool>(config_.num_threads);
      if (metrics_ != nullptr) pool_->set_metrics(metrics_);
      if (tracer_ != nullptr) pool_->set_tracer(tracer_);
    }
    // The serving layer passes an external cache shared across queries.
    // Entries are pure functions of (table contents, column, seed), so
    // sharing is invisible in the results.
    join_cache_ptr_ = config_.join_cache;
    if (join_cache_ptr_ == nullptr) {
      join_cache_ = std::make_unique<JoinIndexCache>(
          lake_, config_.seed, metrics_, tracer_, config_.memory_budget_bytes);
      join_cache_ptr_ = join_cache_.get();
    }
  }

  /// The engine's worker pool (null on the sequential path). Exposed so
  /// callers can reuse it for DRG construction with the same knob.
  ThreadPool* thread_pool() const { return pool_.get(); }

  /// The engine's join-index cache (never null). Shared by discovery, top-k
  /// materialisation and any caller that wants to join against the same
  /// lake with consistent representatives. Points at config.join_cache when
  /// that external cache was supplied.
  JoinIndexCache* join_index_cache() const { return join_cache_ptr_; }

  /// The engine's metrics registry / tracer (null unless
  /// config.metrics_enabled). Points at config.metrics / config.tracer when
  /// those external sinks were supplied, else at engine-owned instances.
  obs::MetricsRegistry* metrics() const { return metrics_; }
  obs::Tracer* tracer() const { return tracer_; }

  /// Algorithm 1: explores join paths from `base_table`, returns the ranked
  /// list. `label_column` must exist in the base table.
  Result<DiscoveryResult> DiscoverFeatures(const std::string& base_table,
                                           const std::string& label_column);

  /// Full pipeline: discovery, then trains `model` on the top-k ranked
  /// paths' augmented tables (full data) and returns the best.
  Result<AugmentationResult> Augment(const std::string& base_table,
                                     const std::string& label_column,
                                     ml::ModelKind model);

  /// Materialises a join path against the full (unsampled) lake tables and
  /// keeps base columns + the path's selected features.
  Result<Table> MaterializeAugmentedTable(const std::string& base_table,
                                          const RankedPath& ranked,
                                          const std::string& label_column);

 private:
  const DataLake* lake_;
  const DatasetRelationGraph* drg_;
  AutoFeatConfig config_;
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  std::unique_ptr<obs::Tracer> owned_tracer_;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<JoinIndexCache> join_cache_;  // owned (no external cache)
  JoinIndexCache* join_cache_ptr_ = nullptr;    // owned or external
};

}  // namespace autofeat

#endif  // AUTOFEAT_CORE_AUTOFEAT_H_
