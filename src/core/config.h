// AutoFeat hyper-parameters (paper §VI, §VII-B, §VII-D).

#ifndef AUTOFEAT_CORE_CONFIG_H_
#define AUTOFEAT_CORE_CONFIG_H_

#include <cstddef>
#include <cstdint>

#include "fs/redundancy.h"
#include "fs/relevance.h"

namespace autofeat {

class JoinIndexCache;

namespace obs {
class MetricsRegistry;
class Tracer;
}  // namespace obs

/// \brief Cache-eviction stress schedules (qa/bench only). Discovery output
/// must be byte-identical under every schedule — cache entries are pure
/// functions of (table contents, column, seed) — which the
/// `cache.eviction_oblivious` fuzzer invariant enforces.
enum class EvictionStress {
  /// Production behaviour: evict only when the budget demands it.
  kNone,
  /// Adversarial: evict every resident entry between BFS rounds.
  kEvictAll,
  /// Evict a seeded pseudo-random half of the entries between BFS rounds
  /// (deterministic given config.seed).
  kRandom,
};

/// \brief Configuration of the AutoFeat discovery algorithm.
struct AutoFeatConfig {
  /// Data-quality (completeness) threshold tau: joins whose appended
  /// columns are less complete than this are pruned (paper default 0.65).
  double tau = 0.65;
  /// Maximum features selected from one table, kappa (paper default 15).
  size_t kappa = 15;
  /// Join paths handed to the ML evaluation stage (top-k).
  size_t top_k_paths = 4;
  /// Maximum join-path length explored (transitive-hop budget).
  size_t max_hops = 4;
  /// Safety cap on the number of join paths materialised during search.
  size_t max_paths = 2000;

  /// Relevance heuristic (§V-C; recommended: Spearman).
  RelevanceKind relevance = RelevanceKind::kSpearman;
  /// Redundancy criterion (§V-D; recommended: MRMR).
  RedundancyKind redundancy = RedundancyKind::kMrmr;
  /// Ablation switches (Fig. 9): disable one of the two analyses.
  bool use_relevance = true;
  bool use_redundancy = true;

  /// Similarity-score join-column pruning (§IV-C): keep only top-scoring
  /// join columns between a table pair.
  bool prune_join_columns = true;

  /// Beam pruning on dense (discovered) graphs: each partial path only
  /// expands to its `beam_width` highest-similarity neighbours (0 = all).
  /// The paper's future work anticipates "more aggressive pruning" for
  /// real data lakes; KFK snowflakes have small degrees and are unaffected.
  size_t beam_width = 8;

  /// Collapse join paths that visit the same set of tables and end at the
  /// same table (different visit orders produce near-identical augmented
  /// tables). Tames the factorial path blow-up of dense multigraphs; no
  /// effect on tree-shaped KFK schemata, where node sets identify paths.
  bool dedup_node_sets = true;

  /// Stratified sample size of the base table used during feature selection
  /// (0 = use all rows). Model training always sees the full data (§VI).
  size_t sample_rows = 2000;

  /// Worker threads for frontier expansion and top-k path evaluation:
  /// 0 = one per hardware thread, 1 = legacy sequential path (no pool),
  /// n = a fixed-size pool of n workers. Results are byte-identical at any
  /// thread count: candidate edges are merged in deterministic edge order
  /// and every stochastic task draws from an RNG stream derived from
  /// (seed, task_index).
  size_t num_threads = 1;

  /// Memory budget in bytes for the join-key index cache, 0 = unbounded
  /// (MatchOptions::memory_budget_bytes bounds the sketch cache). It bounds
  /// each cache, not their sum: serving keeps both per epoch alive, and
  /// pinned older epochs keep theirs. Results are byte-identical at any
  /// budget; only wall time changes (bench/oocore gates it).
  size_t memory_budget_bytes = 0;

  /// Eviction-schedule stress for qa/bench runs: evict everything (or a
  /// seeded random half) between BFS rounds to prove results are
  /// eviction-oblivious. Leave at kNone in production.
  EvictionStress eviction_stress = EvictionStress::kNone;

  /// Observability: when true the engine records counters/histograms and
  /// hierarchical phase spans (src/obs/) across DRG caches, the BFS
  /// traversal, joins and evaluation. When false (default) every
  /// instrumentation point degenerates to one untaken branch — the hot
  /// paths stay within noise of the uninstrumented build.
  bool metrics_enabled = false;
  /// Optional external sinks. When metrics_enabled and left null the engine
  /// owns a private registry/tracer (reachable via AutoFeat::metrics() /
  /// tracer()); pass non-null sinks to share one report across DRG
  /// construction, the engine and baselines (as autofeat_cli does for
  /// --metrics-out). Ignored when metrics_enabled is false.
  obs::MetricsRegistry* metrics = nullptr;
  obs::Tracer* tracer = nullptr;

  /// Optional externally owned join-index cache (serving layer): when
  /// non-null, the engine uses it instead of constructing a private one, so
  /// the cache outlives the engine and is shared across queries. The cache
  /// must be built over the same lake the engine reads and with the same
  /// seed (its entries are pure functions of (table contents, column,
  /// seed), so sharing never changes results).
  JoinIndexCache* join_cache = nullptr;

  uint64_t seed = 42;
};

}  // namespace autofeat

#endif  // AUTOFEAT_CORE_CONFIG_H_
