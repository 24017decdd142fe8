#include "core/autofeat.h"

#include <algorithm>
#include <deque>
#include <optional>
#include <unordered_set>
#include <utility>

#include "core/ranking.h"
#include "fs/streaming.h"
#include "relational/join.h"
#include "relational/join_index.h"
#include "relational/sampling.h"
#include "util/scheduler.h"
#include "util/timer.h"

namespace autofeat {

namespace {

StreamingFeatureSelector::Options MakeSelectorOptions(
    const AutoFeatConfig& config) {
  StreamingFeatureSelector::Options options;
  options.relevance.kind = config.relevance;
  options.relevance.top_k = config.kappa;
  options.relevance.seed = config.seed;
  options.redundancy.kind = config.redundancy;
  options.use_relevance = config.use_relevance;
  options.use_redundancy = config.use_redundancy;
  return options;
}

}  // namespace

Result<DiscoveryResult> AutoFeat::DiscoverFeatures(
    const std::string& base_table, const std::string& label_column) {
  Timer total_timer;
  obs::ScopedSpan discover_span(tracer_, "discover");
  // All discovery counters are incremented from the coordinating thread
  // (phases 1 and 3, never inside ParallelMap workers), so their values —
  // and the deterministic digest — are identical at any thread count.
  obs::Counter* m_candidates =
      obs::GetCounter(metrics_, "discovery.candidates_scored");
  obs::Counter* m_materialised =
      obs::GetCounter(metrics_, "discovery.states_materialised");
  obs::Counter* m_view_scored =
      obs::GetCounter(metrics_, "discovery.view_scored");
  obs::Counter* m_pruned_infeasible =
      obs::GetCounter(metrics_, "discovery.pruned_infeasible");
  obs::Counter* m_pruned_quality =
      obs::GetCounter(metrics_, "discovery.pruned_quality");
  obs::Counter* m_pruned_redundant =
      obs::GetCounter(metrics_, "discovery.pruned_redundant");
  obs::Counter* m_ranked = obs::GetCounter(metrics_, "discovery.ranked_paths");
  obs::Histogram* m_frontier =
      obs::GetHistogram(metrics_, "discovery.frontier_size");
  obs::Gauge* m_frontier_peak =
      obs::GetGauge(metrics_, "discovery.frontier_peak");

  AF_ASSIGN_OR_RETURN(const Table* base_full, lake_->GetTable(base_table));
  if (!base_full->HasColumn(label_column)) {
    return Status::KeyError("label column '" + label_column +
                            "' missing from base table " + base_table);
  }
  AF_ASSIGN_OR_RETURN(size_t base_node, drg_->NodeId(base_table));
  Rng rng(config_.seed);

  // Every (right table, key column) the DRG can reach is interned once up
  // front, in parallel, and shared by all candidates.
  {
    obs::ScopedSpan span(tracer_, "discover.prewarm");
    join_cache_ptr_->Prewarm(*drg_, pool_.get());
  }

  // Stratified sampling speeds up feature selection without biasing the
  // label distribution (§VI); model training later uses the full data.
  Table base_sampled = *base_full;
  if (config_.sample_rows > 0 && base_full->num_rows() > config_.sample_rows) {
    obs::ScopedSpan span(tracer_, "discover.stratified_sample");
    AF_ASSIGN_OR_RETURN(
        base_sampled,
        StratifiedSample(*base_full, label_column, config_.sample_rows, &rng));
  }

  StreamingFeatureSelector selector(MakeSelectorOptions(config_));
  double fs_seconds = 0.0;
  // Left joins preserve the base rows in order, so every candidate's view
  // shares one label representation, prepared exactly once.
  std::vector<double> label_numeric;
  std::vector<int> label_codes;
  {
    obs::ScopedSpan span(tracer_, "discover.seed_base_features");
    Timer t;
    AF_ASSIGN_OR_RETURN(FeatureView base_view,
                        FeatureView::FromTable(base_sampled, label_column));
    selector.SeedWithBaseFeatures(base_view);
    label_numeric = base_view.label_numeric();
    label_codes = base_view.label_codes();
    fs_seconds += t.ElapsedSeconds();
  }
  obs::ScopedSpan bfs_span(tracer_, "discover.bfs");

  // BFS frontier of partial join paths, each carrying its (sampled) join
  // result so transitive joins extend the intermediate table (§IV-B).
  struct State {
    JoinPath path;
    Table table;
    double score = 0.0;
    std::vector<FeatureScore> selected;
  };
  std::deque<State> frontier;
  frontier.push_back(State{JoinPath{}, std::move(base_sampled), 0.0, {}});

  DiscoveryResult result;
  // Tables reached by any path so far (drives the beam's novelty order).
  std::vector<bool> node_visited(drg_->num_nodes(), false);
  node_visited[base_node] = true;
  // Signatures of (visited node set, terminal) used for path dedup.
  std::unordered_set<std::string> seen_signatures;
  auto signature = [&](const JoinPath& path) {
    std::vector<size_t> nodes;
    nodes.reserve(path.steps.size());
    for (const auto& s : path.steps) nodes.push_back(s.to_node);
    size_t terminal = nodes.empty() ? base_node : nodes.back();
    std::sort(nodes.begin(), nodes.end());
    std::string sig;
    for (size_t n : nodes) {
      sig += std::to_string(n);
      sig += ',';
    }
    sig += ':';
    sig += std::to_string(terminal);
    return sig;
  };

  // Eviction-schedule stress (qa/bench): between BFS rounds, drop cache
  // entries so later rounds exercise rebuild-on-miss. Runs on the
  // coordinating thread with a counter-derived draw, so the schedule is a
  // pure function of the seed — and the invariant that results do not
  // depend on it is checked by qa's cache.eviction_oblivious.
  uint64_t stress_round = 0;
  auto stress_evict = [&] {
    switch (config_.eviction_stress) {
      case EvictionStress::kNone:
        return;
      case EvictionStress::kEvictAll:
        join_cache_ptr_->EvictAll();
        return;
      case EvictionStress::kRandom:
        join_cache_ptr_->EvictRandomHalf(
            DeriveSeed(config_.seed, 0xE71C7ULL + stress_round++));
        return;
    }
  };

  while (!frontier.empty() && result.paths_explored < config_.max_paths) {
    obs::Record(m_frontier, frontier.size());
    obs::UpdateMax(m_frontier_peak, frontier.size());
    State state = std::move(frontier.front());
    frontier.pop_front();
    if (state.path.length() >= config_.max_hops) continue;
    size_t tail = state.path.Terminal(base_node);

    // Beam pruning: on dense discovered graphs expand only a bounded set
    // of neighbours per path — never-visited tables first (they are the
    // only way to reach new features), then by similarity. On KFK trees
    // every child is unvisited, so the beam changes nothing there.
    std::vector<size_t> neighbors = drg_->Neighbors(tail);
    if (config_.beam_width > 0 && neighbors.size() > config_.beam_width) {
      auto weight = [&](size_t node) {
        double best = 0.0;
        for (const auto& e : drg_->EdgesBetween(tail, node)) {
          best = std::max(best, e.weight);
        }
        return best;
      };
      std::stable_sort(neighbors.begin(), neighbors.end(),
                       [&](size_t a, size_t b) {
                         bool fresh_a = !node_visited[a];
                         bool fresh_b = !node_visited[b];
                         if (fresh_a != fresh_b) return fresh_a;
                         return weight(a) > weight(b);
                       });
      neighbors.resize(config_.beam_width);
    }

    // Phase 1 — collect this state's candidate edges. The gates here are
    // cheap but order-sensitive (dedup signatures, the max_paths budget), so
    // they run sequentially, in edge order.
    struct Candidate {
      JoinStep edge;
      size_t neighbor = 0;
      const Table* right = nullptr;
    };
    std::vector<Candidate> candidates;
    for (size_t neighbor : neighbors) {
      if (neighbor == base_node || state.path.ContainsNode(neighbor)) continue;
      auto table_result = lake_->GetTable(drg_->NodeName(neighbor));
      if (!table_result.ok()) continue;
      const Table* right = *table_result;
      // Candidate tables must not carry the label (left-join assumption of
      // §IV-B: Y only lives in the base table).
      if (right->HasColumn(label_column)) continue;

      // Similarity-score pruning keeps only the best join columns (§IV-C).
      std::vector<JoinStep> edges =
          config_.prune_join_columns ? drg_->BestEdgesBetween(tail, neighbor)
                                     : drg_->EdgesBetween(tail, neighbor);
      for (const JoinStep& edge : edges) {
        if (result.paths_explored >= config_.max_paths) break;
        // Never join on the target column: a label-valued join key leaks
        // the label into the appended features.
        if (edge.from_column == label_column) continue;
        if (config_.dedup_node_sets &&
            !seen_signatures.insert(signature(state.path.Extend(edge)))
                 .second) {
          continue;  // Same table set and terminal already explored.
        }
        ++result.paths_explored;

        if (!state.table.HasColumn(edge.from_column)) {
          ++result.paths_pruned_infeasible;
          obs::Increment(m_pruned_infeasible);
          continue;
        }
        candidates.push_back(Candidate{edge, neighbor, right});
      }
    }

    // Phase 2 — evaluate every candidate concurrently: join, completeness,
    // feature-view construction and the (stateless) relevance stage. Tasks
    // only read shared state; each writes its own Eval slot.
    //
    // The candidate is never materialised here: the cached key index yields
    // a left-row -> right-row mapping, and completeness + the relevance view
    // are computed through gathered views of only the appended columns.
    struct Eval {
      Status status;               // FeatureView failure, surfaced in order
      bool infeasible = false;     // join failed or matched no rows
      bool low_quality = false;    // completeness < tau
      std::vector<uint32_t> right_rows;    // composed row mapping
      std::vector<std::string> appended;   // resolved new names
      std::optional<FeatureView> view;
      std::vector<FeatureScore> relevant;
      double fs_seconds = 0.0;
    };
    obs::TaskContext bfs_ctx = obs::CaptureTaskContext(
        candidates.empty() ? nullptr : tracer_);
    std::vector<Eval> evals = ParallelMapWith<Eval>(
        SchedulerKind::kMorsel, pool_.get(), candidates.size(), /*grain=*/1,
        [&](size_t c) {
          obs::ScopedWorkerSpan task_span(bfs_ctx, "bfs.candidate");
          const Candidate& cand = candidates[c];
          Eval ev;
          auto index = join_cache_ptr_->GetOrBuild(
              drg_->NodeName(cand.neighbor), cand.edge.to_column);
          auto lkey = state.table.GetColumn(cand.edge.from_column);
          if (!index.ok() || !lkey.ok()) {
            ev.infeasible = true;
            return ev;
          }
          JoinRowMap map = MapLeftJoin(**lkey, **index);
          if (map.stats.matched_rows == 0) {
            ev.infeasible = true;
            return ev;
          }
          // Data-quality pruning straight through the mapping (§IV-C):
          // a null in an appended column is an unmatched left row or a
          // right-side null.
          ev.appended = ResolveAppendedNames(state.table, *cand.right);
          size_t cells = ev.appended.size() * map.right_rows.size();
          size_t nulls = 0;
          for (size_t col = 0; col < cand.right->num_columns(); ++col) {
            nulls += GatherNullCount(cand.right->column(col), map.right_rows);
          }
          double completeness =
              cells == 0 ? 1.0
                         : 1.0 - static_cast<double>(nulls) /
                                     static_cast<double>(cells);
          if (completeness < config_.tau) {
            ev.low_quality = true;
            return ev;
          }
          Timer t;
          std::vector<std::vector<double>> numeric;
          numeric.reserve(cand.right->num_columns());
          for (size_t col = 0; col < cand.right->num_columns(); ++col) {
            numeric.push_back(
                GatherNumeric(cand.right->column(col), map.right_rows));
          }
          auto view = FeatureView::FromColumns(
              ev.appended, std::move(numeric), label_numeric, label_codes);
          if (!view.ok()) {
            ev.status = view.status();
            return ev;
          }
          std::vector<size_t> all_indices(view->num_features());
          for (size_t i = 0; i < all_indices.size(); ++i) all_indices[i] = i;
          ev.relevant = selector.ScoreBatchRelevance(*view, all_indices);
          ev.fs_seconds = t.ElapsedSeconds();
          ev.view = std::move(*view);
          ev.right_rows = std::move(map.right_rows);
          return ev;
        });

    // Phase 3 — merge in candidate (edge) order. The redundancy stage
    // mutates R_sel, so it stays sequential here; because the merge order
    // equals the sequential evaluation order, the ranked output is identical.
    obs::Increment(m_candidates, candidates.size());
    for (size_t c = 0; c < candidates.size(); ++c) {
      Eval& ev = evals[c];
      if (!ev.status.ok()) return ev.status;
      if (ev.infeasible) {
        ++result.paths_pruned_infeasible;
        obs::Increment(m_pruned_infeasible);
        continue;
      }
      if (ev.low_quality) {
        ++result.paths_pruned_quality;
        obs::Increment(m_pruned_quality);
        continue;
      }
      obs::Increment(m_view_scored);
      fs_seconds += ev.fs_seconds;
      Timer t;
      StreamingFeatureSelector::BatchResult batch =
          selector.CommitBatch(*ev.view, std::move(ev.relevant));
      fs_seconds += t.ElapsedSeconds();

      State next;
      next.path = state.path.Extend(candidates[c].edge);
      next.score =
          state.score + ComputeRankingScore(batch.relevant, batch.selected);
      next.selected = state.selected;
      next.selected.insert(next.selected.end(), batch.selected.begin(),
                           batch.selected.end());
      // Paths whose batch was all-irrelevant or all-redundant are not
      // ranked but stay in the frontier: they may be the gateway to
      // relevant multi-hop features (§V-A).
      if (!batch.selected.empty()) {
        result.ranked.push_back(
            RankedPath{next.path, next.score, next.selected});
        obs::Increment(m_ranked);
      } else {
        obs::Increment(m_pruned_redundant);
      }
      node_visited[candidates[c].neighbor] = true;
      // Leaf states (at the hop limit) can never expand; skip carrying
      // their join result into the frontier. Late materialisation: this is
      // the only place a candidate's join becomes a real Table — pruned
      // candidates and hop-limit leaves never pay for one.
      if (next.path.length() < config_.max_hops) {
        obs::Increment(m_materialised);
        next.table = state.table;
        AF_RETURN_NOT_OK(AppendGatheredColumns(*candidates[c].right,
                                               ev.right_rows, ev.appended,
                                               &next.table));
        frontier.push_back(std::move(next));
      }
    }
    stress_evict();
  }

  // Descending score; stable keeps BFS (shortest-first) order for ties.
  std::stable_sort(result.ranked.begin(), result.ranked.end(),
                   [](const RankedPath& a, const RankedPath& b) {
                     return a.score > b.score;
                   });
  result.feature_selection_seconds = fs_seconds;
  result.total_seconds = total_timer.ElapsedSeconds();
  return result;
}

Result<Table> AutoFeat::MaterializeAugmentedTable(
    const std::string& base_table, const RankedPath& ranked,
    const std::string& label_column) {
  AF_ASSIGN_OR_RETURN(const Table* base, lake_->GetTable(base_table));
  if (!base->HasColumn(label_column)) {
    return Status::KeyError("label column '" + label_column +
                            "' missing from base table " + base_table);
  }
  Table current = *base;
  for (const JoinStep& step : ranked.path.steps) {
    const std::string& right_name = drg_->NodeName(step.to_node);
    AF_ASSIGN_OR_RETURN(const Table* right, lake_->GetTable(right_name));
    if (!current.HasColumn(step.from_column)) {
      return Status::KeyError("join column vanished during materialisation: " +
                              step.from_column);
    }
    // The shared cache means the full-data materialisation picks the same
    // per-key representatives the discovery phase scored (rebuilds after
    // eviction reproduce them exactly).
    AF_ASSIGN_OR_RETURN(JoinIndexCache::IndexPin index,
                        join_cache_ptr_->GetOrBuild(right_name, step.to_column));
    AF_ASSIGN_OR_RETURN(
        JoinResult joined,
        LeftJoinWithIndex(current, step.from_column, *right, *index));
    current = std::move(joined.table);
  }

  // Keep base columns (including the label) plus the selected features.
  std::vector<std::string> keep = base->ColumnNames();
  std::unordered_set<std::string> seen(keep.begin(), keep.end());
  for (const auto& fs : ranked.selected_features) {
    if (seen.insert(fs.name).second && current.HasColumn(fs.name)) {
      keep.push_back(fs.name);
    }
  }
  AF_ASSIGN_OR_RETURN(Table augmented, current.SelectColumns(keep));
  augmented.set_name(base->name() + "_augmented");
  return augmented;
}

Result<AugmentationResult> AutoFeat::Augment(const std::string& base_table,
                                             const std::string& label_column,
                                             ml::ModelKind model) {
  Timer total_timer;
  obs::ScopedSpan augment_span(tracer_, "augment");
  AugmentationResult out;
  AF_ASSIGN_OR_RETURN(out.discovery,
                      DiscoverFeatures(base_table, label_column));
  obs::ScopedSpan eval_span(tracer_, "augment.evaluate");

  ml::TrainerOptions trainer_options;
  trainer_options.seed = config_.seed;

  AF_ASSIGN_OR_RETURN(const Table* base, lake_->GetTable(base_table));
  size_t k = std::min(config_.top_k_paths, out.discovery.ranked.size());
  obs::Increment(obs::GetCounter(metrics_, "evaluation.paths_evaluated"), k);
  obs::Increment(obs::GetCounter(metrics_, "evaluation.models_trained"),
                 k + 1);

  // Task 0 trains on the bare base table (the fallback when no rankable
  // path exists); task i > 0 materialises and trains ranked path i-1. The
  // tasks share nothing mutable — every one builds its own tables and seeds
  // its own generators — so they run concurrently and merge in index order.
  struct PathEval {
    Status status;
    Table table;
    double accuracy = 0.0;
  };
  obs::TaskContext eval_ctx = obs::CaptureTaskContext(tracer_);
  std::vector<PathEval> evals = ParallelMapWith<PathEval>(
      SchedulerKind::kMorsel, pool_.get(), k + 1, /*grain=*/1, [&](size_t i) {
        obs::ScopedWorkerSpan task_span(eval_ctx, "evaluate.path");
        PathEval ev;
        if (i == 0) {
          auto eval =
              ml::TrainAndEvaluate(*base, label_column, model,
                                   trainer_options);
          if (!eval.ok()) {
            ev.status = eval.status();
            return ev;
          }
          ev.table = *base;
          ev.accuracy = eval->accuracy;
          return ev;
        }
        auto augmented = MaterializeAugmentedTable(
            base_table, out.discovery.ranked[i - 1], label_column);
        if (!augmented.ok()) {
          ev.status = augmented.status();
          return ev;
        }
        auto eval = ml::TrainAndEvaluate(*augmented, label_column, model,
                                         trainer_options);
        if (!eval.ok()) {
          ev.status = eval.status();
          return ev;
        }
        ev.table = std::move(*augmented);
        ev.accuracy = eval->accuracy;
        return ev;
      });

  for (const PathEval& ev : evals) {
    if (!ev.status.ok()) return ev.status;
  }
  out.augmented = std::move(evals[0].table);
  out.accuracy = evals[0].accuracy;
  for (size_t i = 1; i < evals.size(); ++i) {
    if (evals[i].accuracy > out.accuracy) {
      out.accuracy = evals[i].accuracy;
      out.augmented = std::move(evals[i].table);
      out.best_path = out.discovery.ranked[i - 1];
    }
  }
  out.total_seconds = total_timer.ElapsedSeconds();
  return out;
}

}  // namespace autofeat
