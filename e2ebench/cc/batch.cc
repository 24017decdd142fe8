// Batch workloads: one closed-loop client calls AutoFeat::Augment over the
// eight Table II lakes in a fixed order.
//
//  * kfk_registry: registry-size lakes, DRG from the KFK constraints (the
//    paper's benchmark setting, §VII-B). ML evaluation dominates.
//  * lake_discovered: quick-cap lakes, DRG discovered all-pairs during
//    set-up (the data-lake setting, §VII-C). BFS discovery dominates.
//
// Every call runs on a fresh engine (4 workers, LightGBM, sample_rows 1000,
// max_paths 600), so calls are independent and equally cold. The timed
// loop runs whole passes over the lakes until --seconds have elapsed.

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/autofeat.h"
#include "discovery/data_lake.h"
#include "lakes.h"
#include "ml/classifier.h"
#include "ml/dataset.h"
#include "ml/metrics.h"
#include "ml/trainer.h"
#include "obs/memory.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "qa/invariants.h"
#include "relational/sampling.h"
#include "rollup.h"
#include "util/rng.h"
#include "util/scheduler.h"
#include "util/thread_pool.h"
#include "util/timer.h"
#include "workloads.h"

namespace e2ebench {
namespace {

using autofeat::AugmentationResult;
using autofeat::AutoFeat;
using autofeat::AutoFeatConfig;
using autofeat::DataLake;
using autofeat::DatasetRelationGraph;
using autofeat::DiscoveryResult;
using autofeat::Result;
using autofeat::Table;
using autofeat::ThreadPool;
using autofeat::Timer;
namespace ml = autofeat::ml;
namespace obs = autofeat::obs;

constexpr ml::ModelKind kModel = ml::ModelKind::kLightGbm;
constexpr uint64_t kEngineSeed = 42;

AutoFeatConfig EngineConfig(size_t threads) {
  AutoFeatConfig config;
  config.num_threads = threads;
  config.sample_rows = 1000;
  config.max_paths = 600;
  config.seed = kEngineSeed;
  return config;
}

ml::TrainerOptions TrainerConfig() {
  ml::TrainerOptions options;
  options.seed = kEngineSeed;
  return options;
}

struct Lake {
  const LakeOnDisk* disk = nullptr;
  DataLake lake;
  DatasetRelationGraph drg;
};

struct SetupTimes {
  double total = 0.0;
  double load = 0.0;
  double build = 0.0;
};

// One measured set-up: load every lake from its files, then build its DRG.
SetupTimes SetUp(const std::vector<LakeOnDisk>& disks, bool discovered,
                 ThreadPool* pool, obs::MetricsRegistry* metrics,
                 obs::Tracer* tracer, std::vector<Lake>* lakes) {
  lakes->clear();
  lakes->resize(disks.size());
  SetupTimes times;
  Timer total;
  obs::ScopedSpan root(tracer, "setup");
  for (size_t i = 0; i < disks.size(); ++i) {
    Lake& l = (*lakes)[i];
    l.disk = &disks[i];
    {
      obs::ScopedSpan span(tracer, "table.load");
      Timer timer;
      l.lake = LoadLake(disks[i]).ValueOrDie();
      times.load += timer.ElapsedSeconds();
    }
    obs::ScopedSpan span(tracer, "discovery.drg_build");
    Timer timer;
    l.drg = discovered ? autofeat::BuildDrgByDiscovery(
                             l.lake, autofeat::MatchOptions{}, pool, metrics)
                             .ValueOrDie()
                       : autofeat::BuildDrgFromKfk(l.lake, metrics)
                             .ValueOrDie();
    times.build += timer.ElapsedSeconds();
  }
  times.total = total.ElapsedSeconds();
  return times;
}

Result<AugmentationResult> AugmentOnce(const Lake& l,
                                       const AutoFeatConfig& config) {
  AutoFeat engine(&l.lake, &l.drg, config);
  return engine.Augment(l.disk->base_table, l.disk->label_column, kModel);
}

// The first result of each lake; every later call must reproduce it.
struct Reference {
  double accuracy = 0.0;
  std::string fingerprint;
  Table table;
  size_t paths_explored = 0;
};

class Oracle {
 public:
  explicit Oracle(size_t lakes) : refs_(lakes) {}

  void Check(size_t i, const Lake& l, AugmentationResult result,
             Report* report) {
    std::string fingerprint = autofeat::qa::DiscoveryFingerprint(
        result.discovery);
    if (!refs_[i]) {
      refs_[i] = Reference{result.accuracy, std::move(fingerprint),
                           std::move(result.augmented),
                           result.discovery.paths_explored};
    } else if (fingerprint != refs_[i]->fingerprint ||
               result.accuracy != refs_[i]->accuracy) {
      report->Fail(l.disk->name + ": Augment result differs between calls");
    }
  }

  std::optional<double> accuracy(size_t i) const {
    if (!refs_[i]) return std::nullopt;
    return refs_[i]->accuracy;
  }

  size_t paths_explored(size_t i) const {
    return refs_[i] ? refs_[i]->paths_explored : 0;
  }

  double MeanAccuracy() const {
    std::vector<double> values;
    for (const auto& ref : refs_) {
      if (ref) values.push_back(ref->accuracy);
    }
    return Mean(values);
  }

  // Outside the timed loop: the parallel discovery equals the sequential
  // one, and each reported accuracy equals a fresh TrainAndEvaluate on the
  // returned table.
  void Finish(const std::vector<Lake>& lakes, Report* report) const {
    for (size_t i = 0; i < lakes.size(); ++i) {
      if (!refs_[i]) continue;
      const Lake& l = lakes[i];
      AutoFeat sequential(&l.lake, &l.drg, EngineConfig(1));
      auto discovery = sequential.DiscoverFeatures(l.disk->base_table,
                                                   l.disk->label_column);
      if (!discovery.ok() || autofeat::qa::DiscoveryFingerprint(*discovery) !=
                                 refs_[i]->fingerprint) {
        report->CheckFailed(l.disk->name +
                            ": discovery at num_threads=4 differs from "
                            "num_threads=1");
      }
      auto eval = ml::TrainAndEvaluate(refs_[i]->table, l.disk->label_column,
                                       kModel, TrainerConfig());
      if (!eval.ok() || eval->accuracy != refs_[i]->accuracy) {
        report->CheckFailed(l.disk->name +
                            ": reported accuracy differs from "
                            "TrainAndEvaluate on the returned table");
      }
    }
  }

 private:
  std::vector<std::optional<Reference>> refs_;
};

// Planted-slowdown self-check: before each timed call, one extra call of
// the same size into one layer. "core" runs DiscoverFeatures on a fresh
// engine; "ml" runs the call's k+1 TrainAndEvaluate calls (tables prepared
// before timing) on a 4-worker pool, as Augment does.
class Plant {
 public:
  Plant(const std::string& layer, const std::vector<Lake>& lakes,
        ThreadPool* pool)
      : layer_(layer), pool_(pool), tables_(lakes.size()) {
    if (layer_ != "ml") return;
    for (size_t i = 0; i < lakes.size(); ++i) {
      const Lake& l = lakes[i];
      AutoFeat engine(&l.lake, &l.drg, EngineConfig(kThreads));
      auto discovery = engine.DiscoverFeatures(l.disk->base_table,
                                               l.disk->label_column);
      tables_[i].push_back(*l.lake.GetTable(l.disk->base_table).ValueOrDie());
      const size_t k = std::min(EngineConfig(kThreads).top_k_paths,
                                discovery->ranked.size());
      for (size_t p = 0; p < k; ++p) {
        tables_[i].push_back(engine
                                 .MaterializeAugmentedTable(
                                     l.disk->base_table, discovery->ranked[p],
                                     l.disk->label_column)
                                 .ValueOrDie());
      }
    }
  }

  void Before(const Lake& l, size_t i) const {
    if (layer_ == "core") {
      AutoFeat extra(&l.lake, &l.drg, EngineConfig(kThreads));
      extra.DiscoverFeatures(l.disk->base_table, l.disk->label_column)
          .status()
          .Abort("planted discovery");
    } else if (layer_ == "ml") {
      autofeat::ParallelMapWith<int>(
          autofeat::SchedulerKind::kMorsel, pool_, tables_[i].size(), 1,
          [&](size_t t) {
            ml::TrainAndEvaluate(tables_[i][t], l.disk->label_column, kModel,
                                 TrainerConfig())
                .status()
                .Abort("planted evaluation");
            return 0;
          });
    }
  }

 private:
  std::string layer_;
  ThreadPool* pool_;
  std::vector<std::vector<Table>> tables_;
};

// Time and work the replays accumulate over a traced run.
struct ReplayTotals {
  size_t calls = 0;
  double discover_s = 0.0;
  double select_s = 0.0;
  size_t paths_explored = 0;
  size_t paths_pruned = 0;
  size_t paths_ranked = 0;
  size_t materializations = 0;
  double materialize_s = 0.0;
  double materialize_cells = 0.0;
  double split_rows = 0.0;
  size_t models = 0;
  double encode_s = 0.0;
  double fit_s = 0.0;
  double predict_s = 0.0;
  double encode_cells = 0.0;
  double fit_cells = 0.0;
  double predict_rows = 0.0;
};

// Replays one Augment call as its public parts, each under a span of the
// benchmark's tracer: DiscoverFeatures, then for each of the k+1 tasks
// MaterializeAugmentedTable -> TrainTestSplit -> Dataset::FromTable ->
// Fit -> PredictProbaAll (the steps of ml::TrainAndEvaluate), one task
// after another. Returns the best accuracy, which must equal Augment's.
Result<double> Replay(const Lake& l, obs::Tracer* tracer,
                      ReplayTotals* totals) {
  const std::string& base_name = l.disk->base_table;
  const std::string& label = l.disk->label_column;
  obs::ScopedSpan root(tracer, "augment");
  AutoFeat engine(&l.lake, &l.drg, EngineConfig(kThreads));

  auto discovery = [&] {
    obs::ScopedSpan s(tracer, "core.discover");
    Timer timer;
    Result<DiscoveryResult> d = engine.DiscoverFeatures(base_name, label);
    totals->discover_s += timer.ElapsedSeconds();
    return d;
  }();
  if (!discovery.ok()) return discovery.status();
  totals->select_s += discovery->feature_selection_seconds;
  totals->paths_explored += discovery->paths_explored;
  totals->paths_pruned +=
      discovery->paths_pruned_infeasible + discovery->paths_pruned_quality;
  totals->paths_ranked += discovery->ranked.size();
  ++totals->calls;

  AF_ASSIGN_OR_RETURN(const Table* base, l.lake.GetTable(base_name));
  const size_t k =
      std::min(EngineConfig(kThreads).top_k_paths, discovery->ranked.size());
  double best = 0.0;
  for (size_t i = 0; i <= k; ++i) {
    Table materialized;
    const Table* table = base;
    if (i > 0) {
      obs::ScopedSpan s(tracer, "relational.materialize");
      Timer timer;
      AF_ASSIGN_OR_RETURN(materialized,
                          engine.MaterializeAugmentedTable(
                              base_name, discovery->ranked[i - 1], label));
      totals->materialize_s += timer.ElapsedSeconds();
      ++totals->materializations;
      totals->materialize_cells += static_cast<double>(
          materialized.num_rows() * materialized.num_columns());
      table = &materialized;
    }
    autofeat::TrainTestIndices split;
    {
      obs::ScopedSpan s(tracer, "relational.split");
      autofeat::Rng rng(kEngineSeed);
      AF_ASSIGN_OR_RETURN(split, autofeat::TrainTestSplit(
                                     *table, TrainerConfig().test_fraction,
                                     label, &rng));
      totals->split_rows += static_cast<double>(table->num_rows());
    }
    ml::Dataset train;
    ml::Dataset test;
    {
      obs::ScopedSpan s(tracer, "ml.encode");
      Timer timer;
      AF_ASSIGN_OR_RETURN(ml::Dataset full, ml::Dataset::FromTable(*table, label));
      train = full.TakeRows(split.train);
      test = full.TakeRows(split.test);
      totals->encode_s += timer.ElapsedSeconds();
      totals->encode_cells +=
          static_cast<double>(full.num_rows() * full.num_features());
    }
    std::unique_ptr<ml::Classifier> model;
    {
      obs::ScopedSpan s(tracer, "ml.fit");
      Timer timer;
      model = ml::MakeClassifier(kModel, kEngineSeed);
      AF_RETURN_NOT_OK(model->Fit(train));
      totals->fit_s += timer.ElapsedSeconds();
      totals->fit_cells +=
          static_cast<double>(train.num_rows() * train.num_features());
    }
    {
      obs::ScopedSpan s(tracer, "ml.predict");
      Timer timer;
      std::vector<double> probabilities = model->PredictProbaAll(test);
      const double accuracy = ml::Accuracy(test.labels(), probabilities);
      if (i == 0 || accuracy > best) best = accuracy;
      totals->predict_s += timer.ElapsedSeconds();
      totals->predict_rows += static_cast<double>(test.num_rows());
    }
    ++totals->models;
  }
  return best;
}

void RunTimed(const Options& options, bool discovered,
              const std::vector<LakeOnDisk>& disks, ThreadPool* pool,
              Report* report) {
  std::vector<Lake> lakes;
  std::vector<double> setups;
  for (Timer t; MoreSetups(setups.size(), t.ElapsedSeconds());) {
    setups.push_back(
        SetUp(disks, discovered, pool, nullptr, nullptr, &lakes).total);
  }
  const Plant plant(options.plant, lakes, pool);
  Oracle oracle(lakes.size());
  std::vector<double> latency_ms;
  std::vector<std::vector<double>> per_lake_ms(lakes.size());
  size_t passes = 0;
  Timer wall;
  do {
    for (size_t i = 0; i < lakes.size(); ++i) {
      report->Attempted();
      Timer timer;
      plant.Before(lakes[i], i);
      auto result = AugmentOnce(lakes[i], EngineConfig(kThreads));
      const double ms = timer.ElapsedMillis();
      if (!result.ok()) {
        report->Fail(lakes[i].disk->name + ": " + result.status().ToString());
        continue;
      }
      latency_ms.push_back(ms);
      per_lake_ms[i].push_back(ms);
      oracle.Check(i, lakes[i], std::move(*result), report);
    }
    ++passes;
  } while (wall.ElapsedSeconds() < options.seconds);
  const double wall_s = wall.ElapsedSeconds();
  oracle.Finish(lakes, report);

  std::printf("%zu passes, %zu Augment calls in %.2f s\n", passes,
              latency_ms.size(), wall_s);
  std::printf("  %-12s %7s %9s %12s %10s\n", "lake", "tables", "drg_edges",
              "paths/call", "p50_ms");
  for (size_t i = 0; i < lakes.size(); ++i) {
    std::printf("  %-12s %7zu %9zu %12zu %10.1f\n",
                lakes[i].disk->name.c_str(), lakes[i].lake.num_tables(),
                lakes[i].drg.num_edges(), oracle.paths_explored(i),
                Median(per_lake_ms[i]));
  }
  report->Set("setup_s", Median(setups));
  report->Set("ops_per_s", static_cast<double>(latency_ms.size()) / wall_s);
  report->Set("op_ms_p50", Median(latency_ms));
  report->SetTail("op_ms_tail", latency_ms);
  report->Set("accuracy_mean", oracle.MeanAccuracy());
}

void RunTraced(const Options& options, bool discovered,
               const std::vector<LakeOnDisk>& disks, ThreadPool* pool,
               Report* report) {
  obs::Tracer tracer;
  obs::MetricsRegistry setup_metrics;
  obs::MetricsRegistry engine_metrics;
  std::vector<Lake> lakes;
  const SetupTimes setup =
      SetUp(disks, discovered, pool, &setup_metrics, &tracer, &lakes);

  Oracle oracle(lakes.size());
  ReplayTotals totals;
  double untraced_s = 0.0;
  double traced_s = 0.0;
  size_t cycles = 0;
  Timer wall;
  do {
    for (size_t i = 0; i < lakes.size(); ++i) {
      const Lake& l = lakes[i];
      report->Attempted(3);
      Timer untraced;
      auto plain = AugmentOnce(l, EngineConfig(kThreads));
      untraced_s += untraced.ElapsedSeconds();
      AutoFeatConfig config = EngineConfig(kThreads);
      config.metrics_enabled = true;
      config.metrics = &engine_metrics;
      Timer traced;
      auto instrumented = AugmentOnce(l, config);
      traced_s += traced.ElapsedSeconds();
      auto replayed = Replay(l, &tracer, &totals);
      if (!plain.ok() || !instrumented.ok() || !replayed.ok()) {
        report->Fail(l.disk->name + ": a traced call failed");
        continue;
      }
      oracle.Check(i, l, std::move(*plain), report);
      oracle.Check(i, l, std::move(*instrumented), report);
      if (*replayed != oracle.accuracy(i)) {
        report->Fail(l.disk->name +
                     ": replayed best accuracy differs from Augment's");
      }
    }
    ++cycles;
  } while (wall.ElapsedSeconds() < options.seconds);
  oracle.Finish(lakes, report);

  uint64_t bytes = 0;
  for (const LakeOnDisk& d : disks) bytes += d.bytes;
  const double pairs = static_cast<double>(
      setup_metrics.CounterValue("drg.pairs_scored"));
  // Counts per Augment call: the engine registry saw one instrumented call
  // per lake per cycle.
  const double engine_calls = static_cast<double>(cycles * lakes.size());
  const double paths = static_cast<double>(totals.paths_explored);

  std::map<std::string, Work> work = {
      {"table.load", {static_cast<double>(bytes), "byte"}},
      {"discovery.drg_build", {pairs, "pair"}},
      {"core.discover", {paths, "path"}},
      {"relational.materialize", {totals.materialize_cells, "cell"}},
      {"relational.split", {totals.split_rows, "row"}},
      {"ml.encode", {totals.encode_cells, "cell"}},
      {"ml.fit", {totals.fit_cells, "cell"}},
      {"ml.predict", {totals.predict_rows, "row"}},
  };
  const auto spans = tracer.Snapshot();
  const Rollup setup_rollup = RollUp(spans, {"setup"}, work);
  const Rollup op_rollup = RollUp(spans, {"augment"}, work);
  PrintRollup(setup_rollup, options.workload + " set-up");
  PrintRollup(op_rollup, options.workload + " Augment (replayed)");
  if (!WriteRollupArtifacts(tracer, {setup_rollup, op_rollup},
                            {"setup", "augment"}, options.out_dir,
                            options.workload)) {
    report->CheckFailed("cannot write the rollup artifacts");
  }

  report->Set("table.load_ms", setup.load * 1e3);
  report->Set("table.load_mb_per_s",
              Ratio(static_cast<double>(bytes) / (1 << 20), setup.load));
  report->Set("discovery.drg_build_ms", setup.build * 1e3);
  report->Set("discovery.pairs_scored", pairs);
  report->Set("discovery.ns_per_pair_scored", Ratio(setup.build * 1e9, pairs));
  report->Set("discovery.match_yield",
              Ratio(static_cast<double>(
                        setup_metrics.CounterValue("drg.pairs_matched")),
                    pairs));
  report->Set("discovery.sketch_builds",
              static_cast<double>(
                  setup_metrics.CounterValue("sketch_cache.builds")));

  const double calls = static_cast<double>(totals.calls);
  report->Set("core.discover_ms", Ratio(totals.discover_s * 1e3, calls));
  report->Set("core.paths_explored", Ratio(paths, calls));
  report->Set("core.us_per_path", Ratio(totals.discover_s * 1e6, paths));
  report->Set("core.prune_share",
              Ratio(static_cast<double>(totals.paths_pruned), paths));
  report->Set("core.ranked_share",
              Ratio(static_cast<double>(totals.paths_ranked), paths));
  report->Set("fs.select_ms", Ratio(totals.select_s * 1e3, calls));
  report->Set("relational.materialize_ms",
              Ratio(totals.materialize_s * 1e3,
                    static_cast<double>(totals.materializations)));
  report->Set("relational.join_cache_hit_share",
              Ratio(static_cast<double>(
                        engine_metrics.CounterValue("join_index_cache.hits")),
                    static_cast<double>(engine_metrics.CounterValue(
                        "join_index_cache.requests"))));
  report->Set("relational.join_index_builds",
              Ratio(static_cast<double>(engine_metrics.CounterValue(
                        "join_index_cache.builds")),
                    engine_calls));
  const double models = static_cast<double>(totals.models);
  report->Set("ml.encode_ms", Ratio(totals.encode_s * 1e3, models));
  report->Set("ml.fit_ms", Ratio(totals.fit_s * 1e3, models));
  report->Set("ml.predict_ms", Ratio(totals.predict_s * 1e3, models));
  report->Set("ml.models_trained",
              Ratio(static_cast<double>(engine_metrics.CounterValue(
                        "evaluation.models_trained")),
                    engine_calls));
  report->Set("ml.fit_ns_per_cell", Ratio(totals.fit_s * 1e9, totals.fit_cells));
  report->Set("util.morsel_steal_share",
              Ratio(static_cast<double>(engine_metrics.CounterValue(
                        "thread_pool.morsel.steals")),
                    static_cast<double>(engine_metrics.CounterValue(
                        "thread_pool.morsel.executed"))));
  report->Set("trace.overhead_share", Ratio(traced_s, untraced_s) - 1.0);
  report->Set("trace.unattributed_share", op_rollup.UnattributedShare());
  for (const char* module : {"core", "relational", "ml"}) {
    report->Set(std::string(module) + ".self_share",
                op_rollup.ModuleShare(module));
  }
}

}  // namespace

void RunBatch(const Options& options, bool discovered, Report* report) {
  const std::vector<LakeOnDisk> disks =
      WritePaperLakes(/*quick_caps=*/discovered, options.seed,
                      options.work_dir);
  ThreadPool pool(kThreads);
  if (options.trace) {
    RunTraced(options, discovered, disks, &pool, report);
  } else {
    RunTimed(options, discovered, disks, &pool, report);
    report->Set("peak_rss_mb",
                static_cast<double>(obs::ProcessPeakRssBytes()) / (1 << 20));
  }
}

}  // namespace e2ebench
