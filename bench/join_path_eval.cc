// Join-path timing harness (not a paper figure).
//
// Times the full AutoFeat search over the synthetic lake at one thread
// (KeyDictionary + JoinIndexCache + factorized scoring) and splits it into
// candidate-edge evaluation (total discovery time minus the
// feature-selection share) and feature selection. A micro section is the
// calibration: one base->satellite join through the string-keyed oracle
// (JoinStringKeyed), the interned Join, and a prebuilt index's row mapping
// alone; the mapped vs string-keyed ratio is the join speed-up. Emits
// BENCH_join_path.json so the perf trajectory is tracked across changes.

#include <cstdio>
#include <memory>

#include "harness.h"
#include "core/autofeat.h"
#include "obs/memory.h"
#include "obs/metrics.h"
#include "relational/join.h"
#include "relational/join_index.h"
#include "util/timer.h"

namespace autofeat::benchx {
namespace {

struct DiscoverRun {
  double total_seconds = 0.0;
  double fs_seconds = 0.0;
  double candidate_eval_seconds = 0.0;  // total - fs
  size_t paths_explored = 0;
  size_t ranked = 0;
};

Result<DiscoverRun> RunDiscovery(const datagen::BuiltLake& built,
                                 const DatasetRelationGraph& drg) {
  AutoFeatConfig config;
  config.num_threads = 1;
  config.sample_rows = FullMode() ? 2000 : 1000;
  config.max_paths = FullMode() ? 2000 : 600;
  AutoFeat engine(&built.lake, &drg, config);

  DiscoverRun run;
  Timer timer;
  AF_ASSIGN_OR_RETURN(
      DiscoveryResult discovery,
      engine.DiscoverFeatures(built.base_table, built.label_column));
  run.total_seconds = timer.ElapsedSeconds();
  run.fs_seconds = discovery.feature_selection_seconds;
  run.candidate_eval_seconds = run.total_seconds - run.fs_seconds;
  run.paths_explored = discovery.paths_explored;
  run.ranked = discovery.ranked.size();
  return run;
}

// Untimed instrumented rerun of the discovery: its counters, memory gauges
// and trace ride along in BENCH_join_path.json / TRACE_join_path.json
// without perturbing the timed (metrics-disabled) run above.
struct Instrumented {
  std::unique_ptr<obs::MetricsRegistry> metrics;
  std::unique_ptr<obs::Tracer> tracer;
};

Result<Instrumented> InstrumentedDiscovery(const datagen::BuiltLake& built,
                                           const DatasetRelationGraph& drg) {
  Instrumented inst;
  inst.metrics = std::make_unique<obs::MetricsRegistry>();
  inst.tracer = std::make_unique<obs::Tracer>();
  AutoFeatConfig config;
  config.num_threads = 1;
  config.sample_rows = FullMode() ? 2000 : 1000;
  config.max_paths = FullMode() ? 2000 : 600;
  config.metrics_enabled = true;
  config.metrics = inst.metrics.get();
  config.tracer = inst.tracer.get();
  AutoFeat engine(&built.lake, &drg, config);
  AF_RETURN_NOT_OK(
      engine.DiscoverFeatures(built.base_table, built.label_column).status());
  obs::RecordProcessPeakRss(inst.metrics.get());
  return inst;
}

struct MicroJoin {
  double string_keyed_seconds = 0.0;
  double interned_seconds = 0.0;
  double mapped_seconds = 0.0;  // prebuilt index + row mapping only
};

// Repeatedly joins the base table against its first DRG neighbour through
// each kernel. The mapped variant is the steady-state cost discovery pays
// per candidate once the cache owns the index.
Result<MicroJoin> RunMicroJoins(const datagen::BuiltLake& built,
                                const DatasetRelationGraph& drg,
                                size_t reps) {
  AF_ASSIGN_OR_RETURN(const Table* base, built.lake.GetTable(built.base_table));
  AF_ASSIGN_OR_RETURN(size_t base_node, drg.NodeId(built.base_table));

  const Table* right = nullptr;
  JoinStep edge;
  for (size_t neighbor : drg.Neighbors(base_node)) {
    std::vector<JoinStep> edges = drg.BestEdgesBetween(base_node, neighbor);
    if (edges.empty()) continue;
    auto r = built.lake.GetTable(drg.NodeName(neighbor));
    if (!r.ok()) continue;
    if (!base->HasColumn(edges.front().from_column)) continue;
    right = *r;
    edge = edges.front();
    break;
  }
  if (right == nullptr) {
    return Status::InvalidArgument("no joinable neighbour for micro bench");
  }

  MicroJoin micro;
  {
    Timer t;
    for (size_t i = 0; i < reps; ++i) {
      Rng rng(42);
      AF_RETURN_NOT_OK(JoinStringKeyed(*base, edge.from_column, *right,
                                       edge.to_column, &rng)
                           .status());
    }
    micro.string_keyed_seconds = t.ElapsedSeconds();
  }
  {
    Timer t;
    for (size_t i = 0; i < reps; ++i) {
      Rng rng(42);
      AF_RETURN_NOT_OK(
          Join(*base, edge.from_column, *right, edge.to_column, &rng)
              .status());
    }
    micro.interned_seconds = t.ElapsedSeconds();
  }
  {
    AF_ASSIGN_OR_RETURN(const Column* rkey, right->GetColumn(edge.to_column));
    JoinKeyIndex index = BuildJoinKeyIndex(*rkey, 42);
    AF_ASSIGN_OR_RETURN(const Column* lkey, base->GetColumn(edge.from_column));
    Timer t;
    size_t matched = 0;
    for (size_t i = 0; i < reps; ++i) {
      JoinRowMap map = MapLeftJoin(*lkey, index);
      matched += map.stats.matched_rows;
    }
    micro.mapped_seconds = t.ElapsedSeconds();
    if (matched == 0) std::printf("note: micro join matched no rows\n");
  }
  return micro;
}

}  // namespace
}  // namespace autofeat::benchx

int main() {
  using namespace autofeat;
  using namespace autofeat::benchx;

  PrintModeBanner("join_path_eval");

  auto spec = ScaledSpec(*datagen::FindDataset("credit"));
  auto built = datagen::BuildPaperLake(spec, 1);
  MatchOptions match;
  match.threshold = 0.55;
  auto drg = BuildDrgByDiscovery(built.lake, match);
  drg.status().Abort("drg discovery");

  auto discovery = RunDiscovery(built, *drg);
  discovery.status().Abort("discovery");
  std::printf("paths explored: %zu | ranked: %zu\n\n",
              discovery->paths_explored, discovery->ranked);
  std::printf("%-24s %12s\n", "phase", "seconds");
  PrintRule(60);
  std::printf("%-24s %12.3f\n", "discover_total", discovery->total_seconds);
  std::printf("%-24s %12.3f\n", "candidate_eval",
              discovery->candidate_eval_seconds);
  std::printf("%-24s %12.3f\n", "feature_selection", discovery->fs_seconds);

  size_t reps = FullMode() ? 200 : 50;
  auto micro = RunMicroJoins(built, *drg, reps);
  micro.status().Abort("micro joins");
  std::printf("\nmicro: %zu repeated base->satellite joins\n", reps);
  std::printf("%-24s %12s %8s\n", "kernel", "seconds", "speedup");
  PrintRule(60);
  auto row = [&](const char* kernel, double seconds) {
    std::printf("%-24s %12.3f %7.2fx\n", kernel, seconds,
                seconds > 0 ? micro->string_keyed_seconds / seconds : 0.0);
  };
  row("join_string_keyed", micro->string_keyed_seconds);
  row("join_interned", micro->interned_seconds);
  row("join_mapped_cached", micro->mapped_seconds);
  std::printf("\nmapped vs string-keyed join speedup: %.2fx\n",
              micro->mapped_seconds > 0
                  ? micro->string_keyed_seconds / micro->mapped_seconds
                  : 0.0);

  auto instrumented = InstrumentedDiscovery(built, *drg);
  instrumented.status().Abort("instrumented discovery");

  WriteBenchJson(
      "join_path",
      {{"discover_total_fast", 1, discovery->total_seconds},
       {"candidate_eval_fast", 1, discovery->candidate_eval_seconds},
       {"micro_join_string_keyed", 1, micro->string_keyed_seconds},
       {"micro_join_interned", 1, micro->interned_seconds},
       {"micro_join_mapped_cached", 1, micro->mapped_seconds}},
      instrumented->metrics.get());
  WriteBenchTrace("join_path", *instrumented->tracer);
  return 0;
}
