// serve_mutating: a long-lived serve::LakeService (LSH candidate mode) over
// steel (quick caps) padded with 200 pod tables. Three reader threads call
// Discover(base, label) back to back (per-query num_threads=1) while the
// main thread applies a rotating add/append/drop to pod tables. Both sides
// are closed loops; the add/drop pair keeps the lake size bounded.

#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "graph/drg.h"
#include "lakes.h"
#include "ml/trainer.h"
#include "obs/memory.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "qa/invariants.h"
#include "rollup.h"
#include "serve/lake_service.h"
#include "serve/mutation.h"
#include "table/column.h"
#include "util/rng.h"
#include "util/timer.h"
#include "workloads.h"

namespace e2ebench {
namespace {

using autofeat::Column;
using autofeat::DataType;
using autofeat::Table;
using autofeat::Timer;
using autofeat::serve::LakeMutation;
using autofeat::serve::LakeService;
namespace obs = autofeat::obs;

constexpr size_t kReaders = kThreads - 1;
constexpr size_t kPods = 40;      // 200 tables of 5
constexpr size_t kPodRows = 80;   // rows per pod table (WriteServingLake)
constexpr size_t kAppendRows = 4;

autofeat::serve::ServeOptions ServingOptions() {
  autofeat::serve::ServeOptions options;
  options.match.candidate_mode = autofeat::CandidateMode::kLsh;
  options.config.num_threads = 1;
  options.config.seed = 42;
  return options;
}

// Mutation i rotates add -> append -> drop: the add creates a table
// joinable into one pod, the drop removes the table added two mutations
// earlier, the append grows an existing pod table by a few rows.
class Mutator {
 public:
  explicit Mutator(uint64_t seed) : seed_(seed) {}

  LakeMutation Next(const autofeat::DataLake& lake) {
    const size_t i = next_++;
    LakeMutation m;
    switch (i % 3) {
      case 0:
        m.kind = LakeMutation::Kind::kAddTable;
        m.payload = AddedTable(i);
        break;
      case 1: {
        m.kind = LakeMutation::Kind::kAppendRows;
        const size_t slot = i / 3;
        m.table = "pod" + std::to_string(slot % kPods) + "_t" +
                  std::to_string(1 + (slot / kPods) % 4);
        m.payload = AppendRows(*lake.GetTable(m.table).ValueOrDie(), i);
        break;
      }
      default:
        m.kind = LakeMutation::Kind::kDropTable;
        m.table = "mut" + std::to_string(i - 2);
        break;
    }
    return m;
  }

 private:
  Table AddedTable(size_t i) const {
    autofeat::Rng rng(autofeat::DeriveSeed(seed_, i));
    const size_t pod = 1 + (i / 3) % (kPods - 1);
    Table table("mut" + std::to_string(i));
    Column key(DataType::kInt64);
    for (size_t r = 0; r < kPodRows; ++r) {
      key.AppendInt64(static_cast<int64_t>(pod * kPodRows + r));
    }
    table.AddColumn("key_p" + std::to_string(pod), std::move(key)).Abort();
    for (size_t f = 0; f < 2; ++f) {
      Column feature(DataType::kDouble);
      for (size_t r = 0; r < kPodRows; ++r) feature.AppendDouble(rng.Normal());
      table
          .AddColumn("mv" + std::to_string(i) + "_" + std::to_string(f),
                     std::move(feature))
          .Abort();
    }
    return table;
  }

  // Rows with `current`'s exact schema; keys stay inside the pod domain.
  Table AppendRows(const Table& current, size_t i) const {
    autofeat::Rng rng(autofeat::DeriveSeed(seed_ ^ 0x5eed, i));
    Table rows(current.name());
    for (size_t c = 0; c < current.num_columns(); ++c) {
      const autofeat::Field& field = current.schema().field(c);
      Column col(field.type);
      for (size_t r = 0; r < kAppendRows; ++r) {
        if (field.type == DataType::kInt64) {
          col.AppendInt64(current.column(c).GetInt64(rng.UniformIndex(
              current.num_rows())));
        } else {
          col.AppendDouble(rng.Normal());
        }
      }
      rows.AddColumn(field.name, std::move(col)).Abort();
    }
    return rows;
  }

  uint64_t seed_;
  size_t next_ = 0;
};

const char* KindName(LakeMutation::Kind kind) {
  switch (kind) {
    case LakeMutation::Kind::kAddTable: return "add";
    case LakeMutation::Kind::kAppendRows: return "append";
    case LakeMutation::Kind::kDropTable: return "drop";
  }
  return "?";
}

// What one mixed read/write phase measured.
struct Phase {
  double wall_s = 0.0;
  std::vector<double> query_ms;
  std::vector<double> mutation_ms;
  std::map<std::string, std::vector<double>> apply_ms;  // by mutation kind
  size_t paths_explored = 0;
  size_t paths_pruned = 0;
  size_t paths_ranked = 0;
  double select_s = 0.0;
};

// Readers and the writer run until `seconds` have elapsed. With a tracer,
// each query and mutation is a root span around its public call.
Phase RunPhase(LakeService* service, const LakeOnDisk& disk, Mutator* mutator,
               double seconds, obs::Tracer* tracer, Report* report) {
  Phase phase;
  std::atomic<bool> stop{false};
  std::mutex merge;
  std::vector<std::thread> readers;
  Timer wall;
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      Phase local;
      size_t attempted = 0;
      std::vector<std::string> failures;
      while (!stop.load(std::memory_order_relaxed)) {
        ++attempted;
        obs::ScopedSpan root(tracer, "query");
        Timer timer;
        auto out = [&] {
          obs::ScopedSpan span(tracer, "serve.discover");
          return service->Discover(disk.base_table, disk.label_column);
        }();
        const double ms = timer.ElapsedMillis();
        if (!out.ok()) {
          failures.push_back("Discover: " + out.status().ToString());
          continue;
        }
        const auto& d = out->discovery;
        local.query_ms.push_back(ms);
        local.paths_explored += d.paths_explored;
        local.paths_pruned += d.paths_pruned_infeasible + d.paths_pruned_quality;
        local.paths_ranked += d.ranked.size();
        local.select_s += d.feature_selection_seconds;
      }
      std::lock_guard<std::mutex> lock(merge);
      report->Attempted(attempted);
      for (const std::string& f : failures) report->Fail(f);
      phase.query_ms.insert(phase.query_ms.end(), local.query_ms.begin(),
                            local.query_ms.end());
      phase.paths_explored += local.paths_explored;
      phase.paths_pruned += local.paths_pruned;
      phase.paths_ranked += local.paths_ranked;
      phase.select_s += local.select_s;
    });
  }
  while (wall.ElapsedSeconds() < seconds) {
    LakeMutation m = mutator->Next(service->snapshot()->lake);
    const char* kind = KindName(m.kind);
    obs::ScopedSpan root(tracer, "mutation");
    obs::ScopedSpan span(tracer, std::string("serve.apply.") + kind);
    Timer timer;
    auto applied = service->Apply(m);
    const double ms = timer.ElapsedMillis();
    std::lock_guard<std::mutex> lock(merge);
    report->Attempted();
    if (!applied.ok()) {
      report->Fail(std::string("Apply ") + kind + ": " +
                   applied.status().ToString());
      continue;
    }
    phase.mutation_ms.push_back(ms);
    phase.apply_ms[kind].push_back(ms);
  }
  stop = true;
  for (std::thread& t : readers) t.join();
  phase.wall_s = wall.ElapsedSeconds();
  return phase;
}

std::string QueryFingerprint(const LakeService& service,
                             const LakeOnDisk& disk) {
  auto out = service.Discover(disk.base_table, disk.label_column);
  return out.ok() ? autofeat::qa::DiscoveryFingerprint(out->discovery)
                  : "error: " + out.status().ToString();
}

// After the timed phase: the maintained DRG equals a cold discovery over
// the final lake, and a final Discover equals one from a cold service.
// Returns the accuracy of a final Augment, checked against a fresh
// TrainAndEvaluate on the returned table.
double CheckFinalState(const LakeService& service, const LakeOnDisk& disk,
                       Report* report) {
  LakeService::SnapshotPin snap = service.snapshot();
  auto cold_drg =
      autofeat::BuildDrgByDiscovery(snap->lake, service.options().match);
  if (!cold_drg.ok() ||
      cold_drg->OrderedFingerprint() != snap->drg.OrderedFingerprint()) {
    report->CheckFailed("service DRG differs from a cold BuildDrgByDiscovery");
  }
  auto cold = LakeService::Create(snap->lake, service.options());
  if (!cold.ok() ||
      QueryFingerprint(**cold, disk) != QueryFingerprint(service, disk)) {
    report->CheckFailed("final Discover differs from a cold service's");
  }
  auto augmented = service.Augment(disk.base_table, disk.label_column,
                                   autofeat::ml::ModelKind::kLightGbm);
  if (!augmented.ok()) {
    report->CheckFailed("final Augment: " + augmented.status().ToString());
    return 0.0;
  }
  autofeat::ml::TrainerOptions trainer;
  trainer.seed = service.options().config.seed;
  auto eval = autofeat::ml::TrainAndEvaluate(
      augmented->augmentation.augmented, disk.label_column,
      autofeat::ml::ModelKind::kLightGbm, trainer);
  if (!eval.ok() || eval->accuracy != augmented->augmentation.accuracy) {
    report->CheckFailed(
        "final Augment accuracy differs from TrainAndEvaluate on its table");
  }
  return augmented->augmentation.accuracy;
}

struct Setup {
  std::unique_ptr<LakeService> service;
  double load_s = 0.0;
  double create_s = 0.0;
};

Setup SetUp(const LakeOnDisk& disk, obs::MetricsRegistry* metrics,
            obs::Tracer* tracer) {
  Setup setup;
  obs::ScopedSpan root(tracer, "setup");
  autofeat::DataLake lake;
  {
    obs::ScopedSpan span(tracer, "table.load");
    Timer timer;
    lake = LoadLake(disk).ValueOrDie();
    setup.load_s = timer.ElapsedSeconds();
  }
  obs::ScopedSpan span(tracer, "serve.create");
  Timer timer;
  setup.service =
      LakeService::Create(std::move(lake), ServingOptions(), metrics)
          .MoveValue();
  setup.create_s = timer.ElapsedSeconds();
  return setup;
}

void RunTimed(const Options& options, const LakeOnDisk& disk,
              Report* report) {
  std::vector<double> setups;
  Setup setup;
  for (Timer t; MoreSetups(setups.size(), t.ElapsedSeconds());) {
    setup = SetUp(disk, nullptr, nullptr);
    setups.push_back(setup.load_s + setup.create_s);
  }
  Mutator mutator(options.seed);
  Phase phase = RunPhase(setup.service.get(), disk, &mutator, options.seconds,
                         nullptr, report);
  const double accuracy = CheckFinalState(*setup.service, disk, report);

  std::printf("%zu queries, %zu mutations in %.2f s\n", phase.query_ms.size(),
              phase.mutation_ms.size(), phase.wall_s);
  report->Set("setup_s", Median(setups));
  report->Set("ops_per_s",
              static_cast<double>(phase.query_ms.size()) / phase.wall_s);
  report->Set("op_ms_p50", Median(phase.query_ms));
  report->SetTail("op_ms_tail", phase.query_ms);
  report->Set("accuracy_mean", accuracy);
  report->Set("peak_rss_mb",
              static_cast<double>(obs::ProcessPeakRssBytes()) / (1 << 20));
}

void RunTraced(const Options& options, const LakeOnDisk& disk,
               Report* report) {
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  Setup setup = SetUp(disk, &metrics, &tracer);
  const double sketch_builds =
      static_cast<double>(metrics.CounterValue("sketch_cache.builds"));
  LakeService* service = setup.service.get();

  // Half the run untraced, half traced; the p50 ratio is the overhead.
  Mutator mutator(options.seed);
  Phase plain = RunPhase(service, disk, &mutator, options.seconds / 2,
                         nullptr, report);
  Phase traced = RunPhase(service, disk, &mutator, options.seconds / 2,
                          &tracer, report);
  std::vector<double> quiet_ms;
  for (int q = 0; q < 20; ++q) {
    Timer timer;
    auto out = service->Discover(disk.base_table, disk.label_column);
    quiet_ms.push_back(timer.ElapsedMillis());
    report->Attempted();
    if (!out.ok()) report->Fail("quiet Discover: " + out.status().ToString());
  }
  CheckFinalState(*service, disk, report);

  const auto lineage = service->Lineage();
  double rescored = 0, considered = 0, carried = 0;
  for (size_t e = 1; e < lineage.size(); ++e) {
    rescored += static_cast<double>(lineage[e].pairs_rescored);
    considered += static_cast<double>(lineage[e].pairs_rescored +
                                      lineage[e].pairs_skipped +
                                      lineage[e].pairs_carried);
    carried += static_cast<double>(lineage[e].join_entries_carried +
                                   lineage[e].sketch_entries_carried);
  }
  const double epochs = static_cast<double>(lineage.size() - 1);
  const double pairs = static_cast<double>(lineage[0].pairs_rescored);
  const double queries =
      static_cast<double>(plain.query_ms.size() + traced.query_ms.size());
  const double paths =
      static_cast<double>(plain.paths_explored + traced.paths_explored);

  std::map<std::string, Work> work = {
      {"table.load", {static_cast<double>(disk.bytes), "byte"}},
      {"serve.create", {pairs, "pair"}},
      {"serve.discover", {static_cast<double>(traced.query_ms.size()), "query"}},
  };
  for (const auto& [kind, ms] : traced.apply_ms) {
    work["serve.apply." + kind] = {static_cast<double>(ms.size()), "mutation"};
  }
  const auto spans = tracer.Snapshot();
  const Rollup setup_rollup = RollUp(spans, {"setup"}, work);
  const Rollup op_rollup = RollUp(spans, {"query", "mutation"}, work);
  PrintRollup(setup_rollup, options.workload + " set-up");
  PrintRollup(op_rollup, options.workload + " queries and mutations");
  if (!WriteRollupArtifacts(tracer, {setup_rollup, op_rollup},
                            {"setup", "ops"}, options.out_dir,
                            options.workload)) {
    report->CheckFailed("cannot write the rollup artifacts");
  }

  const double quiet = Median(quiet_ms);
  const double query_p50 = Median(plain.query_ms);
  report->Set("table.load_ms", setup.load_s * 1e3);
  report->Set("table.load_mb_per_s",
              Ratio(static_cast<double>(disk.bytes) / (1 << 20), setup.load_s));
  report->Set("discovery.pairs_scored", pairs);
  report->Set("discovery.sketch_builds", sketch_builds);
  report->Set("serve.create_ms", setup.create_s * 1e3);
  for (const auto& [kind, ms] : plain.apply_ms) {
    report->Set("serve.apply_ms." + kind, Median(ms));
  }
  report->Set("serve.mutations_per_s",
              static_cast<double>(plain.mutation_ms.size()) / plain.wall_s);
  report->Set("serve.mutation_ms_p50", Median(plain.mutation_ms));
  report->Set("serve.mutation_ms_tail", TailOf(plain.mutation_ms).value);
  report->Set("serve.rescore_share", Ratio(rescored, considered));
  report->Set("serve.entries_carried", Ratio(carried, epochs));
  report->Set("serve.discover_quiet_ms", quiet);
  report->Set("serve.query_wait_ms", query_p50 - quiet);
  report->Set("core.paths_explored", Ratio(paths, queries));
  report->Set("core.prune_share",
              Ratio(static_cast<double>(plain.paths_pruned +
                                        traced.paths_pruned),
                    paths));
  report->Set("core.ranked_share",
              Ratio(static_cast<double>(plain.paths_ranked +
                                        traced.paths_ranked),
                    paths));
  report->Set("fs.select_ms",
              Ratio((plain.select_s + traced.select_s) * 1e3, queries));
  report->Set("relational.join_cache_hit_share",
              Ratio(static_cast<double>(
                        metrics.CounterValue("join_index_cache.hits")),
                    static_cast<double>(
                        metrics.CounterValue("join_index_cache.requests"))));
  report->Set("relational.join_index_builds",
              Ratio(static_cast<double>(
                        metrics.CounterValue("join_index_cache.builds")),
                    queries));
  report->Set("trace.overhead_share",
              Ratio(Median(traced.query_ms), query_p50) - 1.0);
  report->Set("trace.unattributed_share", op_rollup.UnattributedShare());
  for (const char* module : {"core", "relational", "ml", "serve"}) {
    report->Set(std::string(module) + ".self_share",
                op_rollup.ModuleShare(module));
  }
}

}  // namespace

void RunServing(const Options& options, Report* report) {
  const LakeOnDisk disk = WriteServingLake(options.seed, options.work_dir);
  if (options.trace) {
    RunTraced(options, disk, report);
  } else {
    RunTimed(options, disk, report);
  }
}

}  // namespace e2ebench
