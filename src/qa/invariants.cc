#include "qa/invariants.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "discovery/data_lake.h"
#include "fs/feature_view.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "relational/join.h"
#include "relational/join_index.h"
#include "serve/lake_service.h"
#include "stats/discretize.h"
#include "stats/information.h"
#include "table/columnar.h"
#include "table/csv.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace autofeat::qa {
namespace {

constexpr double kEps = 1e-9;

Status Violated(const std::string& message) {
  return Status::InvalidArgument(message);
}

// ---- Discovery helpers ------------------------------------------------------

struct DiscoveryRun {
  DiscoveryResult result;
  std::string fingerprint;
  std::string digest;  // obs deterministic digest; empty unless requested
  size_t join_index_bytes = 0;  // join_index_cache.bytes_peak, ditto
};

Result<DiscoveryRun> RunDiscovery(const DataLake& lake, const FuzzedLake& fz,
                                  size_t num_threads, bool want_digest,
                                  EvictionStress stress = EvictionStress::kNone,
                                  size_t budget_bytes = 0) {
  AF_ASSIGN_OR_RETURN(DatasetRelationGraph drg, BuildDrgFromKfk(lake));
  AutoFeatConfig config = FuzzDiscoveryConfig(fz, num_threads);
  config.metrics_enabled = want_digest;
  config.eviction_stress = stress;
  config.memory_budget_bytes = budget_bytes;
  AutoFeat engine(&lake, &drg, config);
  DiscoveryRun run;
  AF_ASSIGN_OR_RETURN(run.result,
                      engine.DiscoverFeatures(fz.base_table, fz.label_column));
  run.fingerprint = DiscoveryFingerprint(run.result);
  if (want_digest) {
    run.digest = obs::DeterministicDigest(*engine.metrics(), engine.tracer());
    run.join_index_bytes = static_cast<size_t>(
        engine.metrics()->GaugeValue("join_index_cache.bytes_peak"));
  }
  return run;
}

std::string PathSignature(const RankedPath& rp) {
  std::ostringstream out;
  for (const JoinStep& s : rp.path.steps) {
    out << s.from_node << "." << s.from_column << ">" << s.to_node << "."
        << s.to_column << ";";
  }
  return out.str();
}

// ---- Join algebra -----------------------------------------------------------

Status CheckLeftJoinPreservesRows(const FuzzedLake& fz) {
  size_t ci = 0;
  for (const KfkConstraint& kfk : fz.lake.kfk_constraints()) {
    AF_ASSIGN_OR_RETURN(const Table* left, fz.lake.GetTable(kfk.from_table));
    AF_ASSIGN_OR_RETURN(const Table* right, fz.lake.GetTable(kfk.to_table));
    Rng rng(DeriveSeed(fz.seed, 5000 + ci));
    AF_ASSIGN_OR_RETURN(
        JoinResult join,
        LeftJoin(*left, kfk.from_column, *right, kfk.to_column, &rng));
    if (join.table.num_rows() != left->num_rows()) {
      return Violated("left join " + kfk.from_table + ">" + kfk.to_table +
                      " changed the row count: " +
                      std::to_string(left->num_rows()) + " left rows, " +
                      std::to_string(join.table.num_rows()) + " joined rows");
    }
    if (join.stats.total_rows != left->num_rows() ||
        join.stats.matched_rows > join.stats.total_rows) {
      return Violated("left join " + kfk.from_table + ">" + kfk.to_table +
                      " reported inconsistent stats (" +
                      std::to_string(join.stats.matched_rows) + "/" +
                      std::to_string(join.stats.total_rows) + ")");
    }
    if (join.table.num_columns() !=
        left->num_columns() + right->num_columns()) {
      return Violated("left join " + kfk.from_table + ">" + kfk.to_table +
                      " lost or invented columns");
    }
    ++ci;
  }
  return Status::OK();
}

Status CheckInternedJoinMatchesReference(const FuzzedLake& fz) {
  size_t ci = 0;
  for (const KfkConstraint& kfk : fz.lake.kfk_constraints()) {
    AF_ASSIGN_OR_RETURN(const Table* left, fz.lake.GetTable(kfk.from_table));
    AF_ASSIGN_OR_RETURN(const Table* right, fz.lake.GetTable(kfk.to_table));
    for (bool normalize : {true, false}) {
      for (JoinType type : {JoinType::kLeft, JoinType::kInner}) {
        JoinOptions options;
        options.type = type;
        options.normalize_cardinality = normalize;
        uint64_t join_seed = DeriveSeed(fz.seed, 5100 + ci);
        Rng rng_fast(join_seed);
        Rng rng_ref(join_seed);
        AF_ASSIGN_OR_RETURN(JoinResult fast,
                            Join(*left, kfk.from_column, *right,
                                 kfk.to_column, &rng_fast, options));
        AF_ASSIGN_OR_RETURN(JoinResult ref,
                            JoinStringKeyed(*left, kfk.from_column, *right,
                                            kfk.to_column, &rng_ref, options));
        if (!fast.table.Equals(ref.table) ||
            fast.stats.matched_rows != ref.stats.matched_rows ||
            fast.stats.total_rows != ref.stats.total_rows ||
            fast.stats.right_distinct_keys != ref.stats.right_distinct_keys) {
          return Violated(
              "interned Join diverged from JoinStringKeyed on " +
              kfk.from_table + "." + kfk.from_column + ">" + kfk.to_table +
              "." + kfk.to_column + " (normalize=" +
              (normalize ? "yes" : "no") + ", type=" +
              (type == JoinType::kLeft ? "left" : "inner") + ")");
        }
      }
    }
    ++ci;
  }
  return Status::OK();
}

Status CheckGatherViewsMatchMaterialisation(const FuzzedLake& fz) {
  size_t ci = 0;
  for (const KfkConstraint& kfk : fz.lake.kfk_constraints()) {
    AF_ASSIGN_OR_RETURN(const Table* left, fz.lake.GetTable(kfk.from_table));
    AF_ASSIGN_OR_RETURN(const Table* right, fz.lake.GetTable(kfk.to_table));
    AF_ASSIGN_OR_RETURN(const Column* left_key,
                        left->GetColumn(kfk.from_column));
    AF_ASSIGN_OR_RETURN(const Column* right_key,
                        right->GetColumn(kfk.to_column));
    JoinKeyIndex index =
        BuildJoinKeyIndex(*right_key, DeriveSeed(fz.seed, 5200 + ci));
    JoinRowMap map = MapLeftJoin(*left_key, index);
    AF_ASSIGN_OR_RETURN(
        JoinResult joined,
        LeftJoinWithIndex(*left, kfk.from_column, *right, index));
    std::vector<std::string> appended = ResolveAppendedNames(*left, *right);
    if (appended.size() != right->num_columns() ||
        joined.table.num_columns() != left->num_columns() + appended.size()) {
      return Violated("ResolveAppendedNames disagrees with LeftJoinWithIndex "
                      "on " + kfk.from_table + ">" + kfk.to_table);
    }
    for (size_t c = 0; c < right->num_columns(); ++c) {
      const Column& src = right->column(c);
      const Column& materialised =
          joined.table.column(left->num_columns() + c);
      Column gathered = GatherColumn(src, map.right_rows);
      if (!gathered.Equals(materialised)) {
        return Violated("GatherColumn view of " + kfk.to_table + "." +
                        right->schema().field(c).name +
                        " differs from the materialised join column");
      }
      if (GatherNullCount(src, map.right_rows) != materialised.null_count()) {
        return Violated("GatherNullCount of " + kfk.to_table + "." +
                        right->schema().field(c).name +
                        " differs from the materialised null count");
      }
      std::vector<double> view = GatherNumeric(src, map.right_rows);
      std::vector<double> reference = materialised.ToNumeric();
      if (view.size() != reference.size()) {
        return Violated("GatherNumeric length mismatch on " + kfk.to_table);
      }
      for (size_t i = 0; i < view.size(); ++i) {
        bool both_nan = std::isnan(view[i]) && std::isnan(reference[i]);
        if (!both_nan && view[i] != reference[i]) {
          return Violated("GatherNumeric of " + kfk.to_table + "." +
                          right->schema().field(c).name + " row " +
                          std::to_string(i) + " differs from ToNumeric of "
                          "the materialised column");
        }
      }
    }
    ++ci;
  }
  return Status::OK();
}

Status CheckJoinCompletenessBounds(const FuzzedLake& fz) {
  size_t ci = 0;
  for (const KfkConstraint& kfk : fz.lake.kfk_constraints()) {
    AF_ASSIGN_OR_RETURN(const Table* left, fz.lake.GetTable(kfk.from_table));
    AF_ASSIGN_OR_RETURN(const Table* right, fz.lake.GetTable(kfk.to_table));
    Rng rng(DeriveSeed(fz.seed, 5300 + ci));
    AF_ASSIGN_OR_RETURN(
        JoinResult join,
        LeftJoin(*left, kfk.from_column, *right, kfk.to_column, &rng));
    std::vector<std::string> appended = ResolveAppendedNames(*left, *right);
    AF_ASSIGN_OR_RETURN(double completeness,
                        JoinCompleteness(join.table, appended));
    if (!(completeness >= 0.0 && completeness <= 1.0)) {
      return Violated("completeness of " + kfk.from_table + ">" +
                      kfk.to_table + " out of [0,1]: " +
                      std::to_string(completeness));
    }
    if (JoinCompleteness(join.table, {"qa_no_such_column"}).ok()) {
      return Violated("JoinCompleteness silently accepted a column that "
                      "does not exist in the joined table");
    }
    ++ci;
  }
  return Status::OK();
}

// ---- Information-theory bounds ----------------------------------------------

// Runs `fn(view)` over a FeatureView of the base table joined with each of
// its direct satellites (exposing every adversarial satellite column to the
// stats layer), plus the base table alone.
Status ForEachJoinedView(
    const FuzzedLake& fz,
    const std::function<Status(const FeatureView&)>& fn) {
  AF_ASSIGN_OR_RETURN(const Table* base, fz.lake.GetTable(fz.base_table));
  if (!base->HasColumn(fz.label_column)) return Status::OK();  // vacuous
  {
    AF_ASSIGN_OR_RETURN(FeatureView view,
                        FeatureView::FromTable(*base, fz.label_column));
    AF_RETURN_NOT_OK(fn(view));
  }
  size_t ci = 0;
  for (const KfkConstraint& kfk : fz.lake.kfk_constraints()) {
    if (kfk.from_table != fz.base_table) continue;
    AF_ASSIGN_OR_RETURN(const Table* right, fz.lake.GetTable(kfk.to_table));
    Rng rng(DeriveSeed(fz.seed, 5400 + ci));
    AF_ASSIGN_OR_RETURN(
        JoinResult join,
        LeftJoin(*base, kfk.from_column, *right, kfk.to_column, &rng));
    AF_ASSIGN_OR_RETURN(FeatureView view,
                        FeatureView::FromTable(join.table, fz.label_column));
    AF_RETURN_NOT_OK(fn(view));
    ++ci;
  }
  return Status::OK();
}

Status CheckEntropyNonNegative(const FuzzedLake& fz) {
  return ForEachJoinedView(fz, [](const FeatureView& view) -> Status {
    double hy = Entropy(view.label_codes());
    if (!(hy >= 0.0) || !std::isfinite(hy)) {
      return Violated("label entropy is not a finite non-negative value: " +
                      std::to_string(hy));
    }
    for (size_t f = 0; f < view.num_features(); ++f) {
      double h = Entropy(view.codes(f));
      if (!(h >= 0.0) || !std::isfinite(h)) {
        return Violated("entropy of feature '" + view.name(f) +
                        "' is not a finite non-negative value: " +
                        std::to_string(h));
      }
    }
    return Status::OK();
  });
}

// Re-codes `x` so that rows missing in either input are missing in the
// output. Entropy() then measures H on exactly the pairwise-complete
// support that MutualInformation(x, y) is estimated on — the bound
// I <= min(H(X), H(Y)) only holds when all three use the same rows.
std::vector<int> MaskToPairwiseSupport(const std::vector<int>& x,
                                       const std::vector<int>& y) {
  std::vector<int> masked(x.size(), kMissingBin);
  for (size_t i = 0; i < x.size() && i < y.size(); ++i) {
    if (x[i] != kMissingBin && y[i] != kMissingBin) masked[i] = x[i];
  }
  return masked;
}

Status CheckMutualInformationBounds(const FuzzedLake& fz) {
  return ForEachJoinedView(fz, [](const FeatureView& view) -> Status {
    for (size_t f = 0; f < view.num_features(); ++f) {
      double mi = MutualInformation(view.codes(f), view.label_codes());
      if (!(mi >= 0.0) || !std::isfinite(mi)) {
        return Violated("I(" + view.name(f) + "; label) is negative or "
                        "non-finite: " + std::to_string(mi));
      }
      double hx = Entropy(MaskToPairwiseSupport(view.codes(f),
                                                view.label_codes()));
      double hy = Entropy(MaskToPairwiseSupport(view.label_codes(),
                                                view.codes(f)));
      if (mi > std::min(hx, hy) + kEps) {
        return Violated("I(" + view.name(f) + "; label) = " +
                        std::to_string(mi) + " exceeds min(H(X), H(Y)) = " +
                        std::to_string(std::min(hx, hy)) +
                        " on the shared pairwise-complete support");
      }
      double hxy = JointEntropy(view.codes(f), view.label_codes());
      if (mi > hxy + kEps) {
        return Violated("I(" + view.name(f) + "; label) = " +
                        std::to_string(mi) + " exceeds H(X, Y) = " +
                        std::to_string(hxy));
      }
    }
    return Status::OK();
  });
}

Status CheckMutualInformationSymmetry(const FuzzedLake& fz) {
  return ForEachJoinedView(fz, [](const FeatureView& view) -> Status {
    size_t n = std::min<size_t>(view.num_features(), 6);
    for (size_t a = 0; a < n; ++a) {
      for (size_t b = a + 1; b < n; ++b) {
        double ab = MutualInformation(view.codes(a), view.codes(b));
        double ba = MutualInformation(view.codes(b), view.codes(a));
        if (std::abs(ab - ba) > kEps) {
          return Violated("I(X;Y) asymmetric for '" + view.name(a) +
                          "'/'" + view.name(b) + "': " + std::to_string(ab) +
                          " vs " + std::to_string(ba));
        }
        double su_ab = SymmetricalUncertainty(view.codes(a), view.codes(b));
        double su_ba = SymmetricalUncertainty(view.codes(b), view.codes(a));
        if (std::abs(su_ab - su_ba) > kEps || su_ab < 0.0 ||
            su_ab > 1.0 + kEps) {
          return Violated("SU out of [0,1] or asymmetric for '" +
                          view.name(a) + "'/'" + view.name(b) + "': " +
                          std::to_string(su_ab) + " vs " +
                          std::to_string(su_ba));
        }
      }
    }
    return Status::OK();
  });
}

// ---- Ranking sanity ---------------------------------------------------------

Status CheckZeroMiFeatureNeverRaisesScores(const FuzzedLake& fz) {
  // Metamorphic transform: append a constant (zero-relevance) column to
  // every satellite. Completeness can only improve, so every path ranked in
  // the original run is ranked in the transformed run — with a score no
  // higher than before (the constant must be screened out, not credited).
  DataLake augmented;
  for (const Table& table : fz.lake.tables()) {
    Table copy = table;
    if (table.name() != fz.base_table) {
      Column constant(DataType::kDouble);
      for (size_t i = 0; i < table.num_rows(); ++i) {
        constant.AppendDouble(1.0);
      }
      AF_RETURN_NOT_OK(copy.AddColumn("qa_zmi", std::move(constant)));
    }
    AF_RETURN_NOT_OK(augmented.AddTable(std::move(copy)));
  }
  for (const KfkConstraint& kfk : fz.lake.kfk_constraints()) {
    augmented.AddKfk(kfk);
  }

  AF_ASSIGN_OR_RETURN(DiscoveryRun plain,
                      RunDiscovery(fz.lake, fz, 1, /*want_digest=*/false));
  AF_ASSIGN_OR_RETURN(DiscoveryRun with_const,
                      RunDiscovery(augmented, fz, 1, /*want_digest=*/false));

  std::map<std::string, double> augmented_scores;
  for (const RankedPath& rp : with_const.result.ranked) {
    augmented_scores.emplace(PathSignature(rp), rp.score);
  }
  for (const RankedPath& rp : plain.result.ranked) {
    auto it = augmented_scores.find(PathSignature(rp));
    if (it == augmented_scores.end()) {
      return Violated("path " + PathSignature(rp) +
                      " disappeared after adding a zero-MI column (its "
                      "completeness can only have improved)");
    }
    if (it->second > rp.score + kEps) {
      return Violated("zero-MI column raised the score of path " +
                      PathSignature(rp) + " from " +
                      std::to_string(rp.score) + " to " +
                      std::to_string(it->second));
    }
  }
  return Status::OK();
}

// ---- Determinism ------------------------------------------------------------

Status CheckRerunDeterminism(const FuzzedLake& fz) {
  AF_ASSIGN_OR_RETURN(DiscoveryRun first,
                      RunDiscovery(fz.lake, fz, 1, /*want_digest=*/true));
  AF_ASSIGN_OR_RETURN(DiscoveryRun second,
                      RunDiscovery(fz.lake, fz, 1, /*want_digest=*/true));
  if (first.fingerprint != second.fingerprint) {
    return Violated("two identical discovery runs produced different "
                    "ranked output");
  }
  if (first.digest != second.digest) {
    return Violated("two identical discovery runs produced different obs "
                    "digests: " + first.digest + " vs " + second.digest);
  }
  return Status::OK();
}

Status CheckThreadCountInvariance(const FuzzedLake& fz) {
  AF_ASSIGN_OR_RETURN(DiscoveryRun sequential,
                      RunDiscovery(fz.lake, fz, 1, /*want_digest=*/true));
  for (size_t threads : {size_t{4}, size_t{0}}) {  // 0 = hardware threads
    AF_ASSIGN_OR_RETURN(DiscoveryRun parallel,
                        RunDiscovery(fz.lake, fz, threads,
                                     /*want_digest=*/true));
    if (sequential.fingerprint != parallel.fingerprint) {
      return Violated("discovery output differs between --threads 1 and "
                      "--threads " + std::to_string(threads));
    }
    if (sequential.digest != parallel.digest) {
      return Violated("obs digest differs between --threads 1 and "
                      "--threads " + std::to_string(threads) + ": " +
                      sequential.digest + " vs " + parallel.digest);
    }
  }
  return Status::OK();
}

// The discovered DRG's ordered fingerprint, then the deterministic obs
// digest of its build; `sketch_bytes` receives the sketch cache's peak.
Result<std::string> DiscoveredDrgFingerprint(const FuzzedLake& fz,
                                             CandidateMode mode,
                                             size_t threads,
                                             size_t budget_bytes = 0,
                                             size_t* sketch_bytes = nullptr) {
  obs::MetricsRegistry metrics;
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) {
    pool = std::make_unique<ThreadPool>(threads);
    pool->set_metrics(&metrics);
  }
  MatchOptions options;
  options.candidate_mode = mode;
  options.memory_budget_bytes = budget_bytes;
  AF_ASSIGN_OR_RETURN(
      DatasetRelationGraph drg,
      BuildDrgByDiscovery(fz.lake, options, pool.get(), &metrics));
  if (sketch_bytes != nullptr) {
    *sketch_bytes = metrics.GaugeValue("sketch_cache.bytes_peak");
  }
  return drg.OrderedFingerprint() +
         obs::DeterministicDigest(metrics, /*tracer=*/nullptr);
}

Status CheckLshDiscoveryDeterminism(const FuzzedLake& fz) {
  // LSH-mode DRG discovery (MinHash signatures, banding, candidate pruning)
  // must be a pure function of the lake: the graph and the deterministic
  // obs digest may not change across reruns or thread counts.
  AF_ASSIGN_OR_RETURN(std::string base,
                      DiscoveredDrgFingerprint(fz, CandidateMode::kLsh, 1));
  for (const auto& [label, threads] :
       {std::pair<const char*, size_t>{"rerun", 1}, {"4 threads", 4},
        {"8 threads", 8}}) {
    AF_ASSIGN_OR_RETURN(
        std::string run,
        DiscoveredDrgFingerprint(fz, CandidateMode::kLsh, threads));
    if (run != base) {
      return Violated(std::string("LSH-mode DRG or obs digest differs on ") +
                      label + ":\n--- baseline ---\n" + base + "\n--- " +
                      label + " ---\n" + run);
    }
  }
  return Status::OK();
}

Status CheckColumnPermutationInvariance(const FuzzedLake& fz) {
  // Reversing satellite column order must not change discovery output: no
  // score, no ranked path, no selected feature may depend on the physical
  // layout of a lake table. (Base-table order is kept: it seeds the
  // selector's accepted set, which is order-defined by contract.)
  DataLake permuted;
  for (const Table& table : fz.lake.tables()) {
    if (table.name() == fz.base_table) {
      AF_RETURN_NOT_OK(permuted.AddTable(table));
      continue;
    }
    std::vector<std::string> names = table.ColumnNames();
    std::reverse(names.begin(), names.end());
    AF_ASSIGN_OR_RETURN(Table reversed, table.SelectColumns(names));
    reversed.set_name(table.name());
    AF_RETURN_NOT_OK(permuted.AddTable(std::move(reversed)));
  }
  for (const KfkConstraint& kfk : fz.lake.kfk_constraints()) {
    permuted.AddKfk(kfk);
  }
  AF_ASSIGN_OR_RETURN(DiscoveryRun plain,
                      RunDiscovery(fz.lake, fz, 1, /*want_digest=*/false));
  AF_ASSIGN_OR_RETURN(DiscoveryRun reordered,
                      RunDiscovery(permuted, fz, 1, /*want_digest=*/false));
  if (plain.fingerprint != reordered.fingerprint) {
    return Violated("discovery output depends on satellite column order:\n"
                    "--- original ---\n" + plain.fingerprint +
                    "--- reversed ---\n" + reordered.fingerprint);
  }
  return Status::OK();
}

Status CheckEvictionOblivious(const FuzzedLake& fz) {
  // Cache entries (join-key indexes, column sketches) are pure functions of
  // (table contents, column, seed), so discovery output — ranked paths,
  // scores, selected features AND the deterministic obs digest — must be
  // byte-identical no matter when entries are evicted and rebuilt: never
  // (baseline), between every BFS round, on a seeded random schedule, or
  // whenever a memory budget forces it.
  AF_ASSIGN_OR_RETURN(DiscoveryRun baseline,
                      RunDiscovery(fz.lake, fz, 1, /*want_digest=*/true));
  struct Variant {
    std::string label;
    size_t threads;
    EvictionStress stress;
    size_t budget_bytes;
  };
  std::vector<Variant> variants = {
      {"evict-all between BFS rounds", 1, EvictionStress::kEvictAll, 0},
      {"seeded random eviction", 1, EvictionStress::kRandom, 0},
      {"evict-all at 4 threads", 4, EvictionStress::kEvictAll, 0}};
  // A default fuzzed lake's join indexes fit in 32KiB, so that budget never
  // evicts; a third of the lake's footprint is what forces evictions.
  for (size_t budget : EvictionStressBudgets(baseline.join_index_bytes)) {
    std::string label = std::to_string(budget) + "-byte budget";
    variants.push_back({label, 1, EvictionStress::kNone, budget});
    variants.push_back(
        {label + " + evict-all", 1, EvictionStress::kEvictAll, budget});
  }
  for (const Variant& v : variants) {
    AF_ASSIGN_OR_RETURN(DiscoveryRun stressed,
                        RunDiscovery(fz.lake, fz, v.threads,
                                     /*want_digest=*/true, v.stress,
                                     v.budget_bytes));
    if (stressed.fingerprint != baseline.fingerprint) {
      return Violated("discovery output changed under " + v.label +
                      ":\n--- baseline ---\n" + baseline.fingerprint +
                      "--- " + v.label + " ---\n" + stressed.fingerprint);
    }
    if (stressed.digest != baseline.digest) {
      return Violated("obs digest changed under " + v.label + ": " +
                      baseline.digest + " vs " + stressed.digest);
    }
  }

  // The sketch cache: the discovered DRG (and digest) must not change under
  // the tiny budget, nor under a third of the lake's sketch footprint. The
  // sketches of default fuzzed lakes fit in 32KiB; the relative budget is
  // what forces evictions and pin-only entries while pairs are scored.
  for (CandidateMode mode : {CandidateMode::kAllPairs, CandidateMode::kLsh}) {
    size_t footprint = 0;
    AF_ASSIGN_OR_RETURN(std::string plain,
                        DiscoveredDrgFingerprint(fz, mode, 1, 0, &footprint));
    for (size_t budget : EvictionStressBudgets(footprint)) {
      AF_ASSIGN_OR_RETURN(std::string budgeted,
                          DiscoveredDrgFingerprint(fz, mode, 1, budget));
      if (budgeted != plain) {
        return Violated(
            std::string(mode == CandidateMode::kLsh ? "LSH" : "all-pairs") +
            " DRG or obs digest changed under a " + std::to_string(budget) +
            "-byte sketch-cache budget:\n--- unbudgeted ---\n" + plain +
            "\n--- budgeted ---\n" + budgeted);
      }
    }
  }
  return Status::OK();
}

// ---- Serving ----------------------------------------------------------------

Status CheckServeIncrementalEquivalence(const FuzzedLake& fz) {
  // Replays the fuzzed mutation trace through a live LakeService (incremental
  // DRG maintenance + cache carry-over) and, in parallel, through a plain
  // cold lake. After the sequence the service's published DRG must be
  // byte-identical to a cold BuildDrgByDiscovery over the final lake state,
  // and a Discover query (ranked output AND deterministic obs digest) must
  // match a cold service built at that state. Mutation failures must be
  // symmetric: an op rejected by the service must be rejected cold too.
  struct Arm {
    const char* label;
    CandidateMode mode;
    size_t threads;
  };
  for (const Arm& arm :
       {Arm{"all-pairs, 1 thread", CandidateMode::kAllPairs, 1},
        Arm{"all-pairs, 4 threads", CandidateMode::kAllPairs, 4},
        Arm{"lsh, 1 thread", CandidateMode::kLsh, 1}}) {
    serve::ServeOptions opts;
    opts.match.candidate_mode = arm.mode;
    opts.config = FuzzDiscoveryConfig(fz, arm.threads);
    AF_ASSIGN_OR_RETURN(std::unique_ptr<serve::LakeService> service,
                        serve::LakeService::Create(fz.lake, opts));
    DataLake cold = fz.lake;
    size_t oi = 0;
    for (const serve::LakeMutation& op : fz.trace) {
      Result<uint64_t> incremental = service->Apply(op);
      Status replay = serve::ApplyMutationToLake(&cold, op);
      if (incremental.ok() != replay.ok()) {
        return Violated("mutation " + std::to_string(oi) + " (" +
                        serve::MutationSummary(op) + ") " +
                        (incremental.ok()
                             ? "succeeded on the service but failed cold: " +
                                   replay.message()
                             : "failed on the service but succeeded cold: " +
                                   incremental.status().message()) +
                        " [" + arm.label + "]");
      }
      ++oi;
    }

    // DRG equivalence against a cold discovery build at the final state.
    std::unique_ptr<ThreadPool> pool;
    if (arm.threads > 1) pool = std::make_unique<ThreadPool>(arm.threads);
    AF_ASSIGN_OR_RETURN(
        DatasetRelationGraph cold_drg,
        BuildDrgByDiscovery(cold, opts.match, pool.get(), nullptr));
    serve::LakeService::SnapshotPin snap = service->snapshot();
    if (snap->drg.OrderedFingerprint() != cold_drg.OrderedFingerprint()) {
      return Violated(std::string("incrementally maintained DRG diverged "
                                  "from a cold rebuild after ") +
                      std::to_string(fz.trace.size()) + " mutation(s) [" +
                      arm.label + "]:\n--- incremental ---\n" +
                      snap->drg.OrderedFingerprint() + "--- cold ---\n" +
                      cold_drg.OrderedFingerprint());
    }

    // Query equivalence against a cold service built at the final state.
    AF_ASSIGN_OR_RETURN(std::unique_ptr<serve::LakeService> cold_service,
                        serve::LakeService::Create(std::move(cold), opts));
    auto query = [&](serve::LakeService* s, std::string* fingerprint,
                     std::string* digest) -> Status {
      obs::MetricsRegistry metrics;
      AF_ASSIGN_OR_RETURN(
          serve::LakeService::DiscoverOutcome out,
          s->Discover(fz.base_table, fz.label_column, &metrics));
      *fingerprint = DiscoveryFingerprint(out.discovery);
      *digest = obs::DeterministicDigest(metrics, /*tracer=*/nullptr);
      return Status::OK();
    };
    std::string inc_fp, inc_digest, cold_fp, cold_digest;
    AF_RETURN_NOT_OK(query(service.get(), &inc_fp, &inc_digest));
    AF_RETURN_NOT_OK(query(cold_service.get(), &cold_fp, &cold_digest));
    if (inc_fp != cold_fp) {
      return Violated(std::string("Discover output diverged between the "
                                  "mutated service and a cold service [") +
                      arm.label + "]:\n--- incremental ---\n" + inc_fp +
                      "--- cold ---\n" + cold_fp);
    }
    if (inc_digest != cold_digest) {
      return Violated(std::string("Discover obs digest diverged between the "
                                  "mutated service and a cold service [") +
                      arm.label + "]: " + inc_digest + " vs " + cold_digest);
    }
  }
  return Status::OK();
}

// ---- Round trips ------------------------------------------------------------

Status CheckColumnarRoundTrip(const FuzzedLake& fz) {
  for (const Table& table : fz.lake.tables()) {
    std::string buf = WriteColumnarBuffer(table);
    AF_ASSIGN_OR_RETURN(Table back, ReadColumnarBuffer(buf));
    if (back.name() != table.name()) {
      return Violated("columnar round trip renamed " + table.name() + " to " +
                      back.name());
    }
    if (!table.Equals(back)) {
      return Violated("columnar round trip of " + table.name() +
                      " is not value-identical (" +
                      std::to_string(table.num_rows()) + "x" +
                      std::to_string(table.num_columns()) + ")");
    }
    // Tamper detection: FNV-1a applies a bijection of the running state per
    // payload byte, so any single-byte payload flip changes the checksum —
    // the read must fail cleanly, never crash or return data.
    std::string corrupt = buf;
    size_t flip = 32 + (corrupt.size() - 32) / 2;  // mid-payload
    corrupt[flip] = static_cast<char>(corrupt[flip] ^ 0x5A);
    if (ReadColumnarBuffer(corrupt).ok()) {
      return Violated("columnar reader accepted a payload with byte " +
                      std::to_string(flip) + " flipped (table " +
                      table.name() + ")");
    }
    if (ReadColumnarBuffer(std::string_view(buf).substr(0, buf.size() - 1))
            .ok()) {
      return Violated("columnar reader accepted a truncated buffer (table " +
                      table.name() + ")");
    }
  }
  return Status::OK();
}

Status CheckCsvRoundTripStabilises(const FuzzedLake& fz) {
  // One write/read pass may canonicalise a value ("07" -> 7, "" -> null,
  // all-null double -> all-null int64); after that the representation must
  // be a fixed point: write(read(write(read(csv)))) == write(read(csv)).
  for (const Table& table : fz.lake.tables()) {
    std::string csv1 = WriteCsvString(table);
    AF_ASSIGN_OR_RETURN(Table t1, ReadCsvString(csv1, table.name()));
    if (t1.num_rows() != table.num_rows() ||
        t1.num_columns() != table.num_columns()) {
      return Violated("CSV round trip changed the shape of " + table.name() +
                      ": " + std::to_string(table.num_rows()) + "x" +
                      std::to_string(table.num_columns()) + " -> " +
                      std::to_string(t1.num_rows()) + "x" +
                      std::to_string(t1.num_columns()));
    }
    std::string csv2 = WriteCsvString(t1);
    AF_ASSIGN_OR_RETURN(Table t2, ReadCsvString(csv2, table.name()));
    std::string csv3 = WriteCsvString(t2);
    if (csv2 != csv3) {
      return Violated("CSV round trip of " + table.name() +
                      " does not stabilise after one pass");
    }
  }
  return Status::OK();
}

}  // namespace

AutoFeatConfig FuzzDiscoveryConfig(const FuzzedLake& fz, size_t num_threads) {
  AutoFeatConfig config;
  config.sample_rows = 0;  // lakes are tiny; sampling would only mask rows
  config.max_hops = 3;
  config.num_threads = num_threads;
  config.seed = fz.seed;
  return config;
}

std::vector<size_t> EvictionStressBudgets(size_t footprint_bytes) {
  return {32 * 1024, std::max<size_t>(footprint_bytes / 3, 1)};
}

std::string DiscoveryFingerprint(const DiscoveryResult& result) {
  std::ostringstream out;
  out.precision(17);
  out << result.paths_explored << "/" << result.paths_pruned_infeasible << "/"
      << result.paths_pruned_quality << "\n";
  for (const RankedPath& rp : result.ranked) {
    out << rp.score << " |";
    for (const JoinStep& s : rp.path.steps) {
      out << " " << s.from_node << "." << s.from_column << ">" << s.to_node
          << "." << s.to_column;
    }
    out << " |";
    for (const FeatureScore& fs : rp.selected_features) {
      out << " " << fs.name << "=" << fs.score;
    }
    out << "\n";
  }
  return out.str();
}

const std::vector<Invariant>& BuiltinInvariants() {
  static const std::vector<Invariant>* const kInvariants =
      new std::vector<Invariant>{
          {"join.left_preserves_rows",
           "a cardinality-normalised left join keeps exactly the left "
           "table's rows and appends every right column",
           CheckLeftJoinPreservesRows},
          {"join.interned_matches_reference",
           "the dictionary-interned Join is byte-identical to "
           "JoinStringKeyed for every option combination",
           CheckInternedJoinMatchesReference},
          {"join.gather_views_match_materialisation",
           "JoinKeyIndex gather views (column/null-count/numeric) equal the "
           "materialised LeftJoinWithIndex output",
           CheckGatherViewsMatchMaterialisation},
          {"join.completeness_bounds",
           "JoinCompleteness is within [0,1] and errors on missing columns",
           CheckJoinCompletenessBounds},
          {"info.entropy_nonnegative",
           "H(X) is finite and >= 0 for every discretised feature",
           CheckEntropyNonNegative},
          {"info.mi_bounds",
           "0 <= I(X;Y) <= min(H(X), H(Y)) for every feature/label pair",
           CheckMutualInformationBounds},
          {"info.mi_symmetric",
           "I(X;Y) == I(Y;X) and SU(X,Y) == SU(Y,X) in [0,1]",
           CheckMutualInformationSymmetry},
          {"rank.zero_mi_no_gain",
           "appending a constant (zero-MI) column never removes a ranked "
           "path and never raises its score",
           CheckZeroMiFeatureNeverRaisesScores},
          {"determinism.rerun",
           "two identical discovery runs produce identical ranked output "
           "and obs digests",
           CheckRerunDeterminism},
          {"determinism.thread_invariant",
           "discovery output and obs digest are identical at --threads "
           "1/4/hw",
           CheckThreadCountInvariance},
          {"discovery.column_permutation_invariant",
           "reversing satellite column order leaves ranked paths, scores "
           "and selected features unchanged",
           CheckColumnPermutationInvariance},
          {"discovery.lsh_deterministic",
           "LSH-mode DRG discovery yields identical graphs and obs digests "
           "across reruns and thread counts",
           CheckLshDiscoveryDeterminism},
          {"csv.round_trip_stabilises",
           "CSV write/read canonicalises in one pass and is a fixed point "
           "afterwards",
           CheckCsvRoundTripStabilises},
          {"serve.incremental_equivalence",
           "after any fuzzed mutation sequence the serving layer's "
           "incrementally maintained DRG, Discover output and obs digest "
           "are byte-identical to a cold rebuild at the final lake state "
           "(all-pairs at 1/4 threads, LSH at 1)",
           CheckServeIncrementalEquivalence},
          {"cache.eviction_oblivious",
           "discovery output, discovered DRGs and obs digests are "
           "byte-identical under adversarial, random and budget-forced "
           "cache eviction schedules",
           CheckEvictionOblivious},
          {"columnar.round_trip",
           "binary columnar write/read is value-identical for every lake "
           "table, and corrupted or truncated buffers are rejected cleanly",
           CheckColumnarRoundTrip},
      };
  return *kInvariants;
}

Invariant PlantedNoNullsInvariant() {
  return {"planted.no_nulls",
          "TEST-ONLY deliberately wrong claim: no lake column contains a "
          "null value (exercises the shrinker and repro pipeline)",
          [](const FuzzedLake& fz) -> Status {
            for (const Table& table : fz.lake.tables()) {
              for (size_t c = 0; c < table.num_columns(); ++c) {
                const Column& col = table.column(c);
                for (size_t r = 0; r < col.size(); ++r) {
                  if (col.IsNull(r)) {
                    return Violated("null value in " + table.name() + "." +
                                    table.schema().field(c).name + " row " +
                                    std::to_string(r));
                  }
                }
              }
            }
            return Status::OK();
          }};
}

std::vector<Invariant> RegistryInvariants(bool include_planted) {
  std::vector<Invariant> out = BuiltinInvariants();
  if (include_planted) out.push_back(PlantedNoNullsInvariant());
  return out;
}

}  // namespace autofeat::qa
