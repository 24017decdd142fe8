// Tests for the qa invariant registry: registry shape, and hand-built
// minimal lakes that each invariant must judge correctly — including the
// score-tie lake that regression-tests the SelectKBest tie-break (two
// identical feature columns must not make discovery output depend on the
// physical column order of a lake table).

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "discovery/data_lake.h"
#include "obs/metrics.h"
#include "qa/invariants.h"
#include "qa/lake_fuzzer.h"

namespace autofeat::qa {
namespace {

const Invariant& FindInvariant(const std::string& name) {
  for (const Invariant& inv : BuiltinInvariants()) {
    if (inv.name == name) return inv;
  }
  static Invariant missing;
  ADD_FAILURE() << "no builtin invariant named " << name;
  return missing;
}

TEST(InvariantRegistryTest, HasAtLeastTenUniquelyNamedInvariants) {
  const auto& invariants = BuiltinInvariants();
  EXPECT_GE(invariants.size(), 10u);
  std::set<std::string> names;
  for (const Invariant& inv : invariants) {
    EXPECT_TRUE(names.insert(inv.name).second)
        << "duplicate invariant name: " << inv.name;
    EXPECT_FALSE(inv.description.empty()) << inv.name;
    EXPECT_TRUE(inv.check != nullptr) << inv.name;
  }
}

TEST(InvariantRegistryTest, PlantedInvariantOnlyPresentWhenAsked) {
  for (const Invariant& inv : RegistryInvariants(false)) {
    EXPECT_NE(inv.name, "planted.no_nulls");
  }
  bool found = false;
  for (const Invariant& inv : RegistryInvariants(true)) {
    if (inv.name == "planted.no_nulls") found = true;
  }
  EXPECT_TRUE(found);
}

// A minimal lake with two byte-identical satellite feature columns ("a" and
// "b"): every relevance heuristic scores them equally, so selection must
// break the tie by name, not by column position. Shrunk-repro regression
// test for the SelectKBest order dependence found by
// discovery.column_permutation_invariant.
FuzzedLake MakeTiedFeatureLake() {
  FuzzedLake fz;
  fz.seed = 4242;
  const size_t n = 24;

  Table base("fz_base");
  Column key(DataType::kInt64);
  Column bf0(DataType::kInt64);
  Column label(DataType::kInt64);
  for (size_t i = 0; i < n; ++i) {
    key.AppendInt64(static_cast<int64_t>(i));
    bf0.AppendInt64(static_cast<int64_t>(i % 5));
    label.AppendInt64(static_cast<int64_t>(i % 2));
  }
  EXPECT_TRUE(base.AddColumn("key", std::move(key)).ok());
  EXPECT_TRUE(base.AddColumn("bf0", std::move(bf0)).ok());
  EXPECT_TRUE(base.AddColumn("label", std::move(label)).ok());

  Table sat("fz_sat");
  Column k(DataType::kInt64);
  Column a(DataType::kInt64);
  Column b(DataType::kInt64);
  for (size_t i = 0; i < n; ++i) {
    k.AppendInt64(static_cast<int64_t>(i));
    a.AppendInt64(static_cast<int64_t>(i % 2));  // == label: top relevance
    b.AppendInt64(static_cast<int64_t>(i % 2));  // identical twin of "a"
  }
  EXPECT_TRUE(sat.AddColumn("k", std::move(k)).ok());
  EXPECT_TRUE(sat.AddColumn("a", std::move(a)).ok());
  EXPECT_TRUE(sat.AddColumn("b", std::move(b)).ok());

  EXPECT_TRUE(fz.lake.AddTable(std::move(base)).ok());
  EXPECT_TRUE(fz.lake.AddTable(std::move(sat)).ok());
  fz.lake.AddKfk({"fz_base", "key", "fz_sat", "k"});
  return fz;
}

TEST(InvariantRegressionTest, TiedFeaturesDoNotBreakPermutationInvariance) {
  FuzzedLake fz = MakeTiedFeatureLake();
  const Invariant& inv =
      FindInvariant("discovery.column_permutation_invariant");
  Status status = inv.check(fz);
  EXPECT_TRUE(status.ok()) << status.ToString();
}

TEST(InvariantRegressionTest, TiedFeatureLakePassesWholeRegistry) {
  FuzzedLake fz = MakeTiedFeatureLake();
  for (const Invariant& inv : BuiltinInvariants()) {
    Status status = inv.check(fz);
    EXPECT_TRUE(status.ok()) << inv.name << ": " << status.ToString();
  }
}

// Shrunk-repro regression for the JoinCompleteness empty-join bug: a
// zero-row satellite joins to zero rows, and JoinCompleteness must still
// raise KeyError for a column missing from the joined table instead of
// silently returning a perfect score.
FuzzedLake MakeEmptyJoinLake() {
  FuzzedLake fz;
  fz.seed = 4243;
  Table base("fz_base");
  Column key(DataType::kInt64);
  Column label(DataType::kInt64);
  for (size_t i = 0; i < 4; ++i) {
    key.AppendInt64(static_cast<int64_t>(i));
    label.AppendInt64(static_cast<int64_t>(i % 2));
  }
  EXPECT_TRUE(base.AddColumn("key", std::move(key)).ok());
  EXPECT_TRUE(base.AddColumn("label", std::move(label)).ok());

  Table empty_sat("fz_empty");  // zero rows: every left row unmatched,
  EXPECT_TRUE(                  // and an inner join of it has zero rows
      empty_sat.AddColumn("k", Column(DataType::kInt64)).ok());
  EXPECT_TRUE(empty_sat.AddColumn("f0", Column(DataType::kDouble)).ok());

  EXPECT_TRUE(fz.lake.AddTable(std::move(base)).ok());
  EXPECT_TRUE(fz.lake.AddTable(std::move(empty_sat)).ok());
  fz.lake.AddKfk({"fz_base", "key", "fz_empty", "k"});
  return fz;
}

TEST(InvariantRegressionTest, EmptyJoinStillValidatesCompletenessColumns) {
  FuzzedLake fz = MakeEmptyJoinLake();
  const Invariant& inv = FindInvariant("join.completeness_bounds");
  Status status = inv.check(fz);
  EXPECT_TRUE(status.ok()) << status.ToString();
}

TEST(InvariantRegressionTest, EmptyJoinLakePassesWholeRegistry) {
  FuzzedLake fz = MakeEmptyJoinLake();
  for (const Invariant& inv : BuiltinInvariants()) {
    Status status = inv.check(fz);
    EXPECT_TRUE(status.ok()) << inv.name << ": " << status.ToString();
  }
}

// cache.eviction_oblivious proves nothing about the join-index cache if no
// budget it runs under ever evicts. Over the default fuzz campaign's first
// 50 seeds, Discover at one of its budgets must evict at least once.
TEST(EvictionStressBudgetsTest, JoinIndexBudgetEvictsOnDefaultFuzzedLakes) {
  LakeFuzzer fuzzer;
  size_t evicting_lakes = 0;
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    FuzzedLake fz = fuzzer.Generate(seed);
    auto drg = BuildDrgFromKfk(fz.lake);
    ASSERT_TRUE(drg.ok());
    auto discover = [&](size_t budget_bytes, obs::MetricsRegistry* metrics) {
      AutoFeatConfig config = FuzzDiscoveryConfig(fz, 1);
      config.metrics_enabled = true;
      config.metrics = metrics;
      config.memory_budget_bytes = budget_bytes;
      AutoFeat engine(&fz.lake, &*drg, config);
      return engine.DiscoverFeatures(fz.base_table, fz.label_column).status();
    };
    obs::MetricsRegistry unbudgeted;
    ASSERT_TRUE(discover(0, &unbudgeted).ok());
    size_t footprint = static_cast<size_t>(
        unbudgeted.GaugeValue("join_index_cache.bytes_peak"));
    for (size_t budget : EvictionStressBudgets(footprint)) {
      obs::MetricsRegistry budgeted;
      ASSERT_TRUE(discover(budget, &budgeted).ok());
      if (budgeted.CounterValue("join_index_cache.evictions") > 0) {
        ++evicting_lakes;
        break;
      }
    }
  }
  EXPECT_GT(evicting_lakes, 0u);
}

TEST(DiscoveryFingerprintTest, EncodesScoresPathsAndFeatures) {
  DiscoveryResult result;
  result.paths_explored = 3;
  RankedPath rp;
  rp.score = 0.5;
  rp.path.steps.push_back({0, 1, "key", "k", 1.0});
  rp.selected_features.push_back({"a", 1.0});
  result.ranked.push_back(rp);
  std::string fp = DiscoveryFingerprint(result);
  EXPECT_NE(fp.find("0.key>1.k"), std::string::npos);
  EXPECT_NE(fp.find("a=1"), std::string::npos);
  EXPECT_NE(fp.find("0.5"), std::string::npos);
}

}  // namespace
}  // namespace autofeat::qa
