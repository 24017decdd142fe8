// Differential test of the engine's join path against the string-keyed
// oracle: over randomized synthetic lakes, every ranked path that
// MaterializeAugmentedTable produces must equal the same path chained
// through JoinStringKeyed plus the same column selection, and Augment's
// accuracy must equal a model trained on the oracle table of its best path.
// The generated lakes' satellite key columns are unique (permutation
// subsets), so the cardinality-normalisation representative is forced and
// the two joins are exactly — not approximately — comparable.

#include <gtest/gtest.h>

#include <string>
#include <unordered_set>

#include "core/autofeat.h"
#include "datagen/lake_builder.h"
#include "discovery/data_lake.h"
#include "relational/join.h"

namespace autofeat {
namespace {

struct LakeVariant {
  uint64_t seed;
  size_t rows;
  size_t joinable_tables;
  size_t total_features;
  bool star_schema;
};

// `ranked` materialised through JoinStringKeyed, keeping the base columns
// plus the path's selected features as MaterializeAugmentedTable does.
Result<Table> OracleAugmentedTable(const DataLake& lake,
                                   const DatasetRelationGraph& drg,
                                   const std::string& base_table,
                                   const RankedPath& ranked) {
  AF_ASSIGN_OR_RETURN(const Table* base, lake.GetTable(base_table));
  Rng rng(0);  // Unique right keys: no representative draw consumes it.
  Table current = *base;
  for (const JoinStep& step : ranked.path.steps) {
    AF_ASSIGN_OR_RETURN(const Table* right,
                        lake.GetTable(drg.NodeName(step.to_node)));
    AF_ASSIGN_OR_RETURN(JoinResult joined,
                        JoinStringKeyed(current, step.from_column, *right,
                                        step.to_column, &rng));
    current = std::move(joined.table);
  }
  std::vector<std::string> keep = base->ColumnNames();
  std::unordered_set<std::string> seen(keep.begin(), keep.end());
  for (const auto& fs : ranked.selected_features) {
    if (seen.insert(fs.name).second && current.HasColumn(fs.name)) {
      keep.push_back(fs.name);
    }
  }
  return current.SelectColumns(keep);
}

TEST(OracleDifferentialTest, MaterializeAndAugmentMatchStringKeyedOracle) {
  const LakeVariant variants[] = {
      {7, 300, 4, 20, false},
      {11, 400, 6, 30, false},
      {23, 350, 5, 24, true},
      {101, 500, 7, 36, false},
      {977, 250, 3, 16, true},
  };

  for (const LakeVariant& variant : variants) {
    SCOPED_TRACE("lake seed " + std::to_string(variant.seed));
    datagen::LakeSpec spec;
    spec.seed = variant.seed;
    spec.rows = variant.rows;
    spec.joinable_tables = variant.joinable_tables;
    spec.total_features = variant.total_features;
    spec.star_schema = variant.star_schema;
    datagen::BuiltLake built = datagen::BuildLake(spec);
    auto drg = BuildDrgFromKfk(built.lake);
    ASSERT_TRUE(drg.ok());

    AutoFeatConfig config;
    config.seed = variant.seed;
    config.sample_rows = 200;
    AutoFeat engine(&built.lake, &*drg, config);
    auto discovery =
        engine.DiscoverFeatures(built.base_table, built.label_column);
    ASSERT_TRUE(discovery.ok());
    ASSERT_GT(discovery->ranked.size(), 0u);

    for (size_t i = 0; i < discovery->ranked.size(); ++i) {
      SCOPED_TRACE("ranked path " + std::to_string(i));
      const RankedPath& ranked = discovery->ranked[i];
      auto materialized = engine.MaterializeAugmentedTable(
          built.base_table, ranked, built.label_column);
      auto oracle =
          OracleAugmentedTable(built.lake, *drg, built.base_table, ranked);
      ASSERT_TRUE(materialized.ok());
      ASSERT_TRUE(oracle.ok());
      EXPECT_TRUE(materialized->Equals(*oracle));
    }

    // End to end: Augment's accuracy is the model trained on the oracle
    // table of its best path (the bare base table when no path won).
    auto augmented =
        engine.Augment(built.base_table, built.label_column,
                       ml::ModelKind::kKnn);
    ASSERT_TRUE(augmented.ok());
    auto oracle = OracleAugmentedTable(built.lake, *drg, built.base_table,
                                       augmented->best_path);
    ASSERT_TRUE(oracle.ok());
    EXPECT_TRUE(augmented->augmented.Equals(*oracle));
    ml::TrainerOptions trainer_options;
    trainer_options.seed = config.seed;
    auto expected = ml::TrainAndEvaluate(*oracle, built.label_column,
                                         ml::ModelKind::kKnn, trainer_options);
    ASSERT_TRUE(expected.ok());
    EXPECT_EQ(augmented->accuracy, expected->accuracy);
  }
}

}  // namespace
}  // namespace autofeat
