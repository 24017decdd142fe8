// Determinism gate for the parallel runtime: every parallel layer — DRG
// construction, frontier expansion, top-k path evaluation, CV folds — must
// produce byte-identical results at any thread count. Scores are compared
// with exact double equality on purpose: the contract is "same arithmetic,
// different scheduling", not "approximately equal".

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/autofeat.h"
#include "datagen/lake_builder.h"
#include "discovery/data_lake.h"
#include "ml/cross_validation.h"
#include "util/thread_pool.h"

namespace autofeat {
namespace {

datagen::BuiltLake SmallLake() {
  datagen::LakeSpec spec;
  spec.rows = 400;
  spec.joinable_tables = 6;
  spec.total_features = 30;
  return datagen::BuildLake(spec);
}

// Canonical printout of a DRG (nodes, then every pair's edge list).
std::string DrgFingerprint(const DatasetRelationGraph& drg) {
  std::ostringstream out;
  out << drg.num_nodes() << " nodes, " << drg.num_edges() << " edges\n";
  for (size_t a = 0; a < drg.num_nodes(); ++a) {
    out << a << "=" << drg.NodeName(a) << ":";
    for (size_t n : drg.Neighbors(a)) out << " " << n;
    out << "\n";
    for (size_t b = 0; b < drg.num_nodes(); ++b) {
      for (const JoinStep& e : drg.EdgesBetween(a, b)) {
        out << "  " << e.from_node << "." << e.from_column << " -> "
            << e.to_node << "." << e.to_column << " w=" << e.weight << "\n";
      }
    }
  }
  return out.str();
}

std::string RankedFingerprint(const DiscoveryResult& result) {
  std::ostringstream out;
  out << result.paths_explored << "/" << result.paths_pruned_infeasible
      << "/" << result.paths_pruned_quality << "\n";
  for (const RankedPath& rp : result.ranked) {
    out.precision(17);
    out << rp.score << " |";
    for (const JoinStep& s : rp.path.steps) {
      out << " " << s.from_node << "." << s.from_column << ">" << s.to_node
          << "." << s.to_column;
    }
    out << " |";
    for (const auto& fs : rp.selected_features) {
      out << " " << fs.name << "=" << fs.score;
    }
    out << "\n";
  }
  return out.str();
}

TEST(ParallelDeterminismTest, DrgConstructionMatchesAcrossThreadCounts) {
  datagen::BuiltLake built = SmallLake();
  MatchOptions options;
  options.threshold = 0.55;

  auto sequential = BuildDrgByDiscovery(built.lake, options);
  ASSERT_TRUE(sequential.ok());
  std::string expected = DrgFingerprint(*sequential);
  EXPECT_GT(sequential->num_edges(), 0u);

  for (size_t threads : {2u, 8u}) {
    ThreadPool pool(threads);
    auto parallel = BuildDrgByDiscovery(built.lake, options, &pool);
    ASSERT_TRUE(parallel.ok());
    EXPECT_EQ(DrgFingerprint(*parallel), expected)
        << "DRG diverged at " << threads << " threads";
  }
}

TEST(ParallelDeterminismTest, DiscoverFeaturesMatchesAcrossThreadCounts) {
  datagen::BuiltLake built = SmallLake();
  auto drg = BuildDrgFromKfk(built.lake);
  ASSERT_TRUE(drg.ok());

  // Every thread count must agree with the single-threaded run down to
  // the last bit.
  std::string expected;
  for (size_t threads : {1u, 2u, 8u}) {
    AutoFeatConfig config;
    config.sample_rows = 200;
    config.num_threads = threads;
    AutoFeat engine(&built.lake, &*drg, config);
    auto result = engine.DiscoverFeatures(built.base_table, built.label_column);
    ASSERT_TRUE(result.ok());
    EXPECT_GT(result->ranked.size(), 0u);
    std::string fingerprint = RankedFingerprint(*result);
    if (threads == 1) {
      expected = fingerprint;
    } else {
      EXPECT_EQ(fingerprint, expected)
          << "ranked paths diverged at " << threads << " threads";
    }
  }
}

TEST(ParallelDeterminismTest, AugmentMatchesAcrossThreadCounts) {
  datagen::BuiltLake built = SmallLake();
  auto drg = BuildDrgFromKfk(built.lake);
  ASSERT_TRUE(drg.ok());

  double expected_accuracy = 0.0;
  std::string expected_path;
  size_t expected_columns = 0;
  for (size_t threads : {1u, 4u}) {
    AutoFeatConfig config;
    config.sample_rows = 200;
    config.num_threads = threads;
    AutoFeat engine(&built.lake, &*drg, config);
    auto result = engine.Augment(built.base_table, built.label_column,
                                 ml::ModelKind::kKnn);
    ASSERT_TRUE(result.ok());
    std::ostringstream path;
    for (const JoinStep& s : result->best_path.path.steps) {
      path << s.from_node << "." << s.from_column << ">" << s.to_node << ";";
    }
    if (threads == 1) {
      expected_accuracy = result->accuracy;
      expected_path = path.str();
      expected_columns = result->augmented.num_columns();
    } else {
      EXPECT_EQ(result->accuracy, expected_accuracy);
      EXPECT_EQ(path.str(), expected_path);
      EXPECT_EQ(result->augmented.num_columns(), expected_columns);
    }
  }
}

TEST(ParallelDeterminismTest, CrossValidationMatchesAcrossThreadCounts) {
  datagen::BuiltLake built = SmallLake();
  auto base = built.lake.GetTable(built.base_table);
  ASSERT_TRUE(base.ok());

  ml::CrossValidationOptions sequential;
  sequential.num_threads = 1;
  auto expected = ml::CrossValidate(**base, built.label_column,
                                    ml::ModelKind::kKnn, sequential);
  ASSERT_TRUE(expected.ok());

  for (size_t threads : {2u, 4u, 8u}) {
    ml::CrossValidationOptions parallel = sequential;
    parallel.num_threads = threads;
    auto got = ml::CrossValidate(**base, built.label_column,
                                 ml::ModelKind::kKnn, parallel);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->fold_accuracies, expected->fold_accuracies);
    EXPECT_EQ(got->fold_aucs, expected->fold_aucs);
    EXPECT_EQ(got->mean_accuracy, expected->mean_accuracy);
  }
}

}  // namespace
}  // namespace autofeat
