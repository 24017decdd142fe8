// MinHash-LSH candidate index: signature determinism, banding recall on
// high-Jaccard pairs, the small-column containment rescue, cheap-profile
// prefilters, thread-count independence, Partners/CandidatePairs agreement
// (also after RemoveTable/AddTable on fuzzed lakes), and the
// BuildDrgByDiscovery candidate_mode wiring (LSH subset equality + the
// all-pairs fallback when the threshold is reachable on name evidence
// alone).

#include "discovery/lsh_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "datagen/scale_lake.h"
#include "discovery/data_lake.h"
#include "obs/metrics.h"
#include "qa/lake_fuzzer.h"
#include "util/thread_pool.h"

namespace autofeat {
namespace {

ColumnSketch MakeSketch(std::initializer_list<std::string> values) {
  ColumnSketch sketch;
  for (const auto& v : values) sketch.values.insert(v);
  sketch.num_distinct = sketch.values.size();
  return sketch;
}

Table MakeKeyTable(const std::string& table_name,
                   const std::string& column_name, int64_t lo, int64_t hi) {
  Table table(table_name);
  Column key(DataType::kInt64);
  for (int64_t v = lo; v < hi; ++v) key.AppendInt64(v);
  EXPECT_TRUE(table.AddColumn(column_name, std::move(key)).ok());
  return table;
}

using NamePair = std::pair<std::string, std::string>;

// Every table of `lake` indexed over its cached sketches.
LshCandidateIndex IndexLake(const DataLake& lake, LakeSketchCache& cache,
                            const LshOptions& options) {
  LshCandidateIndex index(options);
  for (size_t t = 0; t < lake.num_tables(); ++t) {
    index.AddTable(lake.tables()[t].name(),
                   ComputeTableLshProfiles(lake.tables()[t],
                                           *cache.GetOrBuild(t), options));
  }
  return index;
}

// The partners of `name` in a candidate pair list, ascending.
std::vector<std::string> PartnersIn(const std::vector<NamePair>& pairs,
                                    const std::string& name) {
  std::vector<std::string> partners;
  for (const auto& [a, b] : pairs) {
    if (a == name) partners.push_back(b);
    if (b == name) partners.push_back(a);
  }
  std::sort(partners.begin(), partners.end());
  return partners;
}

std::set<std::string> EdgeSet(const DatasetRelationGraph& drg) {
  std::set<std::string> edges;
  for (size_t a = 0; a < drg.num_nodes(); ++a) {
    for (size_t b : drg.Neighbors(a)) {
      if (b <= a) continue;
      for (const JoinStep& step : drg.EdgesBetween(a, b)) {
        std::ostringstream line;
        line.precision(17);
        line << drg.NodeName(a) << "." << step.from_column << ">"
             << drg.NodeName(b) << "." << step.to_column << "="
             << step.weight;
        edges.insert(line.str());
      }
    }
  }
  return edges;
}

TEST(MinHashSignatureTest, WidthAndDeterminism) {
  ColumnSketch sketch = MakeSketch({"a", "b", "c", "d"});
  MinHashSignature first = ComputeMinHashSignature(sketch, 64);
  MinHashSignature second = ComputeMinHashSignature(sketch, 64);
  ASSERT_EQ(first.mins.size(), 64u);
  EXPECT_EQ(first.mins, second.mins);
}

TEST(MinHashSignatureTest, PureFunctionOfValueSet) {
  // Same value set built in a different insertion order: the signature is a
  // min over per-value hashes, so iteration order cannot leak through.
  ColumnSketch forward = MakeSketch({"x1", "x2", "x3", "x4", "x5"});
  ColumnSketch backward = MakeSketch({"x5", "x4", "x3", "x2", "x1"});
  EXPECT_EQ(ComputeMinHashSignature(forward, 32).mins,
            ComputeMinHashSignature(backward, 32).mins);
}

TEST(MinHashSignatureTest, EmptySketchAndZeroWidth) {
  EXPECT_TRUE(ComputeMinHashSignature(ColumnSketch{}, 64).empty());
  EXPECT_TRUE(ComputeMinHashSignature(MakeSketch({"a"}), 0).empty());
}

TEST(MinHashSignatureTest, IdenticalSetsShareEveryBand) {
  // Jaccard 1 pairs must collide in every band — the bench lake's
  // within-pod recall guarantee.
  ColumnSketch a = MakeSketch({"10", "11", "12", "13", "14", "15"});
  ColumnSketch b = MakeSketch({"15", "14", "13", "12", "11", "10"});
  EXPECT_EQ(ComputeMinHashSignature(a, 64).mins,
            ComputeMinHashSignature(b, 64).mins);
}

TEST(LshValueHashTest, StableAndSpread) {
  EXPECT_EQ(LshValueHash("key"), LshValueHash("key"));
  EXPECT_NE(LshValueHash("key"), LshValueHash("kez"));
  EXPECT_NE(LshValueHash(""), LshValueHash("0"));
}

TEST(LshCandidateIndexTest, SharedKeyDomainBecomesCandidate) {
  DataLake lake;
  ASSERT_TRUE(lake.AddTable(MakeKeyTable("left", "id", 0, 100)).ok());
  ASSERT_TRUE(lake.AddTable(MakeKeyTable("right", "id", 0, 100)).ok());
  LakeSketchCache cache = LakeSketchCache::Build(lake, 4096);
  LshCandidateIndex index = IndexLake(lake, cache, LshOptions{});
  ASSERT_EQ(index.CandidatePairs().size(), 1u);
  EXPECT_EQ(index.CandidatePairs()[0], (NamePair{"left", "right"}));
  EXPECT_EQ(index.Partners("left"), std::vector<std::string>{"right"});
  EXPECT_EQ(index.Partners("right"), std::vector<std::string>{"left"});
}

TEST(LshCandidateIndexTest, DisjointKeyDomainsArePruned) {
  DataLake lake;
  ASSERT_TRUE(lake.AddTable(MakeKeyTable("left", "id_a", 0, 100)).ok());
  ASSERT_TRUE(lake.AddTable(MakeKeyTable("right", "id_b", 1000, 1100)).ok());
  LakeSketchCache cache = LakeSketchCache::Build(lake, 4096);
  LshCandidateIndex index = IndexLake(lake, cache, LshOptions{});
  EXPECT_TRUE(index.CandidatePairs().empty());
  EXPECT_TRUE(index.Partners("left").empty());
}

TEST(LshCandidateIndexTest, SmallColumnRescueCatchesContainment) {
  // 5 values contained in 40: Jaccard 0.125, low enough that 32x2 banding
  // misses with good probability — the small-column rescue must guarantee
  // the candidate instead.
  DataLake lake;
  ASSERT_TRUE(lake.AddTable(MakeKeyTable("fk_side", "ref", 10, 15)).ok());
  ASSERT_TRUE(lake.AddTable(MakeKeyTable("pk_side", "ref", 0, 40)).ok());
  LakeSketchCache cache = LakeSketchCache::Build(lake, 4096);
  LshOptions options;
  ASSERT_LE(40u, options.small_column_rescue);
  LshCandidateIndex index = IndexLake(lake, cache, options);
  ASSERT_EQ(index.CandidatePairs().size(), 1u);

  // With the rescue disabled the pair may or may not band-collide; with
  // rescue but no overlap there must be no candidate.
  DataLake disjoint;
  ASSERT_TRUE(disjoint.AddTable(MakeKeyTable("fk_side", "ref", 50, 55)).ok());
  ASSERT_TRUE(disjoint.AddTable(MakeKeyTable("pk_side", "ref", 0, 40)).ok());
  LakeSketchCache disjoint_cache = LakeSketchCache::Build(disjoint, 4096);
  EXPECT_TRUE(
      IndexLake(disjoint, disjoint_cache, options).CandidatePairs().empty());
}

TEST(LshCandidateIndexTest, MinDistinctPrefilterSkipsColumns) {
  DataLake lake;
  ASSERT_TRUE(lake.AddTable(MakeKeyTable("left", "flag", 0, 2)).ok());
  ASSERT_TRUE(lake.AddTable(MakeKeyTable("right", "flag", 0, 2)).ok());
  LakeSketchCache cache = LakeSketchCache::Build(lake, 4096);
  LshOptions options;
  options.min_distinct = 3;
  LshCandidateIndex index = IndexLake(lake, cache, options);
  EXPECT_TRUE(index.CandidatePairs().empty());
  MatchOptions match;
  match.candidate_mode = CandidateMode::kLsh;
  match.lsh = options;
  obs::MetricsRegistry metrics;
  ASSERT_TRUE(BuildDrgByDiscovery(lake, match, nullptr, &metrics).ok());
  EXPECT_EQ(metrics.CounterValue("lsh.columns_indexed"), 0u);
  EXPECT_EQ(metrics.CounterValue("lsh.columns_skipped"), 2u);
}

TEST(LshCandidateIndexTest, CardinalityRatioBoundPrunesAsymmetricPairs) {
  DataLake lake;
  ASSERT_TRUE(lake.AddTable(MakeKeyTable("small", "id", 0, 4)).ok());
  ASSERT_TRUE(lake.AddTable(MakeKeyTable("large", "id", 0, 64)).ok());
  LakeSketchCache cache = LakeSketchCache::Build(lake, 4096);
  LshOptions options;
  options.max_cardinality_ratio = 4.0;  // 64/4 = 16 > 4: prune
  EXPECT_TRUE(IndexLake(lake, cache, options).CandidatePairs().empty());
  EXPECT_TRUE(IndexLake(lake, cache, options).Partners("small").empty());
  options.max_cardinality_ratio = 32.0;  // 16 <= 32: keep
  EXPECT_EQ(IndexLake(lake, cache, options).CandidatePairs().size(), 1u);
  EXPECT_EQ(IndexLake(lake, cache, options).Partners("small"),
            std::vector<std::string>{"large"});
}

TEST(LshCandidateIndexTest, TypeGroupsNeverShareBuckets) {
  // An int64 column and a double column with byte-identical value strings
  // must not collide: the exact matcher would never score that pair.
  DataLake lake;
  Table ints("ints");
  Column ic(DataType::kInt64);
  for (int64_t v = 0; v < 32; ++v) ic.AppendInt64(v);
  ASSERT_TRUE(ints.AddColumn("c", std::move(ic)).ok());
  ASSERT_TRUE(lake.AddTable(std::move(ints)).ok());
  Table doubles("doubles");
  Column dc(DataType::kDouble);
  for (int64_t v = 0; v < 32; ++v) dc.AppendDouble(static_cast<double>(v));
  ASSERT_TRUE(doubles.AddColumn("c", std::move(dc)).ok());
  ASSERT_TRUE(lake.AddTable(std::move(doubles)).ok());
  LakeSketchCache cache = LakeSketchCache::Build(lake, 4096);
  for (const NamePair& pair :
       IndexLake(lake, cache, LshOptions{}).CandidatePairs()) {
    // Only a same-group collision could pair these two tables.
    EXPECT_NE(pair, (NamePair{"doubles", "ints"}));
  }
}

TEST(LshCandidateIndexTest, ThreadCountIndependent) {
  // Profiles are computed in a fan-out over the touched tables; the
  // candidates and every counter derived from the index must not depend on
  // the thread count.
  datagen::ScaleLakeSpec spec;
  spec.num_tables = 20;
  DataLake lake = datagen::BuildScaleLake(spec);
  MatchOptions options;
  options.candidate_mode = CandidateMode::kLsh;
  obs::MetricsRegistry sequential;
  auto drg1 = BuildDrgByDiscovery(lake, options, nullptr, &sequential);
  ThreadPool pool(4);
  obs::MetricsRegistry parallel;
  auto drg4 = BuildDrgByDiscovery(lake, options, &pool, &parallel);
  ASSERT_TRUE(drg1.ok());
  ASSERT_TRUE(drg4.ok());
  EXPECT_EQ(drg1->OrderedFingerprint(), drg4->OrderedFingerprint());
  for (const char* name : {"drg.candidate_pairs", "lsh.signature_bytes",
                           "lsh.bucket_collisions", "lsh.columns_indexed"}) {
    EXPECT_EQ(sequential.CounterValue(name), parallel.CounterValue(name))
        << name;
  }
  EXPECT_EQ(sequential.GaugeValue("lsh_index.bytes"),
            parallel.GaugeValue("lsh_index.bytes"));
}

TEST(LshCandidateIndexTest, RecordsCountersAndByteGauges) {
  datagen::ScaleLakeSpec spec;
  spec.num_tables = 10;
  DataLake lake = datagen::BuildScaleLake(spec);
  LakeSketchCache cache = LakeSketchCache::Build(lake, 4096);
  LshCandidateIndex index = IndexLake(lake, cache, LshOptions{});
  size_t collisions = 0;
  const size_t num_pairs = index.CandidatePairs(&collisions).size();
  size_t signature_bytes = 0;
  for (size_t t = 0; t < lake.num_tables(); ++t) {
    for (const ColumnLshProfile& profile : ComputeTableLshProfiles(
             lake.tables()[t], *cache.GetOrBuild(t), LshOptions{})) {
      signature_bytes += profile.signature_bytes;
    }
  }

  MatchOptions options;
  options.candidate_mode = CandidateMode::kLsh;
  obs::MetricsRegistry metrics;
  ASSERT_TRUE(BuildDrgByDiscovery(lake, options, nullptr, &metrics).ok());
  EXPECT_EQ(metrics.GetCounter("lsh.bands")->value(), LshOptions{}.num_bands);
  EXPECT_EQ(metrics.GetCounter("lsh.signature_bytes")->value(),
            signature_bytes);
  EXPECT_GT(metrics.GetCounter("lsh.columns_indexed")->value(), 0u);
  EXPECT_EQ(metrics.GetCounter("lsh.bucket_collisions")->value(), collisions);
  // The gauge covers the index, the signatures and the candidate list.
  const size_t bytes = index.ApproxBytes() + signature_bytes +
                       num_pairs * sizeof(std::pair<size_t, size_t>);
  EXPECT_EQ(metrics.GetGauge("lsh_index.bytes")->value(),
            static_cast<int64_t>(bytes));
  EXPECT_EQ(metrics.GetGauge("lsh_index.bytes_peak")->value(),
            static_cast<int64_t>(bytes));
  EXPECT_GT(signature_bytes, 0u);
}

TEST(LshCandidateIndexTest, PartnersAgreeWithCandidatePairs) {
  datagen::ScaleLakeSpec spec;
  spec.num_tables = 25;
  DataLake lake = datagen::BuildScaleLake(spec);
  LakeSketchCache cache = LakeSketchCache::Build(lake, 4096);
  LshCandidateIndex index = IndexLake(lake, cache, LshOptions{});
  size_t pair_collisions = 0;
  const std::vector<NamePair> pairs = index.CandidatePairs(&pair_collisions);
  ASSERT_FALSE(pairs.empty());
  EXPECT_TRUE(std::is_sorted(pairs.begin(), pairs.end()));
  EXPECT_GE(pair_collisions, pairs.size());
  for (const std::string& name : lake.TableNames()) {
    EXPECT_EQ(index.Partners(name), PartnersIn(pairs, name)) << name;
  }
  EXPECT_TRUE(index.Partners("no_such_table").empty());
}

TEST(LshCandidateIndexTest, RemoveAndReAddMatchFreshIndexOnFuzzedLakes) {
  // Incremental maintenance removes and re-adds single tables; afterwards
  // every table's partners must equal the pairs containing it in a fresh
  // index over the same tables, and the footprint must match too.
  qa::LakeFuzzer fuzzer;
  size_t lakes_with_pairs = 0;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    DataLake lake = fuzzer.Generate(seed).lake;
    LakeSketchCache cache = LakeSketchCache::Build(lake, 4096);
    LshCandidateIndex incremental = IndexLake(lake, cache, LshOptions{});
    const std::vector<std::string> names = lake.TableNames();
    auto profiles_of = [&](size_t t) {
      return ComputeTableLshProfiles(lake.tables()[t], *cache.GetOrBuild(t),
                                     LshOptions{});
    };
    // Drop every other table, then re-add them in reverse order (fresh
    // slots, reused slots), and re-add one table in place.
    for (size_t t = 0; t < names.size(); t += 2) {
      incremental.RemoveTable(names[t]);
    }
    for (size_t t = names.size(); t-- > 0;) {
      if (t % 2 == 0) incremental.AddTable(names[t], profiles_of(t));
    }
    incremental.AddTable(names.back(), profiles_of(names.size() - 1));

    LshCandidateIndex fresh = IndexLake(lake, cache, LshOptions{});
    const std::vector<NamePair> pairs = fresh.CandidatePairs();
    if (!pairs.empty()) ++lakes_with_pairs;
    EXPECT_EQ(incremental.CandidatePairs(), pairs) << "seed " << seed;
    for (const std::string& name : names) {
      EXPECT_EQ(incremental.Partners(name), PartnersIn(pairs, name))
          << "seed " << seed << " table " << name;
    }
    EXPECT_EQ(incremental.ApproxBytes(), fresh.ApproxBytes());

    // Removing a table drops exactly the pairs containing it.
    incremental.RemoveTable(names.front());
    std::vector<NamePair> without;
    for (const NamePair& p : pairs) {
      if (p.first != names.front() && p.second != names.front()) {
        without.push_back(p);
      }
    }
    EXPECT_EQ(incremental.CandidatePairs(), without) << "seed " << seed;
    EXPECT_TRUE(incremental.Partners(names.front()).empty());
  }
  EXPECT_GE(lakes_with_pairs, 3u);
}

TEST(DiscoveryCandidateModeTest, LshFindsExactlyTheAllPairsEdges) {
  // Pod lake: within-pod containment 1 — every true edge's pair is a
  // guaranteed band collision, so the two modes must agree edge-for-edge.
  datagen::ScaleLakeSpec spec;
  spec.num_tables = 15;
  DataLake lake = datagen::BuildScaleLake(spec);
  MatchOptions exact;
  auto all_pairs = BuildDrgByDiscovery(lake, exact);
  ASSERT_TRUE(all_pairs.ok());
  MatchOptions lsh;
  lsh.candidate_mode = CandidateMode::kLsh;
  auto filtered = BuildDrgByDiscovery(lake, lsh);
  ASSERT_TRUE(filtered.ok());
  EXPECT_EQ(all_pairs->num_edges(), datagen::ExpectedScaleLakeEdges(spec));
  EXPECT_EQ(EdgeSet(*all_pairs), EdgeSet(*filtered));
}

TEST(DiscoveryCandidateModeTest, CandidateCountersAccountForPruning) {
  datagen::ScaleLakeSpec spec;
  spec.num_tables = 15;  // 105 table pairs, ~25 within-pod candidates
  DataLake lake = datagen::BuildScaleLake(spec);
  MatchOptions options;
  options.candidate_mode = CandidateMode::kLsh;
  obs::MetricsRegistry metrics;
  ASSERT_TRUE(BuildDrgByDiscovery(lake, options, nullptr, &metrics).ok());
  uint64_t candidates = metrics.GetCounter("drg.candidate_pairs")->value();
  uint64_t pruned = metrics.GetCounter("drg.pairs_pruned")->value();
  uint64_t scored = metrics.GetCounter("drg.pairs_scored")->value();
  EXPECT_EQ(candidates + pruned, 15u * 14u / 2u);
  EXPECT_EQ(scored, candidates);
  EXPECT_LT(candidates, 15u * 14u / 2u);
}

TEST(DiscoveryCandidateModeTest, AllPairsModeReportsZeroPruned) {
  datagen::ScaleLakeSpec spec;
  spec.num_tables = 10;
  DataLake lake = datagen::BuildScaleLake(spec);
  obs::MetricsRegistry metrics;
  ASSERT_TRUE(BuildDrgByDiscovery(lake, MatchOptions{}, nullptr, &metrics)
                  .ok());
  EXPECT_EQ(metrics.GetCounter("drg.candidate_pairs")->value(), 45u);
  EXPECT_EQ(metrics.GetCounter("drg.pairs_pruned")->value(), 0u);
}

TEST(DiscoveryCandidateModeTest, NameReachableThresholdFallsBackToAllPairs) {
  // threshold <= name_weight: an edge could exist with zero value overlap,
  // which LSH cannot witness — discovery must fall back to the exhaustive
  // sweep rather than lose those edges.
  datagen::ScaleLakeSpec spec;
  spec.num_tables = 10;
  DataLake lake = datagen::BuildScaleLake(spec);
  MatchOptions options;
  options.candidate_mode = CandidateMode::kLsh;
  options.threshold = 0.45;  // < name_weight 0.5
  obs::MetricsRegistry metrics;
  ASSERT_TRUE(BuildDrgByDiscovery(lake, options, nullptr, &metrics).ok());
  EXPECT_EQ(metrics.GetCounter("drg.candidate_pairs")->value(), 45u);
  EXPECT_EQ(metrics.GetCounter("drg.pairs_pruned")->value(), 0u);
}

}  // namespace
}  // namespace autofeat
