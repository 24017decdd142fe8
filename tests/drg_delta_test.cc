// DrgMatchStore: the canonical per-pair match store every discovered DRG is
// built from. Covers SetMatches orientation and the erase-on-empty rule,
// PurgeTable, re-orientation when a dropped table comes back at a new lake
// position, BuildGraph skipping pairs of absent tables, and — against a
// reference fold over every (i, j) pair — the canonical edge order.

#include "graph/drg_delta.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace autofeat {
namespace {

std::vector<PairMatch> Matches(
    std::initializer_list<std::pair<const char*, const char*>> columns,
    double score = 0.9) {
  std::vector<PairMatch> out;
  for (const auto& [l, r] : columns) {
    out.push_back({l, r, score});
    score -= 0.1;
  }
  return out;
}

// The one edge of a single-pair graph as "from.col>to.col".
std::string OnlyEdge(const DatasetRelationGraph& drg) {
  EXPECT_EQ(drg.num_edges(), 1u);
  if (drg.num_edges() != 1) return "";
  const DrgEdge e = drg.AllEdges()[0];
  return drg.NodeName(e.a) + "." + e.a_column + ">" + drg.NodeName(e.b) +
         "." + e.b_column;
}

// Independent model of the store: the last write per unordered pair, with
// the orientation it was written under.
class StoreModel {
 public:
  void Set(const std::string& left, const std::string& right,
           std::vector<PairMatch> matches) {
    const auto key = std::minmax(left, right);
    if (matches.empty()) {
      writes_.erase(key);
    } else {
      writes_[key] = {left, std::move(matches)};
    }
  }

  void Purge(const std::string& table) {
    std::erase_if(writes_, [&](const auto& w) {
      return w.first.first == table || w.first.second == table;
    });
  }

  // The fold the store must reproduce: for ascending (i, j), the pair's
  // matches oriented i -> j, probing every name pair.
  DatasetRelationGraph Fold(const std::vector<std::string>& order) const {
    DatasetRelationGraph drg;
    for (const std::string& name : order) drg.AddNode(name);
    for (size_t i = 0; i < order.size(); ++i) {
      for (size_t j = i + 1; j < order.size(); ++j) {
        auto it = writes_.find(std::minmax(order[i], order[j]));
        if (it == writes_.end()) continue;
        const bool flip = it->second.first != order[i];
        for (const PairMatch& m : it->second.second) {
          drg.AddEdge(order[i], flip ? m.right_column : m.left_column,
                      order[j], flip ? m.left_column : m.right_column,
                      m.score)
              .Abort();
        }
      }
    }
    return drg;
  }

 private:
  std::map<std::pair<std::string, std::string>,
           std::pair<std::string, std::vector<PairMatch>>>
      writes_;
};

TEST(DrgMatchStoreTest, SetMatchesOrientsAndEmptyErases) {
  DrgMatchStore store;
  store.SetMatches("orders", "customers", Matches({{"cust_id", "id"}}));
  EXPECT_EQ(store.num_pairs(), 1u);
  EXPECT_EQ(OnlyEdge(*store.BuildGraph({"orders", "customers"})),
            "orders.cust_id>customers.id");
  EXPECT_EQ(OnlyEdge(*store.BuildGraph({"customers", "orders"})),
            "customers.id>orders.cust_id");

  // Re-setting the pair from the other side replaces it.
  store.SetMatches("customers", "orders", Matches({{"id", "buyer"}}));
  EXPECT_EQ(store.num_pairs(), 1u);
  EXPECT_EQ(OnlyEdge(*store.BuildGraph({"orders", "customers"})),
            "orders.buyer>customers.id");

  // An empty vector erases the pair, from either orientation.
  store.SetMatches("orders", "customers", {});
  EXPECT_EQ(store.num_pairs(), 0u);
  EXPECT_EQ(store.BuildGraph({"orders", "customers"})->num_edges(), 0u);
}

TEST(DrgMatchStoreTest, PurgeTableDropsEveryPairInvolvingIt) {
  DrgMatchStore store;
  store.SetMatches("a", "b", Matches({{"x", "x"}}));
  store.SetMatches("c", "a", Matches({{"y", "y"}}));
  store.SetMatches("b", "c", Matches({{"z", "z"}}));
  store.PurgeTable("a");
  EXPECT_EQ(store.num_pairs(), 1u);
  EXPECT_EQ(OnlyEdge(*store.BuildGraph({"a", "b", "c"})), "b.z>c.z");
  store.PurgeTable("no_such_table");
  EXPECT_EQ(store.num_pairs(), 1u);
}

TEST(DrgMatchStoreTest, ReAddAtNewPositionReOrientsEdges) {
  // "a" precedes "b" when the pair is stored; after "a" is dropped and
  // re-added at the end of the lake, "b" comes first and the edge must be
  // emitted b -> a with its columns swapped.
  DrgMatchStore store;
  StoreModel model;
  store.SetMatches("a", "b", Matches({{"a_key", "b_key"}}));
  model.Set("a", "b", Matches({{"a_key", "b_key"}}));
  EXPECT_EQ(OnlyEdge(*store.BuildGraph({"a", "b"})), "a.a_key>b.b_key");

  auto after = store.BuildGraph({"b", "c", "a"});
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(OnlyEdge(*after), "b.b_key>a.a_key");
  EXPECT_EQ(after->OrderedFingerprint(),
            model.Fold({"b", "c", "a"}).OrderedFingerprint());
}

TEST(DrgMatchStoreTest, BuildGraphIgnoresPairsOfAbsentTables) {
  DrgMatchStore store;
  store.SetMatches("a", "b", Matches({{"k", "k"}}));
  store.SetMatches("b", "gone", Matches({{"k", "k"}}));
  store.SetMatches("gone", "also_gone", Matches({{"k", "k"}}));
  auto drg = store.BuildGraph({"a", "b"});
  ASSERT_TRUE(drg.ok());
  EXPECT_EQ(drg->num_nodes(), 2u);
  EXPECT_EQ(drg->num_edges(), 1u);
  EXPECT_FALSE(drg->NodeId("gone").ok());

  auto empty = DrgMatchStore().BuildGraph({"a", "b"});
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->num_nodes(), 2u);
  EXPECT_EQ(empty->num_edges(), 0u);
}

TEST(DrgMatchStoreTest, EdgeOrderEqualsTheAscendingPairFold) {
  // Random stores written in random pair order and orientation, with
  // purges mixed in, built over random lake orders that also omit some
  // stored tables: BuildGraph must equal the reference fold byte for byte.
  std::vector<std::string> names;
  for (int t = 0; t < 12; ++t) names.push_back("t" + std::to_string(t));
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    DrgMatchStore store;
    StoreModel model;
    for (int w = 0; w < 40; ++w) {
      const size_t a = rng.UniformIndex(names.size());
      const size_t b = rng.UniformIndex(names.size());
      if (w % 10 == 9) {
        store.PurgeTable(names[a]);
        model.Purge(names[a]);
        continue;
      }
      if (a == b) continue;
      std::vector<PairMatch> matches;
      const size_t count = rng.UniformIndex(3);  // 0 erases
      for (size_t m = 0; m < count; ++m) {
        matches.push_back({"c" + std::to_string(rng.UniformIndex(4)),
                           "c" + std::to_string(rng.UniformIndex(4)),
                           0.5 + 0.01 * static_cast<double>(m)});
      }
      model.Set(names[a], names[b], matches);
      store.SetMatches(names[a], names[b], std::move(matches));
    }
    std::vector<std::string> order = names;
    rng.Shuffle(&order);
    order.resize(order.size() - rng.UniformIndex(4));

    auto built = store.BuildGraph(order);
    ASSERT_TRUE(built.ok()) << built.status().message();
    const DatasetRelationGraph reference = model.Fold(order);
    EXPECT_EQ(built->num_edges(), reference.num_edges()) << "seed " << seed;
    EXPECT_EQ(built->AllEdges(), reference.AllEdges()) << "seed " << seed;
    EXPECT_EQ(built->OrderedFingerprint(), reference.OrderedFingerprint())
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace autofeat
