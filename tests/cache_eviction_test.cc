// Memory-budgeted cache eviction: LRU order, the cost-aware victim
// tie-break, budget enforcement (the bytes gauges never exceed the budget),
// rebuild-on-miss reproducibility, pin lifetime across eviction, and the
// metrics-as-assertion accounting audit for both lake caches
// (JoinIndexCache and LakeSketchCache).
//
// The concurrent stress tests at the bottom are the TSan targets: workers
// hammer GetOrBuild while other workers run the adversarial eviction
// schedules (EvictAll / EvictRandomHalf) underneath them.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/lake_builder.h"
#include "discovery/data_lake.h"
#include "discovery/join_index_cache.h"
#include "discovery/sketch_cache.h"
#include "graph/drg.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "relational/join_index.h"
#include "table/column.h"
#include "table/table.h"
#include "util/thread_pool.h"

namespace autofeat {
namespace {

// A table whose key column "k" holds `keys` distinct string keys of width
// `width` plus a payload column — footprint of the join index (and of the
// column sketch) grows with both knobs.
Table KeyTable(const std::string& name, size_t keys, size_t width) {
  std::vector<std::string> k(keys);
  std::vector<double> v(keys);
  for (size_t i = 0; i < keys; ++i) {
    k[i] = name + "_" + std::string(width, 'x') + std::to_string(i);
    v[i] = static_cast<double>(i);
  }
  Table table(name);
  table.AddColumn("k", Column::Strings(k)).Abort();
  table.AddColumn("v", Column::Doubles(v)).Abort();
  return table;
}

DataLake LakeOf(std::vector<Table> tables) {
  DataLake lake;
  for (Table& t : tables) lake.AddTable(std::move(t)).Abort();
  return lake;
}

// Footprint of one (table, "k") join-index entry, measured with a throwaway
// unbudgeted cache.
size_t IndexEntryBytes(const DataLake& lake, const std::string& table) {
  JoinIndexCache probe(&lake, /*seed=*/7);
  probe.GetOrBuild(table, "k").status().Abort();
  return probe.resident_bytes();
}

// Footprint of one table's sketch-cache entry, likewise.
size_t SketchEntryBytes(const DataLake& lake, size_t table_index) {
  LakeSketchCache probe(&lake, /*max_sample=*/64);
  probe.GetOrBuild(table_index);
  return probe.resident_bytes();
}

int64_t Counter(const obs::MetricsRegistry& registry, const std::string& n) {
  return registry.CounterValue(n);
}

// ---------------------------------------------------------------------------
// JoinIndexCache
// ---------------------------------------------------------------------------

TEST(JoinIndexCacheEvictionTest, UnbudgetedCacheNeverEvicts) {
  DataLake lake = LakeOf({KeyTable("a", 50, 8), KeyTable("b", 80, 8),
                          KeyTable("c", 20, 8)});
  obs::MetricsRegistry registry;
  JoinIndexCache cache(&lake, 7, &registry);
  for (const char* t : {"a", "b", "c"}) {
    cache.GetOrBuild(t, "k").status().Abort();
  }
  EXPECT_EQ(cache.num_entries(), 3u);
  EXPECT_EQ(cache.num_resident(), 3u);
  EXPECT_EQ(Counter(registry, "join_index_cache.evictions"), 0);
  EXPECT_EQ(Counter(registry, "join_index_cache.rebuilds"), 0);
  EXPECT_EQ(registry.GaugeValue("join_index_cache.bytes"),
            static_cast<int64_t>(cache.resident_bytes()));
}

TEST(JoinIndexCacheEvictionTest, LruEvictsLeastRecentlyUsedFirst) {
  // Three tables with identical key shapes (same count, same lengths —
  // ApproxBytes is size-based), so every entry has the same footprint E and
  // the recency order alone decides the victim.
  DataLake lake = LakeOf({KeyTable("a", 40, 8), KeyTable("b", 40, 8),
                          KeyTable("c", 40, 8)});
  const size_t entry = IndexEntryBytes(lake, "a");
  ASSERT_GT(entry, 0u);
  ASSERT_EQ(entry, IndexEntryBytes(lake, "b"));

  obs::MetricsRegistry registry;
  JoinIndexCache cache(&lake, 7, &registry, nullptr,
                       /*budget_bytes=*/2 * entry);
  cache.GetOrBuild("a", "k").status().Abort();
  cache.GetOrBuild("b", "k").status().Abort();
  EXPECT_EQ(cache.num_resident(), 2u);
  // Touch `a`: now `b` is the least recently used.
  cache.GetOrBuild("a", "k").status().Abort();
  cache.GetOrBuild("c", "k").status().Abort();
  EXPECT_EQ(cache.num_resident(), 2u);
  EXPECT_EQ(Counter(registry, "join_index_cache.evictions"), 1);

  // `a` and `c` must still be resident (hits), `b` must have been the
  // victim (rebuild).
  EXPECT_EQ(Counter(registry, "join_index_cache.rebuilds"), 0);
  cache.GetOrBuild("c", "k").status().Abort();
  EXPECT_EQ(Counter(registry, "join_index_cache.rebuilds"), 0);
  cache.GetOrBuild("b", "k").status().Abort();
  EXPECT_EQ(Counter(registry, "join_index_cache.rebuilds"), 1);
}

TEST(JoinIndexCacheEvictionTest, PrewarmEvictsTheLargestEntryFirst) {
  // All Prewarm entries share one recency tick, so the victim choice falls
  // through to the cost-aware tie-break: largest footprint goes first.
  // Prewarm inserts targets in sorted name order — (sat_small, sat_wide,
  // zbase) here — and the budget is one byte short of the total, so exactly
  // one eviction fires while inserting `zbase`, and its victim must be the
  // wide entry even though the small one is equally recent.
  DataLake lake = LakeOf({KeyTable("sat_small", 16, 4),
                          KeyTable("sat_wide", 200, 32),
                          KeyTable("zbase", 8, 4)});
  lake.AddKfk({"zbase", "k", "sat_small", "k"});
  lake.AddKfk({"zbase", "k", "sat_wide", "k"});
  const size_t small = IndexEntryBytes(lake, "sat_small");
  const size_t wide = IndexEntryBytes(lake, "sat_wide");
  const size_t base = IndexEntryBytes(lake, "zbase");
  ASSERT_LT(small, wide);
  ASSERT_LT(base, wide);

  auto drg = BuildDrgFromKfk(lake);
  drg.status().Abort();
  obs::MetricsRegistry registry;
  JoinIndexCache cache(&lake, 7, &registry, nullptr,
                       /*budget_bytes=*/small + wide + base - 1);
  cache.Prewarm(*drg);
  EXPECT_EQ(cache.num_resident(), 2u);
  EXPECT_EQ(cache.resident_bytes(), small + base);
  EXPECT_EQ(Counter(registry, "join_index_cache.evictions"), 1);

  EXPECT_EQ(Counter(registry, "join_index_cache.rebuilds"), 0);
  cache.GetOrBuild("sat_small", "k").status().Abort();
  cache.GetOrBuild("zbase", "k").status().Abort();
  EXPECT_EQ(Counter(registry, "join_index_cache.rebuilds"), 0);
  cache.GetOrBuild("sat_wide", "k").status().Abort();
  EXPECT_EQ(Counter(registry, "join_index_cache.rebuilds"), 1);
}

TEST(JoinIndexCacheEvictionTest, BudgetIsNeverExceeded) {
  DataLake lake = LakeOf({KeyTable("a", 30, 6), KeyTable("b", 60, 10),
                          KeyTable("c", 90, 14), KeyTable("d", 120, 18),
                          KeyTable("e", 15, 4)});
  const size_t largest = IndexEntryBytes(lake, "d");
  const size_t budget = largest + largest / 2;

  obs::MetricsRegistry registry;
  JoinIndexCache cache(&lake, 7, &registry, nullptr, budget);
  const char* names[] = {"a", "b", "c", "d", "e"};
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 5; ++i) {
      const char* t = names[(i * 3 + round) % 5];
      auto pin = cache.GetOrBuild(t, "k");
      pin.status().Abort();
      EXPECT_LE(cache.resident_bytes(), budget);
      EXPECT_LE(registry.GaugeValue("join_index_cache.bytes"),
                static_cast<int64_t>(budget));
    }
    if (round == 1) cache.EvictRandomHalf(round);
    if (round == 2) cache.EvictAll();
  }
  // The peak gauge — the high-water mark across the whole run — must also
  // respect the budget: eviction happens before an insertion overflows.
  EXPECT_LE(registry.GaugeValue("join_index_cache.bytes_peak"),
            static_cast<int64_t>(budget));
  EXPECT_GT(registry.GaugeValue("join_index_cache.bytes_peak"), 0);
}

TEST(JoinIndexCacheEvictionTest, OversizedEntryStaysPinOnly) {
  DataLake lake = LakeOf({KeyTable("big", 100, 24)});
  const size_t entry = IndexEntryBytes(lake, "big");
  obs::MetricsRegistry registry;
  JoinIndexCache cache(&lake, 7, &registry, nullptr,
                       /*budget_bytes=*/entry / 2);
  auto pin = cache.GetOrBuild("big", "k");
  pin.status().Abort();
  EXPECT_EQ((*pin)->num_distinct_keys(), 100u);
  // The entry is handed to the caller but never becomes resident, so the
  // byte gauges stay within the (too-small) budget.
  EXPECT_EQ(cache.num_resident(), 0u);
  EXPECT_EQ(cache.resident_bytes(), 0u);
  EXPECT_EQ(registry.GaugeValue("join_index_cache.bytes"), 0);
  EXPECT_EQ(registry.GaugeValue("join_index_cache.bytes_peak"), 0);
}

TEST(JoinIndexCacheEvictionTest, RebuildReproducesTheIdenticalEntry) {
  DataLake lake = LakeOf({KeyTable("a", 64, 8)});
  // Duplicate some keys so the representative draws actually consume the
  // per-entry RNG stream (the reproducibility claim under test).
  Table dup("dup");
  dup.AddColumn("k", Column::Strings({"x", "y", "x", "y", "x", "z"})).Abort();
  dup.AddColumn("v", Column::Doubles({1, 2, 3, 4, 5, 6})).Abort();
  lake.AddTable(std::move(dup)).Abort();

  JoinIndexCache cache(&lake, /*seed=*/42);
  auto first = cache.GetOrBuild("dup", "k");
  first.status().Abort();
  const std::vector<uint32_t> reps = (*first)->representative;
  cache.EvictAll();
  EXPECT_EQ(cache.num_resident(), 0u);
  auto rebuilt = cache.GetOrBuild("dup", "k");
  rebuilt.status().Abort();
  EXPECT_NE(first->get(), rebuilt->get());
  EXPECT_EQ((*rebuilt)->representative, reps);
  // And a fresh cache with the same seed builds the same entry too.
  JoinIndexCache other(&lake, /*seed=*/42);
  auto independent = other.GetOrBuild("dup", "k");
  independent.status().Abort();
  EXPECT_EQ((*independent)->representative, reps);
}

TEST(JoinIndexCacheEvictionTest, PinOutlivesEviction) {
  DataLake lake = LakeOf({KeyTable("a", 32, 8)});
  JoinIndexCache cache(&lake, 7);
  auto pin = cache.GetOrBuild("a", "k");
  pin.status().Abort();
  cache.EvictAll();
  EXPECT_EQ(cache.num_resident(), 0u);
  // The pin keeps the evicted index alive and usable (ASan checks this).
  EXPECT_EQ((*pin)->num_distinct_keys(), 32u);
  EXPECT_GT((*pin)->ApproxBytes(), 0u);
}

TEST(JoinIndexCacheEvictionTest, EvictRandomHalfIsDeterministic) {
  DataLake lake = LakeOf({KeyTable("a", 10, 4), KeyTable("b", 10, 4),
                          KeyTable("c", 10, 4), KeyTable("d", 10, 4),
                          KeyTable("e", 10, 4), KeyTable("f", 10, 4)});
  auto populate = [&lake](JoinIndexCache* cache) {
    for (const char* t : {"a", "b", "c", "d", "e", "f"}) {
      cache->GetOrBuild(t, "k").status().Abort();
    }
  };
  // Same draw, same resident survivors.
  JoinIndexCache c1(&lake, 7), c2(&lake, 7), c3(&lake, 7);
  populate(&c1);
  populate(&c2);
  populate(&c3);
  c1.EvictRandomHalf(0xABCDEF);
  c2.EvictRandomHalf(0xABCDEF);
  EXPECT_EQ(c1.num_resident(), c2.num_resident());
  // A draw and its bit-flipped complement evict complementary halves.
  c3.EvictRandomHalf(0xABCDEF ^ 1);
  EXPECT_EQ(c1.num_resident() + c3.num_resident(), 6u);
}

// Satellite 4: metrics-as-assertion accounting audit. After Prewarm over a
// generated lake, the bytes gauge, the cache's own resident_bytes() and the
// sum of the per-entry ApproxBytes must all agree exactly, and the lake
// footprint is the sum of the tables' ApproxBytes.
TEST(JoinIndexCacheEvictionTest, PrewarmAccountingAudit) {
  datagen::LakeSpec spec;
  spec.rows = 200;
  spec.joinable_tables = 4;
  spec.total_features = 20;
  datagen::BuiltLake built = datagen::BuildLake(spec);
  auto drg = BuildDrgFromKfk(built.lake);
  drg.status().Abort();

  obs::MetricsRegistry registry;
  JoinIndexCache cache(&built.lake, 42, &registry);
  ThreadPool pool(4);
  cache.Prewarm(*drg, &pool);
  ASSERT_GT(cache.num_resident(), 0u);
  EXPECT_EQ(cache.num_resident(), cache.num_entries());

  // Re-requesting every prewarmed target must be a pure hit (no rebuilds)
  // and lets us sum the independent per-entry footprints.
  const int64_t builds = Counter(registry, "join_index_cache.builds");
  size_t pinned_bytes = 0;
  for (size_t node = 0; node < (*drg).num_nodes(); ++node) {
    for (size_t neighbor : (*drg).Neighbors(node)) {
      for (const JoinStep& edge : (*drg).EdgesBetween(node, neighbor)) {
        auto pin =
            cache.GetOrBuild((*drg).NodeName(edge.to_node), edge.to_column);
        pin.status().Abort();
        pinned_bytes += (*pin)->ApproxBytes();
      }
    }
  }
  EXPECT_EQ(Counter(registry, "join_index_cache.builds"), builds);
  EXPECT_EQ(Counter(registry, "join_index_cache.rebuilds"), 0);
  // Some (to_node, to_column) targets repeat across edge orientations;
  // dedupe by accepting pinned_bytes as an upper multiple — but the gauge
  // itself must equal resident_bytes exactly.
  EXPECT_EQ(registry.GaugeValue("join_index_cache.bytes"),
            static_cast<int64_t>(cache.resident_bytes()));
  EXPECT_GE(pinned_bytes, cache.resident_bytes());

  // Lake accounting: the per-table footprints sum to the lake footprint
  // reported by the CLI's lake.bytes gauge.
  size_t lake_bytes = 0;
  for (const Table& table : built.lake.tables()) {
    lake_bytes += table.ApproxBytes();
  }
  EXPECT_GT(lake_bytes, 0u);
  EXPECT_GT(lake_bytes, cache.resident_bytes());
}

TEST(JoinIndexCacheEvictionTest, ConcurrentHitsEvictionsAndRebuilds) {
  DataLake lake = LakeOf({KeyTable("a", 40, 8), KeyTable("b", 70, 12),
                          KeyTable("c", 100, 16), KeyTable("d", 25, 6)});
  const size_t expected[] = {40, 70, 100, 25};
  const char* names[] = {"a", "b", "c", "d"};
  const size_t budget = IndexEntryBytes(lake, "c") + IndexEntryBytes(lake, "b");

  obs::MetricsRegistry registry;
  JoinIndexCache cache(&lake, 7, &registry, nullptr, budget);
  ThreadPool pool(8);
  std::atomic<int> failures{0};
  ParallelFor(&pool, 0, 512, /*grain=*/1, [&](size_t i) {
    if (i % 13 == 0) {
      cache.EvictAll();
      return;
    }
    if (i % 7 == 0) {
      cache.EvictRandomHalf(i);
      return;
    }
    const size_t t = i % 4;
    auto pin = cache.GetOrBuild(names[t], "k");
    if (!pin.ok() || (*pin)->num_distinct_keys() != expected[t]) {
      failures.fetch_add(1, std::memory_order_relaxed);
    }
  });
  EXPECT_EQ(failures.load(), 0);
  EXPECT_LE(cache.resident_bytes(), budget);
  EXPECT_LE(registry.GaugeValue("join_index_cache.bytes_peak"),
            static_cast<int64_t>(budget));
}

// ---------------------------------------------------------------------------
// LakeSketchCache
// ---------------------------------------------------------------------------

TEST(LakeSketchCacheEvictionTest, BudgetEvictionAndRebuild) {
  DataLake lake = LakeOf({KeyTable("a", 30, 6), KeyTable("b", 60, 10),
                          KeyTable("c", 90, 14), KeyTable("d", 45, 8)});
  const size_t largest = SketchEntryBytes(lake, 2);
  const size_t budget = largest + largest / 2;

  obs::MetricsRegistry registry;
  LakeSketchCache cache(&lake, /*max_sample=*/64, &registry, budget);
  std::vector<LakeSketchCache::TableSketchesPin> first(4);
  for (int round = 0; round < 3; ++round) {
    for (size_t t = 0; t < 4; ++t) {
      LakeSketchCache::TableSketchesPin pin = cache.GetOrBuild(t);
      ASSERT_NE(pin, nullptr);
      ASSERT_EQ(pin->size(), 2u);  // "k" and "v"
      EXPECT_LE(cache.resident_bytes(), budget);
      if (round == 0) {
        first[t] = pin;
      } else {
        // Rebuilt-after-eviction sketches are value-identical to the
        // originals (same sampled sets, same distinct counts).
        for (size_t col = 0; col < 2; ++col) {
          EXPECT_EQ((*pin)[col].values, (*first[t])[col].values);
          EXPECT_EQ((*pin)[col].num_distinct, (*first[t])[col].num_distinct);
        }
      }
    }
  }
  EXPECT_GT(Counter(registry, "sketch_cache.evictions"), 0);
  EXPECT_GT(Counter(registry, "sketch_cache.rebuilds"), 0);
  EXPECT_LE(registry.GaugeValue("sketch_cache.bytes_peak"),
            static_cast<int64_t>(budget));
}

TEST(LakeSketchCacheEvictionTest, PrewarmAccountingAudit) {
  DataLake lake = LakeOf({KeyTable("a", 30, 6), KeyTable("b", 60, 10),
                          KeyTable("c", 15, 4)});
  obs::MetricsRegistry registry;
  LakeSketchCache cache =
      LakeSketchCache::Build(lake, /*max_sample=*/64, nullptr, &registry);
  EXPECT_EQ(cache.num_resident(), 3u);

  size_t pinned_bytes = 0;
  for (size_t t = 0; t < lake.num_tables(); ++t) {
    LakeSketchCache::TableSketchesPin pin = cache.GetOrBuild(t);
    size_t entry = sizeof(std::vector<ColumnSketch>);
    for (const ColumnSketch& sketch : *pin) entry += sketch.ApproxBytes();
    pinned_bytes += entry;
  }
  EXPECT_EQ(cache.resident_bytes(), pinned_bytes);
  EXPECT_EQ(registry.GaugeValue("sketch_cache.bytes"),
            static_cast<int64_t>(pinned_bytes));
  EXPECT_EQ(registry.GaugeValue("sketch_cache.bytes_peak"),
            static_cast<int64_t>(pinned_bytes));
}

TEST(LakeSketchCacheEvictionTest, EvictAllKeepsPinsValidAndRebuilds) {
  DataLake lake = LakeOf({KeyTable("a", 20, 6), KeyTable("b", 20, 6)});
  LakeSketchCache cache(&lake, /*max_sample=*/32);
  LakeSketchCache::TableSketchesPin pin = cache.GetOrBuild(0);
  cache.EvictAll();
  EXPECT_EQ(cache.num_resident(), 0u);
  EXPECT_EQ(cache.resident_bytes(), 0u);
  // The pin still reads the evicted entry; a fresh pin transparently
  // rebuilds and serves identical content.
  ASSERT_EQ(pin->size(), 2u);
  LakeSketchCache::TableSketchesPin again = cache.GetOrBuild(0);
  ASSERT_EQ(again->size(), 2u);
  EXPECT_EQ((*again)[0].values, (*pin)[0].values);
  EXPECT_EQ((*again)[0].num_distinct, (*pin)[0].num_distinct);
  EXPECT_EQ(cache.num_resident(), 1u);
}

TEST(LakeSketchCacheEvictionTest, EvictAllAppendsOneEventPerResidentEntry) {
  DataLake lake = LakeOf({KeyTable("a", 20, 6), KeyTable("b", 20, 6),
                          KeyTable("c", 20, 6)});
  obs::EventLog events;
  LakeSketchCache cache(&lake, /*max_sample=*/64);
  cache.set_event_log(&events);
  const size_t a_bytes = SketchEntryBytes(lake, 0);
  LakeSketchCache::TableSketchesPin a = cache.GetOrBuild(0);
  LakeSketchCache::TableSketchesPin c = cache.GetOrBuild(2);
  cache.EvictAll();
  // Only the two resident entries were evicted, in table order.
  ASSERT_EQ(events.size(), 2u);
  const std::string log = events.Jsonl(/*include_timestamps=*/false);
  const size_t first = log.find(
      "\"type\": \"cache_evict\", \"cache\": \"sketch\", \"table\": \"a\", "
      "\"bytes\": " +
      std::to_string(a_bytes));
  const size_t second = log.find("\"table\": \"c\"");
  EXPECT_NE(first, std::string::npos) << log;
  EXPECT_NE(second, std::string::npos) << log;
  EXPECT_LT(first, second);
  EXPECT_EQ(log.find("\"table\": \"b\""), std::string::npos);
  // Nothing left resident: a second sweep appends nothing.
  cache.EvictAll();
  EXPECT_EQ(events.size(), 2u);
}

TEST(LakeSketchCacheEvictionTest, OversizedEntryStaysPinOnly) {
  DataLake lake = LakeOf({KeyTable("big", 120, 24)});
  const size_t entry = SketchEntryBytes(lake, 0);
  obs::MetricsRegistry registry;
  LakeSketchCache cache(&lake, /*max_sample=*/64, &registry,
                        /*budget_bytes=*/entry / 2);
  LakeSketchCache::TableSketchesPin pin = cache.GetOrBuild(0);
  ASSERT_NE(pin, nullptr);
  EXPECT_EQ((*pin)[0].num_distinct, 120u);
  EXPECT_EQ(cache.num_resident(), 0u);
  EXPECT_EQ(registry.GaugeValue("sketch_cache.bytes"), 0);
  EXPECT_EQ(registry.GaugeValue("sketch_cache.bytes_peak"), 0);
}

TEST(LakeSketchCacheEvictionTest, ConcurrentStressUnderBudget) {
  DataLake lake = LakeOf({KeyTable("a", 30, 6), KeyTable("b", 60, 10),
                          KeyTable("c", 90, 14), KeyTable("d", 45, 8)});
  const size_t budget = SketchEntryBytes(lake, 2) + SketchEntryBytes(lake, 1);
  obs::MetricsRegistry registry;
  LakeSketchCache cache(&lake, /*max_sample=*/64, &registry, budget);
  ThreadPool pool(8);
  std::atomic<int> failures{0};
  ParallelFor(&pool, 0, 512, /*grain=*/1, [&](size_t i) {
    if (i % 11 == 0) {
      cache.EvictAll();
      return;
    }
    LakeSketchCache::TableSketchesPin pin = cache.GetOrBuild(i % 4);
    if (pin == nullptr || pin->size() != 2) {
      failures.fetch_add(1, std::memory_order_relaxed);
    }
  });
  EXPECT_EQ(failures.load(), 0);
  EXPECT_LE(cache.resident_bytes(), budget);
  EXPECT_LE(registry.GaugeValue("sketch_cache.bytes_peak"),
            static_cast<int64_t>(budget));
}

}  // namespace
}  // namespace autofeat
