// LakeService: mutation semantics, epoch/snapshot consistency, precise
// cache invalidation, incremental-vs-cold equivalence, the per-query
// observability surface (event log, lineage, latency quantiles, slow-query
// events, deterministic digests) and a concurrent mutator+readers stress
// suite (run under TSan in CI with tracing and the event log attached).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "discovery/data_lake.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "qa/invariants.h"
#include "qa/lake_fuzzer.h"
#include "serve/lake_service.h"
#include "serve/mutation.h"
#include "support/lake_fixtures.h"
#include "table/column.h"

namespace autofeat::serve {
namespace {

// A one-key-column satellite joinable with MakeOrdersCustomersLake's
// "cust" columns.
Table MakeCustSatellite(const std::string& name, double offset) {
  Table table(name);
  table.AddColumn("cust", Column::Int64s({1, 2, 3})).Abort();
  table.AddColumn("score",
                  Column::Doubles({offset + 1, offset + 2, offset + 3}))
      .Abort();
  return table;
}

std::unique_ptr<LakeService> MakeService(DataLake lake,
                                         ServeOptions options = {}) {
  Result<std::unique_ptr<LakeService>> service =
      LakeService::Create(std::move(lake), std::move(options));
  EXPECT_TRUE(service.ok()) << service.status().message();
  return service.MoveValue();
}

TEST(MutationTest, ParseMutationKindIsCaseInsensitive) {
  EXPECT_EQ(*ParseMutationKind("add"), LakeMutation::Kind::kAddTable);
  EXPECT_EQ(*ParseMutationKind(" Append "), LakeMutation::Kind::kAppendRows);
  EXPECT_EQ(*ParseMutationKind("DROP"), LakeMutation::Kind::kDropTable);
  Result<LakeMutation::Kind> bad = ParseMutationKind("upsert");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("valid values: add, append, drop"),
            std::string::npos);
}

TEST(LakeServiceTest, MutationsAdvanceTheEpoch) {
  std::unique_ptr<LakeService> service =
      MakeService(testsupport::MakeOrdersCustomersLake());
  EXPECT_EQ(service->epoch(), 0u);

  Result<uint64_t> added = service->AddTable(MakeCustSatellite("regions", 0));
  ASSERT_TRUE(added.ok()) << added.status().message();
  EXPECT_EQ(*added, 1u);

  Table extra("regions");
  extra.AddColumn("cust", Column::Int64s({4})).Abort();
  extra.AddColumn("score", Column::Doubles({9})).Abort();
  Result<uint64_t> appended = service->AppendRows("regions", extra);
  ASSERT_TRUE(appended.ok()) << appended.status().message();
  EXPECT_EQ(*appended, 2u);
  EXPECT_EQ((*service->snapshot()->lake.GetTable("regions"))->num_rows(), 4u);

  Result<uint64_t> dropped = service->DropTable("regions");
  ASSERT_TRUE(dropped.ok()) << dropped.status().message();
  EXPECT_EQ(*dropped, 3u);
  EXPECT_FALSE(service->snapshot()->lake.HasTable("regions"));
}

TEST(LakeServiceTest, FailedMutationsAreNoOps) {
  std::unique_ptr<LakeService> service =
      MakeService(testsupport::MakeOrdersCustomersLake());

  // Duplicate add.
  Table dup("orders");
  dup.AddColumn("cust", Column::Int64s({1})).Abort();
  EXPECT_FALSE(service->AddTable(std::move(dup)).ok());

  // Schema-mismatched append (missing the amount column).
  Table rows("orders");
  rows.AddColumn("cust", Column::Int64s({7})).Abort();
  EXPECT_FALSE(service->AppendRows("orders", rows).ok());

  // Missing drop target.
  EXPECT_FALSE(service->DropTable("no_such_table").ok());

  EXPECT_EQ(service->epoch(), 0u);
  EXPECT_EQ(service->snapshot()->lake.num_tables(), 2u);
}

TEST(LakeServiceTest, PinnedSnapshotIsImmutableAcrossMutations) {
  std::unique_ptr<LakeService> service =
      MakeService(testsupport::MakeOrdersCustomersLake());
  LakeService::SnapshotPin pinned = service->snapshot();
  ASSERT_TRUE(service->DropTable("customers").ok());
  ASSERT_TRUE(service->AddTable(MakeCustSatellite("regions", 5)).ok());

  // The pin still sees epoch 0 in full: the dropped table, its sketches and
  // the old DRG — no use-after-evict, the snapshot owns its caches.
  EXPECT_EQ(pinned->epoch, 0u);
  ASSERT_TRUE(pinned->lake.HasTable("customers"));
  EXPECT_FALSE(pinned->lake.HasTable("regions"));
  LakeSketchCache::TableSketchesPin sketches =
      pinned->sketch_cache->GetOrBuild(1);
  EXPECT_EQ(sketches->size(),
            (*pinned->lake.GetTable("customers"))->num_columns());
  EXPECT_NE(pinned->drg.OrderedFingerprint(),
            service->snapshot()->drg.OrderedFingerprint());

  EXPECT_EQ(service->epoch(), 2u);
  EXPECT_FALSE(service->snapshot()->lake.HasTable("customers"));
}

TEST(LakeServiceTest, UntouchedSketchEntriesCarryOverByPointer) {
  std::unique_ptr<LakeService> service =
      MakeService(testsupport::MakeOrdersCustomersLake());
  LakeService::SnapshotPin before = service->snapshot();
  LakeSketchCache::TableSketchesPin orders_before =
      before->sketch_cache->GetOrBuild(0);
  LakeSketchCache::TableSketchesPin customers_before =
      before->sketch_cache->GetOrBuild(1);

  Table rows("customers");
  rows.AddColumn("cust", Column::Int64s({4})).Abort();
  rows.AddColumn("age", Column::Doubles({64})).Abort();
  ASSERT_TRUE(service->AppendRows("customers", rows).ok());

  LakeService::SnapshotPin after = service->snapshot();
  // Precise invalidation: the untouched table's entry is the *same object*
  // (carried by pointer), the mutated table's entry was rebuilt.
  EXPECT_EQ(after->sketch_cache->GetOrBuild(0).get(), orders_before.get());
  EXPECT_NE(after->sketch_cache->GetOrBuild(1).get(), customers_before.get());
}

TEST(LakeServiceTest, ByteGaugesTrackOnlyLiveCaches) {
  // Each epoch builds fresh caches and carries the untouched entries over;
  // a retired epoch's caches must give their bytes back, so with no older
  // snapshot pinned each gauge equals the current snapshot's caches.
  obs::MetricsRegistry metrics;
  Result<std::unique_ptr<LakeService>> service = LakeService::Create(
      testsupport::MakeOrdersCustomersLake(), ServeOptions{}, &metrics);
  ASSERT_TRUE(service.ok()) << service.status().message();
  for (int i = 0; i < 8; ++i) {
    // The query fills the join-index cache, so the appends carry entries.
    ASSERT_TRUE((*service)->Discover("orders", "amount").ok());
    Table rows("customers");
    rows.AddColumn("cust", Column::Int64s({100 + i})).Abort();
    rows.AddColumn("age", Column::Doubles({20.0 + i})).Abort();
    ASSERT_TRUE((*service)->AppendRows("customers", rows).ok());
  }
  ASSERT_TRUE((*service)->Discover("orders", "amount").ok());
  LakeService::SnapshotPin current = (*service)->snapshot();
  ASSERT_GT(current->sketch_cache->resident_bytes(), 0u);
  ASSERT_GT(current->join_cache->resident_bytes(), 0u);
  EXPECT_EQ(metrics.GaugeValue("sketch_cache.bytes"),
            static_cast<int64_t>(current->sketch_cache->resident_bytes()));
  EXPECT_EQ(metrics.GaugeValue("join_index_cache.bytes"),
            static_cast<int64_t>(current->join_cache->resident_bytes()));
}

TEST(LakeServiceTest, IncrementalDrgMatchesColdRebuildAfterMutations) {
  DataLake initial = testsupport::MakeOrdersCustomersLake();
  std::unique_ptr<LakeService> service = MakeService(initial);

  // Add, append, drop-mid-path, re-add under the same name with a renamed
  // feature column — the corners incremental maintenance can get wrong.
  ASSERT_TRUE(service->AddTable(MakeCustSatellite("regions", 0)).ok());
  Table rows("regions");
  rows.AddColumn("cust", Column::Int64s({2})).Abort();
  rows.AddColumn("score", Column::Doubles({8})).Abort();
  ASSERT_TRUE(service->AppendRows("regions", rows).ok());
  ASSERT_TRUE(service->DropTable("customers").ok());
  Table readded("customers");
  readded.AddColumn("cust", Column::Int64s({1, 3})).Abort();
  readded.AddColumn("renamed_age", Column::Doubles({30, 50})).Abort();
  ASSERT_TRUE(service->AddTable(std::move(readded)).ok());
  EXPECT_EQ(service->epoch(), 4u);

  // Cold replay of the same sequence, then a from-scratch discovery build.
  DataLake cold = std::move(initial);
  ASSERT_TRUE(cold.AddTable(MakeCustSatellite("regions", 0)).ok());
  ASSERT_TRUE(cold.AppendRows("regions", rows).ok());
  ASSERT_TRUE(cold.RemoveTable("customers").ok());
  Table cold_readded("customers");
  cold_readded.AddColumn("cust", Column::Int64s({1, 3})).Abort();
  cold_readded.AddColumn("renamed_age", Column::Doubles({30, 50})).Abort();
  ASSERT_TRUE(cold.AddTable(std::move(cold_readded)).ok());

  Result<DatasetRelationGraph> cold_drg =
      BuildDrgByDiscovery(cold, service->options().match);
  ASSERT_TRUE(cold_drg.ok()) << cold_drg.status().message();
  EXPECT_EQ(service->snapshot()->drg.OrderedFingerprint(),
            cold_drg->OrderedFingerprint());
}

TEST(LakeServiceTest, IncrementalEquivalenceInvariantPassesFuzzedTraces) {
  const qa::Invariant* invariant = nullptr;
  for (const qa::Invariant& inv : qa::BuiltinInvariants()) {
    if (inv.name == "serve.incremental_equivalence") invariant = &inv;
  }
  ASSERT_NE(invariant, nullptr);
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    qa::FuzzedLake fz = testsupport::MakeAdversarialLake(seed);
    Status status = invariant->check(fz);
    EXPECT_TRUE(status.ok()) << "seed " << seed << ": " << status.message();
  }
}

TEST(LakeServiceObsTest, EventLogRecordsQueriesMutationsAndLineage) {
  obs::MetricsRegistry metrics;
  obs::EventLog events;
  Result<std::unique_ptr<LakeService>> service = LakeService::Create(
      testsupport::MakeOrdersCustomersLake(), ServeOptions{}, &metrics,
      /*tracer=*/nullptr, &events);
  ASSERT_TRUE(service.ok()) << service.status().message();

  // Epoch 0 is already on record: one epoch_publish, one lineage entry.
  EXPECT_EQ(events.size(), 1u);
  ASSERT_TRUE((*service)->AddTable(MakeCustSatellite("regions", 0)).ok());
  ASSERT_TRUE((*service)
                  ->Discover("orders", "amount")
                  .ok());
  EXPECT_FALSE((*service)->DropTable("no_such_table").ok());

  std::string log = events.Jsonl();
  EXPECT_NE(log.find("\"type\": \"epoch_publish\""), std::string::npos);
  EXPECT_NE(log.find("\"type\": \"mutation_apply\""), std::string::npos);
  EXPECT_NE(log.find("\"type\": \"query_start\""), std::string::npos);
  EXPECT_NE(log.find("\"type\": \"query_end\""), std::string::npos);
  // The failed drop is on record with ok=false but published no epoch.
  EXPECT_NE(log.find("\"table\": \"no_such_table\", \"ok\": false"),
            std::string::npos);

  std::vector<EpochLineage> lineage = (*service)->Lineage();
  ASSERT_EQ(lineage.size(), 2u);
  EXPECT_EQ(lineage[0].epoch, 0u);
  EXPECT_EQ(lineage[0].mutation_id, 0u);
  EXPECT_EQ(lineage[0].cause, "create");
  EXPECT_EQ(lineage[0].target_table, "");
  EXPECT_EQ(lineage[0].num_tables, 2u);
  EXPECT_EQ(lineage[0].pairs_carried, 0u);
  EXPECT_EQ(lineage[1].epoch, 1u);
  EXPECT_EQ(lineage[1].mutation_id, 1u);
  EXPECT_EQ(lineage[1].cause, "add");
  EXPECT_EQ(lineage[1].target_table, "regions");
  EXPECT_EQ(lineage[1].num_tables, 3u);
  // The add re-scored its own pairs; the orders/customers pair carried.
  EXPECT_GT(lineage[1].pairs_rescored, 0u);
  EXPECT_GT(lineage[1].sketch_entries_carried, 0u);

  std::string json = (*service)->LineageJson();
  EXPECT_TRUE(obs::JsonIsValid(json)) << json;
  EXPECT_NE(json.find("\"cause\": \"create\""), std::string::npos);
  EXPECT_NE(json.find("\"cause\": \"add\""), std::string::npos);

  // Latency quantiles landed in the service registry (non-deterministic);
  // the failed drop records a mutation latency too.
  EXPECT_EQ(metrics.QuantileCount("serve.query_latency_ns"), 1u);
  EXPECT_EQ(metrics.QuantileCount("serve.mutation_latency_ns"), 2u);
  EXPECT_GT(metrics.QuantileValueAt("serve.query_latency_ns", 0.5), 0u);
}

TEST(LakeServiceObsTest, ReplayedSequencesGiveByteIdenticalObservability) {
  // Two services replaying the same mutation/query sequence must agree on
  // the stripped event log and the full lineage, byte for byte — at any
  // thread count.
  auto replay = [](size_t threads, obs::EventLog* events,
                   std::string* lineage_json) {
    ServeOptions options;
    options.config.num_threads = threads;
    Result<std::unique_ptr<LakeService>> service = LakeService::Create(
        testsupport::MakeOrdersCustomersLake(), options, /*metrics=*/nullptr,
        /*tracer=*/nullptr, events);
    ASSERT_TRUE(service.ok()) << service.status().message();
    ASSERT_TRUE((*service)->AddTable(MakeCustSatellite("regions", 0)).ok());
    ASSERT_TRUE((*service)
                    ->Discover("orders", "amount")
                    .ok());
    ASSERT_TRUE((*service)->DropTable("regions").ok());
    ASSERT_TRUE((*service)
                    ->Discover("orders", "amount")
                    .ok());
    *lineage_json = (*service)->LineageJson();
  };
  obs::EventLog events1, events2, events8;
  std::string lineage1, lineage2, lineage8;
  replay(1, &events1, &lineage1);
  replay(2, &events2, &lineage2);
  replay(8, &events8, &lineage8);
  EXPECT_EQ(events1.Jsonl(false), events2.Jsonl(false));
  EXPECT_EQ(events1.Jsonl(false), events8.Jsonl(false));
  EXPECT_EQ(lineage1, lineage2);
  EXPECT_EQ(lineage1, lineage8);
}

TEST(LakeServiceObsTest, QueryDigestIsInvariantAcrossThreads) {
  // A query's deterministic obs digest is a pure function of the snapshot
  // state: identical across thread counts.
  std::vector<std::string> digests;
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    ServeOptions options;
    options.config.num_threads = threads;
    std::unique_ptr<LakeService> service =
        MakeService(testsupport::MakeOrdersCustomersLake(), options);
    ASSERT_TRUE(service->AddTable(MakeCustSatellite("regions", 0)).ok());
    obs::MetricsRegistry query_metrics;
    obs::Tracer query_tracer;
    ASSERT_TRUE(service
                    ->Discover("orders", "amount",
                               &query_metrics, &query_tracer)
                    .ok());
    digests.push_back(obs::DeterministicDigest(query_metrics, &query_tracer));
  }
  for (const std::string& digest : digests) {
    EXPECT_EQ(digest, digests.front());
  }
}

TEST(LakeServiceObsTest, SlowQueryThresholdEmitsEventsAndCounts) {
  obs::MetricsRegistry metrics;
  obs::EventLog events;
  ServeOptions options;
  options.slow_query_threshold_ns = 1;  // every real query is "slow"
  Result<std::unique_ptr<LakeService>> service = LakeService::Create(
      testsupport::MakeOrdersCustomersLake(), options, &metrics,
      /*tracer=*/nullptr, &events);
  ASSERT_TRUE(service.ok()) << service.status().message();
  ASSERT_TRUE((*service)
                  ->Discover("orders", "amount")
                  .ok());
  EXPECT_EQ(metrics.CounterValue("serve.slow_queries"), 1u);
  std::string log = events.Jsonl();
  EXPECT_NE(log.find("\"type\": \"slow_query\""), std::string::npos);
  EXPECT_NE(log.find("\"threshold_ns\": 1"), std::string::npos);

  // Threshold 0 (the default) disables slow-query events entirely.
  obs::MetricsRegistry quiet_metrics;
  obs::EventLog quiet_events;
  Result<std::unique_ptr<LakeService>> quiet = LakeService::Create(
      testsupport::MakeOrdersCustomersLake(), ServeOptions{}, &quiet_metrics,
      /*tracer=*/nullptr, &quiet_events);
  ASSERT_TRUE(quiet.ok());
  ASSERT_TRUE(
      (*quiet)->Discover("orders", "amount").ok());
  EXPECT_EQ(quiet_metrics.CounterValue("serve.slow_queries"), 0u);
  EXPECT_EQ(quiet_events.Jsonl().find("slow_query"), std::string::npos);
}

TEST(LakeServiceStressTest, ConcurrentReadersSeeOnlyPublishedStates) {
  // One mutator applies a known sequence of successful mutations while N
  // reader threads run Discover; every result must carry an epoch in
  // [0, kMutations] and be byte-identical to a cold service built at that
  // epoch's lake state — a reader can never observe a half-applied
  // mutation or a cache entry from a different epoch. The full
  // observability surface stays attached (metrics, tracer, event log,
  // per-query tracers) so TSan exercises the instrumentation hot paths
  // under the same contention.
  qa::FuzzedLake fz = testsupport::MakeAdversarialLake(11);
  ServeOptions options;
  options.config = qa::FuzzDiscoveryConfig(fz, 1);
  obs::MetricsRegistry metrics;
  obs::Tracer tracer;
  obs::EventLog events;
  Result<std::unique_ptr<LakeService>> created =
      LakeService::Create(fz.lake, options, &metrics, &tracer, &events);
  ASSERT_TRUE(created.ok()) << created.status().message();
  std::unique_ptr<LakeService> service = created.MoveValue();

  constexpr size_t kMutations = 6;
  constexpr size_t kReaders = 4;
  constexpr size_t kQueriesPerReader = 12;

  std::vector<Table> to_add;
  for (size_t m = 0; m < kMutations; ++m) {
    Table table("stress_t" + std::to_string(m));
    table.AddColumn("key", Column::Int64s({0, 1, 2})).Abort();
    table.AddColumn("v", Column::Doubles({1.0 + m, 2.0 + m, 3.0 + m}))
        .Abort();
    to_add.push_back(std::move(table));
  }

  // Expected Discover fingerprint per epoch, from cold services over the
  // replayed mutation prefixes.
  std::vector<std::string> expected;
  {
    DataLake cold = fz.lake;
    for (size_t e = 0; e <= kMutations; ++e) {
      std::unique_ptr<LakeService> cold_service = MakeService(cold, options);
      Result<LakeService::DiscoverOutcome> out =
          cold_service->Discover(fz.base_table, fz.label_column);
      ASSERT_TRUE(out.ok()) << out.status().message();
      expected.push_back(qa::DiscoveryFingerprint(out->discovery));
      if (e < kMutations) ASSERT_TRUE(cold.AddTable(to_add[e]).ok());
    }
  }

  std::mutex mu;
  std::vector<std::pair<uint64_t, std::string>> observed;
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      obs::Tracer reader_tracer;
      for (size_t q = 0; q < kQueriesPerReader; ++q) {
        Result<LakeService::DiscoverOutcome> out = service->Discover(
            fz.base_table, fz.label_column, /*metrics=*/nullptr,
            &reader_tracer);
        ASSERT_TRUE(out.ok()) << out.status().message();
        std::lock_guard<std::mutex> lock(mu);
        observed.emplace_back(out->epoch,
                              qa::DiscoveryFingerprint(out->discovery));
      }
    });
  }
  for (size_t m = 0; m < kMutations; ++m) {
    Result<uint64_t> epoch = service->AddTable(to_add[m]);
    ASSERT_TRUE(epoch.ok()) << epoch.status().message();
    EXPECT_EQ(*epoch, m + 1);
  }
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(observed.size(), kReaders * kQueriesPerReader);
  for (const auto& [epoch, fingerprint] : observed) {
    ASSERT_LE(epoch, kMutations);
    EXPECT_EQ(fingerprint, expected[epoch]) << "at epoch " << epoch;
  }
  EXPECT_EQ(service->epoch(), kMutations);

  // The concurrently-written observability is complete and well-formed:
  // every query and mutation is on record, and the interleaved log is
  // valid JSONL line by line.
  EXPECT_EQ(metrics.CounterValue("serve.queries"),
            kReaders * kQueriesPerReader);
  EXPECT_EQ(metrics.QuantileCount("serve.query_latency_ns"),
            kReaders * kQueriesPerReader);
  EXPECT_EQ(metrics.CounterValue("serve.mutations"), kMutations);
  EXPECT_EQ((*service).Lineage().size(), kMutations + 1);
  std::string log = events.Jsonl();
  size_t query_ends = 0;
  for (size_t pos = 0;
       (pos = log.find("\"type\": \"query_end\"", pos)) != std::string::npos;
       ++pos) {
    ++query_ends;
  }
  EXPECT_EQ(query_ends, kReaders * kQueriesPerReader);
  std::istringstream lines(log);
  std::string line;
  while (std::getline(lines, line)) {
    EXPECT_TRUE(obs::JsonIsValid(line)) << line;
  }
}

}  // namespace
}  // namespace autofeat::serve
