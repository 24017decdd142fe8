#include "discovery/data_lake.h"

#include <algorithm>
#include <filesystem>
#include <unordered_map>
#include <utility>

#include "obs/memory.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "table/columnar.h"
#include "table/csv.h"
#include "util/string_utils.h"
#include "util/thread_pool.h"

namespace autofeat {

Result<LakeFormat> ParseLakeFormat(const std::string& name) {
  const std::string lower = ToLower(Trim(name));
  if (lower == "csv") return LakeFormat::kCsv;
  if (lower == "columnar") return LakeFormat::kColumnar;
  return Status::InvalidArgument("unknown lake format: \"" + name +
                                 "\" (valid values: csv, columnar)");
}

namespace {

// Shared directory walk: every regular `extension` file, sorted — the
// lake's table order must not depend on directory enumeration order.
Result<std::vector<std::string>> SortedFilesWithExtension(
    const std::string& directory, const std::string& extension) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (!fs::is_directory(directory, ec)) {
    return Status::IOError("not a directory: " + directory);
  }
  std::vector<std::string> paths;
  for (const auto& entry : fs::directory_iterator(directory)) {
    if (entry.is_regular_file() && entry.path().extension() == extension) {
      paths.push_back(entry.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

}  // namespace

Status DataLake::AddTable(Table table) {
  return AddTable(std::make_shared<const Table>(std::move(table)));
}

Status DataLake::AddTable(std::shared_ptr<const Table> table) {
  if (table == nullptr || table->name().empty()) {
    return Status::InvalidArgument("lake tables must be named");
  }
  if (index_.count(table->name()) > 0) {
    return Status::InvalidArgument("duplicate table name: " + table->name());
  }
  index_[table->name()] = tables_.size();
  tables_.push_back(std::move(table));
  return Status::OK();
}

Status DataLake::ReplaceTable(Table table) {
  auto it = index_.find(table.name());
  if (it == index_.end()) {
    return Status::KeyError("no such table to replace: " + table.name());
  }
  tables_[it->second] = std::make_shared<const Table>(std::move(table));
  return Status::OK();
}

Status DataLake::RemoveTable(const std::string& name) {
  auto it = index_.find(name);
  if (it == index_.end()) {
    return Status::KeyError("no such table to remove: " + name);
  }
  tables_.erase(tables_.begin() + static_cast<ptrdiff_t>(it->second));
  index_.clear();
  for (size_t i = 0; i < tables_.size(); ++i) index_[tables_[i]->name()] = i;
  kfk_.erase(std::remove_if(kfk_.begin(), kfk_.end(),
                            [&](const KfkConstraint& k) {
                              return k.from_table == name ||
                                     k.to_table == name;
                            }),
             kfk_.end());
  return Status::OK();
}

Status DataLake::AppendRows(const std::string& name, const Table& rows) {
  auto it = index_.find(name);
  if (it == index_.end()) {
    return Status::KeyError("no such table to append to: " + name);
  }
  const Table& current = *tables_[it->second];
  if (!(current.schema().fields() == rows.schema().fields())) {
    return Status::InvalidArgument(
        "append schema mismatch for table " + name +
        ": column names and types must match the stored table exactly");
  }
  Table updated(current.name());
  for (size_t c = 0; c < current.num_columns(); ++c) {
    Column merged = current.column(c);
    merged.Reserve(current.num_rows() + rows.num_rows());
    const Column& extra = rows.column(c);
    for (size_t r = 0; r < rows.num_rows(); ++r) merged.AppendFrom(extra, r);
    AF_RETURN_NOT_OK(
        updated.AddColumn(current.schema().field(c).name, std::move(merged)));
  }
  tables_[it->second] = std::make_shared<const Table>(std::move(updated));
  return Status::OK();
}

Result<const Table*> DataLake::GetTable(const std::string& name) const {
  auto it = index_.find(name);
  if (it == index_.end()) {
    return Status::KeyError("no such table in lake: " + name);
  }
  return tables_[it->second].get();
}

Result<std::shared_ptr<const Table>> DataLake::GetTableShared(
    const std::string& name) const {
  auto it = index_.find(name);
  if (it == index_.end()) {
    return Status::KeyError("no such table in lake: " + name);
  }
  return tables_[it->second];
}

std::vector<std::string> DataLake::TableNames() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& t : tables_) names.push_back(t->name());
  return names;
}

Result<DataLake> DataLake::FromCsvDirectory(const std::string& directory) {
  AF_ASSIGN_OR_RETURN(std::vector<std::string> paths,
                      SortedFilesWithExtension(directory, ".csv"));
  DataLake lake;
  for (const auto& path : paths) {
    AF_ASSIGN_OR_RETURN(Table table, ReadCsvFile(path));
    AF_RETURN_NOT_OK(lake.AddTable(std::move(table)));
  }
  return lake;
}

Result<DataLake> DataLake::FromColumnarDirectory(
    const std::string& directory) {
  AF_ASSIGN_OR_RETURN(std::vector<std::string> paths,
                      SortedFilesWithExtension(directory, kColumnarExtension));
  DataLake lake;
  for (const auto& path : paths) {
    AF_ASSIGN_OR_RETURN(Table table, ReadColumnarFile(path));
    AF_RETURN_NOT_OK(lake.AddTable(std::move(table)));
  }
  return lake;
}

Result<DataLake> DataLake::FromDirectory(const std::string& directory,
                                         LakeFormat format) {
  switch (format) {
    case LakeFormat::kCsv:
      return FromCsvDirectory(directory);
    case LakeFormat::kColumnar:
      return FromColumnarDirectory(directory);
  }
  return Status::InvalidArgument("unhandled lake format");
}

Result<DatasetRelationGraph> BuildDrgFromKfk(const DataLake& lake,
                                             obs::MetricsRegistry* metrics) {
  obs::Counter* edges_added = obs::GetCounter(metrics, "drg.edges_added");
  DatasetRelationGraph drg;
  for (const auto& table : lake.tables()) drg.AddNode(table.name());
  for (const auto& kfk : lake.kfk_constraints()) {
    // Validate the constraint against the lake before ingesting it.
    AF_ASSIGN_OR_RETURN(const Table* from, lake.GetTable(kfk.from_table));
    AF_ASSIGN_OR_RETURN(const Table* to, lake.GetTable(kfk.to_table));
    if (!from->HasColumn(kfk.from_column)) {
      return Status::KeyError("KFK references missing column " +
                              kfk.from_table + "." + kfk.from_column);
    }
    if (!to->HasColumn(kfk.to_column)) {
      return Status::KeyError("KFK references missing column " +
                              kfk.to_table + "." + kfk.to_column);
    }
    AF_RETURN_NOT_OK(drg.AddEdge(kfk.from_table, kfk.from_column,
                                 kfk.to_table, kfk.to_column,
                                 /*weight=*/1.0));
    obs::Increment(edges_added);
  }
  return drg;
}

namespace {

using PairScorer = std::function<std::vector<ColumnMatch>(size_t, size_t)>;

// The one score -> store loop behind every discovered DRG: fans the scoring
// of `pairs` (ascending (i, j) lake positions, i < j) out over `pool`, then
// writes each pair's matches into `store` oriented i -> j. `score(i, j)`
// must be safe to call concurrently for distinct pairs.
void ScorePairsIntoStore(const DataLake& lake,
                         const std::vector<std::pair<size_t, size_t>>& pairs,
                         const PairScorer& score, ThreadPool* pool,
                         obs::MetricsRegistry* metrics, DrgMatchStore& store) {
  obs::Counter* pairs_scored = obs::GetCounter(metrics, "drg.pairs_scored");
  obs::Counter* pairs_matched = obs::GetCounter(metrics, "drg.pairs_matched");
  obs::Counter* edges_added = obs::GetCounter(metrics, "drg.edges_added");
  std::vector<std::vector<ColumnMatch>> matches =
      ParallelMap<std::vector<ColumnMatch>>(
          pool, pairs.size(), /*grain=*/1,
          [&](size_t p) { return score(pairs[p].first, pairs[p].second); });
  obs::Increment(pairs_scored, pairs.size());
  const auto& tables = lake.tables();
  for (size_t p = 0; p < pairs.size(); ++p) {
    if (!matches[p].empty()) obs::Increment(pairs_matched);
    obs::Increment(edges_added, matches[p].size());
    store.SetMatches(tables[pairs[p].first].name(),
                     tables[pairs[p].second].name(), std::move(matches[p]));
  }
}

// Every (i, j) pair, i < j, with at least one endpoint flagged, ascending.
std::vector<std::pair<size_t, size_t>> TouchedPairs(
    const std::vector<bool>& touched) {
  std::vector<std::pair<size_t, size_t>> pairs;
  for (size_t i = 0; i < touched.size(); ++i) {
    for (size_t j = i + 1; j < touched.size(); ++j) {
      if (touched[i] || touched[j]) pairs.emplace_back(i, j);
    }
  }
  return pairs;
}

}  // namespace

Result<TouchedMatchStats> MatchTouchedTables(
    const DataLake& lake, const std::vector<std::string>& touched,
    LakeSketchCache& cache, const MatchOptions& options,
    LshCandidateIndex& lsh, DrgMatchStore& store, ThreadPool* pool,
    obs::MetricsRegistry* metrics) {
  const auto& tables = lake.tables();
  const size_t n = tables.size();
  std::unordered_map<std::string, size_t> position;
  for (size_t i = 0; i < n; ++i) position[tables[i].name()] = i;
  std::vector<bool> flagged(n, false);
  std::vector<size_t> touched_at;
  for (const std::string& name : touched) {
    auto it = position.find(name);
    if (it == position.end()) {
      return Status::KeyError("touched table not in lake: " + name);
    }
    if (!flagged[it->second]) touched_at.push_back(it->second);
    flagged[it->second] = true;
  }
  const size_t k = touched_at.size();
  TouchedMatchStats stats;
  stats.pairs_touched = k * (n - k) + k * (k - 1) / 2;

  // Candidate generation. LSH filtering is sound only while every
  // reportable edge needs value overlap (a collision witness); when the
  // threshold is reachable on name evidence alone, every touched pair is
  // scored instead of silently dropping name-only edges.
  std::vector<std::pair<size_t, size_t>> pairs;
  if (options.candidate_mode == CandidateMode::kLsh &&
      options.threshold > options.name_weight) {
    obs::TaskContext ctx = obs::CaptureTaskContext(
        pool != nullptr && k > 0 ? pool->tracer() : nullptr);
    std::vector<std::vector<ColumnLshProfile>> profiles =
        ParallelMap<std::vector<ColumnLshProfile>>(
            pool, k, /*grain=*/1, [&](size_t t) {
              obs::ScopedWorkerSpan span(ctx, "sketch.minhash");
              LakeSketchCache::TableSketchesPin pin =
                  cache.GetOrBuild(touched_at[t]);
              return ComputeTableLshProfiles(tables[touched_at[t]], *pin,
                                             lsh.options());
            });
    size_t columns_indexed = 0, columns_skipped = 0, signature_bytes = 0;
    for (size_t t = 0; t < k; ++t) {
      for (const ColumnLshProfile& profile : profiles[t]) {
        ++(profile.indexed() ? columns_indexed : columns_skipped);
        signature_bytes += profile.signature_bytes;
      }
      lsh.AddTable(tables[touched_at[t]].name(), profiles[t]);
    }
    // The whole index's candidates when every table is touched, else the
    // union of the touched tables' partners; ascending lake positions.
    auto add = [&](const std::string& a, const std::string& b) {
      auto i = position.find(a);
      auto j = position.find(b);
      if (i == position.end() || j == position.end()) return;
      pairs.emplace_back(std::min(i->second, j->second),
                         std::max(i->second, j->second));
    };
    size_t collisions = 0;
    if (k == n) {
      for (const auto& [a, b] : lsh.CandidatePairs(&collisions)) add(a, b);
    } else {
      for (size_t t : touched_at) {
        for (const auto& u : lsh.Partners(tables[t].name())) {
          add(tables[t].name(), u);
        }
      }
    }
    std::sort(pairs.begin(), pairs.end());
    pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
    for (const auto& [name, value] :
         {std::pair<const char*, size_t>{"lsh.bands", lsh.options().num_bands},
          {"lsh.signature_bytes", signature_bytes},
          {"lsh.columns_indexed", columns_indexed},
          {"lsh.columns_skipped", columns_skipped},
          {"lsh.bucket_collisions", collisions}}) {
      obs::Increment(obs::GetCounter(metrics, name), value);
    }
    // The index, the signatures its band keys were cut from and the
    // candidate list it emitted.
    const size_t bytes = lsh.ApproxBytes() + signature_bytes +
                         pairs.size() * sizeof(pairs[0]);
    obs::AddBytesWithPeak(obs::GetGauge(metrics, "lsh_index.bytes"),
                          obs::GetGauge(metrics, "lsh_index.bytes_peak"),
                          static_cast<int64_t>(bytes));
  } else {
    pairs = TouchedPairs(flagged);
  }
  stats.pairs_scored = pairs.size();
  obs::Increment(obs::GetCounter(metrics, "drg.candidate_pairs"),
                 stats.pairs_scored);
  obs::Increment(obs::GetCounter(metrics, "drg.pairs_pruned"),
                 stats.pairs_pruned());

  // Each pair served from the cache would have re-sketched both tables'
  // columns under the naive formulation — that saved work is the hit count.
  obs::Counter* sketch_hits = obs::GetCounter(metrics, "sketch_cache.hits");
  ScorePairsIntoStore(
      lake, pairs,
      [&](size_t i, size_t j) {
        obs::Increment(sketch_hits,
                       tables[i].num_columns() + tables[j].num_columns());
        // Pins keep both entries alive for the duration of the match even
        // if a concurrent pair's rebuild evicts them under a budget.
        LakeSketchCache::TableSketchesPin left = cache.GetOrBuild(i);
        LakeSketchCache::TableSketchesPin right = cache.GetOrBuild(j);
        return MatchSchemas(tables[i], *left, tables[j], *right, options);
      },
      pool, metrics, store);
  return stats;
}

Result<DatasetRelationGraph> BuildDrgByDiscovery(const DataLake& lake,
                                                 const MatchOptions& options,
                                                 ThreadPool* pool,
                                                 obs::MetricsRegistry* metrics) {
  // Sketch every column once (in parallel over tables), then score pairs
  // over the shared cache instead of re-scanning column values per pair.
  LakeSketchCache cache =
      LakeSketchCache::Build(lake, options.max_sample_values, pool, metrics,
                             options.memory_budget_bytes);
  LshCandidateIndex lsh(options.lsh);
  DrgMatchStore store;
  const std::vector<std::string> names = lake.TableNames();
  AF_RETURN_NOT_OK(MatchTouchedTables(lake, names, cache, options, lsh, store,
                                      pool, metrics)
                       .status());
  return store.BuildGraph(names);
}

Result<DatasetRelationGraph> BuildDrgWithMatcher(
    const DataLake& lake,
    const std::function<std::vector<ColumnMatch>(const Table&, const Table&)>&
        matcher,
    ThreadPool* pool, obs::MetricsRegistry* metrics) {
  const auto& tables = lake.tables();
  DrgMatchStore store;
  ScorePairsIntoStore(
      lake, TouchedPairs(std::vector<bool>(tables.size(), true)),
      [&](size_t i, size_t j) { return matcher(tables[i], tables[j]); }, pool,
      metrics, store);
  return store.BuildGraph(lake.TableNames());
}

}  // namespace autofeat
