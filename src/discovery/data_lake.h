// DataLake: the dataset collection AutoFeat explores, plus DRG construction
// for the paper's two evaluation settings (§VII-A):
//
//  * benchmark setting — known KFK constraints become edges of weight 1
//    (snowflake schemata);
//  * data-lake setting — KFK metadata is discarded and edges are discovered
//    by the schema matcher (dense multigraph, weight = similarity score).

#ifndef AUTOFEAT_DISCOVERY_DATA_LAKE_H_
#define AUTOFEAT_DISCOVERY_DATA_LAKE_H_

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "discovery/schema_matcher.h"
#include "graph/drg.h"
#include "table/table.h"
#include "util/status.h"

namespace autofeat {

class ThreadPool;

namespace obs {
class MetricsRegistry;
}  // namespace obs

/// \brief On-disk representation of a lake directory.
enum class LakeFormat {
  /// One *.csv file per table (text; types inferred on load).
  kCsv,
  /// One *.afc file per table (the binary columnar format of
  /// table/columnar.h: dictionary-encoded, null bitmaps, checksummed).
  kColumnar,
};

/// Parses "csv" / "columnar" (the --lake-format CLI values),
/// case-insensitively.
Result<LakeFormat> ParseLakeFormat(const std::string& name);

/// \brief Read-only, indexable view over the lake's tables.
///
/// The lake stores tables behind shared_ptr so that copying a DataLake is
/// O(tables) pointer copies rather than a deep copy of every column — the
/// property the serving layer's snapshot-per-mutation scheme depends on.
/// This view keeps the historical `for (const Table& t : lake.tables())`
/// and `lake.tables()[i]` call shapes working over that storage.
class TableListView {
 public:
  explicit TableListView(const std::vector<std::shared_ptr<const Table>>* t)
      : tables_(t) {}

  class iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Table;
    using difference_type = std::ptrdiff_t;
    using pointer = const Table*;
    using reference = const Table&;

    iterator(const std::vector<std::shared_ptr<const Table>>* t, size_t i)
        : tables_(t), i_(i) {}
    const Table& operator*() const { return *(*tables_)[i_]; }
    const Table* operator->() const { return (*tables_)[i_].get(); }
    iterator& operator++() {
      ++i_;
      return *this;
    }
    iterator operator++(int) {
      iterator copy = *this;
      ++i_;
      return copy;
    }
    bool operator==(const iterator& o) const { return i_ == o.i_; }
    bool operator!=(const iterator& o) const { return i_ != o.i_; }

   private:
    const std::vector<std::shared_ptr<const Table>>* tables_;
    size_t i_;
  };

  iterator begin() const { return iterator(tables_, 0); }
  iterator end() const { return iterator(tables_, tables_->size()); }
  const Table& operator[](size_t i) const { return *(*tables_)[i]; }
  size_t size() const { return tables_->size(); }
  bool empty() const { return tables_->empty(); }

  /// Deep-copies every table (for callers that mutate, e.g. the shrinker).
  std::vector<Table> Materialize() const {
    std::vector<Table> out;
    out.reserve(tables_->size());
    for (const auto& t : *tables_) out.push_back(*t);
    return out;
  }

 private:
  const std::vector<std::shared_ptr<const Table>>* tables_;
};

/// \brief A declared key/foreign-key relationship between two tables.
struct KfkConstraint {
  std::string from_table;
  std::string from_column;
  std::string to_table;
  std::string to_column;
};

/// \brief Named collection of tables with optional KFK metadata.
class DataLake {
 public:
  /// Adds a table (name taken from table.name()); fails on duplicates.
  Status AddTable(Table table);

  /// Adds an already-shared table without copying its columns.
  Status AddTable(std::shared_ptr<const Table> table);

  /// Replaces an existing table of the same name.
  Status ReplaceTable(Table table);

  /// Removes a table by name. Later tables shift down one position (lake
  /// order stays the relative insertion order of the survivors). KFK
  /// constraints referencing the table are dropped with it.
  Status RemoveTable(const std::string& name);

  /// Appends the rows of `rows` to an existing table. The schemas must
  /// match exactly (same column names and types, in order). The stored
  /// table is replaced, not mutated — snapshots sharing the old version
  /// are unaffected.
  Status AppendRows(const std::string& name, const Table& rows);

  Result<const Table*> GetTable(const std::string& name) const;

  /// Shared handle to a table — keeps it alive past RemoveTable/AppendRows.
  Result<std::shared_ptr<const Table>> GetTableShared(
      const std::string& name) const;

  bool HasTable(const std::string& name) const {
    return index_.count(name) > 0;
  }
  size_t num_tables() const { return tables_.size(); }
  TableListView tables() const { return TableListView(&tables_); }
  std::vector<std::string> TableNames() const;

  void AddKfk(KfkConstraint constraint) {
    kfk_.push_back(std::move(constraint));
  }
  const std::vector<KfkConstraint>& kfk_constraints() const { return kfk_; }

  /// Loads every *.csv file of a directory as a table.
  static Result<DataLake> FromCsvDirectory(const std::string& directory);

  /// Loads every *.afc (binary columnar) file of a directory as a table.
  static Result<DataLake> FromColumnarDirectory(const std::string& directory);

  /// Loads a directory in the given format (sorted file order either way,
  /// so the lake's table order is format-independent).
  static Result<DataLake> FromDirectory(const std::string& directory,
                                        LakeFormat format);

 private:
  // shared_ptr<const Table> so lake copies (serving snapshots) share table
  // storage; every mutation path replaces pointers instead of editing
  // tables in place.
  std::vector<std::shared_ptr<const Table>> tables_;
  std::unordered_map<std::string, size_t> index_;
  std::vector<KfkConstraint> kfk_;
};

/// Benchmark setting: DRG whose edges are exactly the declared KFK
/// constraints with weight 1. A non-null `metrics` counts
/// `drg.edges_added`.
Result<DatasetRelationGraph> BuildDrgFromKfk(
    const DataLake& lake, obs::MetricsRegistry* metrics = nullptr);

/// \brief Pair tallies of one MatchTouchedTables call.
struct TouchedMatchStats {
  /// Pairs of the lake with at least one touched endpoint.
  size_t pairs_touched = 0;
  /// The candidates among them, which were scored.
  size_t pairs_scored = 0;

  size_t pairs_pruned() const { return pairs_touched - pairs_scored; }
};

/// The one data-lake DRG match step, shared by cold builds (every table
/// touched, empty store) and incremental maintenance (the mutated table
/// touched, its stale pairs purged first). Enumerates the pairs of `lake`
/// with an endpoint in `touched` (lake table names); under kLsh it
/// (re-)indexes the touched tables in `lsh` (built with options.lsh and
/// holding every untouched table) and keeps only candidates, unless
/// threshold <= name_weight lets name-only edges through, which no
/// collision witnesses; scores the pairs with MatchSchemas over pinned
/// `cache` sketches, fanning out over `pool`; and writes each pair's
/// matches into `store` (an empty list erases the pair). Results are
/// identical at any thread count.
///
/// A non-null `metrics` records `sketch_cache.hits` (sketch reuses the
/// per-pair formulation would have recomputed), `drg.candidate_pairs`,
/// `drg.pairs_pruned`, `drg.pairs_scored`, `drg.pairs_matched`,
/// `drg.edges_added`, and under LSH filtering the `lsh.*` counters (over
/// the touched tables' columns; `lsh.bucket_collisions` only when every
/// table is touched) and the `lsh_index.bytes` / `.bytes_peak` gauges.
/// Profiling records `sketch.minhash` worker spans into the pool's tracer.
Result<TouchedMatchStats> MatchTouchedTables(
    const DataLake& lake, const std::vector<std::string>& touched,
    LakeSketchCache& cache, const MatchOptions& options,
    LshCandidateIndex& lsh, DrgMatchStore& store, ThreadPool* pool = nullptr,
    obs::MetricsRegistry* metrics = nullptr);

/// Data-lake setting: ignores KFK metadata and discovers edges with the
/// schema matcher — every column sketched once, then MatchTouchedTables
/// with every table touched on an empty store and the canonical
/// DrgMatchStore::BuildGraph fold. Matches at or above options.threshold
/// become edges weighted by their score. kAllPairs scores every pair
/// (O(n²) in the table count); kLsh only the MinHash-LSH candidates (see
/// lsh_index.h). A non-null `metrics` records `sketch_cache.builds` plus
/// every MatchTouchedTables counter.
Result<DatasetRelationGraph> BuildDrgByDiscovery(
    const DataLake& lake, const MatchOptions& options = {},
    ThreadPool* pool = nullptr, obs::MetricsRegistry* metrics = nullptr);

/// Generic DRG construction with a pluggable matcher — "DRG construction is
/// independent of the dataset discovery algorithm" (§IV). Runs the
/// BuildDrgByDiscovery score -> store -> fold loop over every table pair
/// with `matcher` as the scorer (concurrently with a `pool`, so it must be
/// a pure function of its arguments). A non-null `metrics` counts
/// `drg.pairs_scored`, `drg.pairs_matched` and `drg.edges_added`.
Result<DatasetRelationGraph> BuildDrgWithMatcher(
    const DataLake& lake,
    const std::function<std::vector<ColumnMatch>(const Table&, const Table&)>&
        matcher,
    ThreadPool* pool = nullptr, obs::MetricsRegistry* metrics = nullptr);

}  // namespace autofeat

#endif  // AUTOFEAT_DISCOVERY_DATA_LAKE_H_
