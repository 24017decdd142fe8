// MinHash-LSH candidate generation for sub-quadratic DRG construction.
//
// All-pairs discovery scores every table pair — O(n²) in the number of
// tables. This module is the cheap first stage of a two-stage pipeline
// (FREYJA-style): each column's bottom-k value sketch becomes a profile of
// bucket keys, one bucket index holds every table's profiles, and two
// tables whose columns share a bucket become a *candidate pair*. Exact
// scoring (MatchSchemas) then runs only on candidates.
//
// Soundness: with the default MatchOptions weights a reported edge needs
// value overlap, which is what collisions witness. Two recall mechanisms
// cover the two overlap regimes:
//
//  * banding — b bands of r MinHash rows collide with probability
//    1-(1-s^r)^b for Jaccard similarity s; the defaults (32 x 2) catch
//    s >= 0.3 with >95% coverage, the regime of genuine key↔key joins;
//  * small-column rescue — a tiny FK domain inside a large PK range has
//    near-zero Jaccard, so columns with at most `small_column_rescue`
//    distinct values also get one key per sketch value: two rescued
//    columns whose sketches intersect always collide.
//
// Determinism: keys are pure functions of the column's distinct-value set
// (FNV-1a + the DeriveSeed splitmix64 finaliser, never std::hash) and
// candidate lists are sorted and deduplicated, so the output and every
// counter derived from it are identical at any thread count and across
// platforms.

#ifndef AUTOFEAT_DISCOVERY_LSH_INDEX_H_
#define AUTOFEAT_DISCOVERY_LSH_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "discovery/sketch_cache.h"

namespace autofeat {

/// \brief Tuning knobs of the candidate generator. Defaults are chosen for
/// recall (a missed candidate silently drops a DRG edge; a spurious one
/// only costs one exact scoring call).
struct LshOptions {
  /// Bands x rows-per-band = signature width. More bands raise recall at
  /// low Jaccard; more rows per band sharpen the threshold. 32 x 2 catches
  /// Jaccard >= 0.3 pairs with > 95% probability.
  size_t num_bands = 32;
  size_t rows_per_band = 2;
  /// Cheap-profile prefilter: columns with fewer distinct non-null values
  /// than this never enter the index (1 = index everything non-empty; the
  /// exact matcher already discounts low-cardinality evidence, so raising
  /// this trades recall for fewer candidates).
  size_t min_distinct = 1;
  /// Cheap-profile prefilter: when > 0, bucket collisions between columns
  /// whose distinct counts differ by more than this factor are ignored
  /// (FREYJA-style cardinality-ratio bound). 0 disables the bound.
  double max_cardinality_ratio = 0.0;
  /// Columns with at most this many distinct values index every sketch
  /// value hash in addition to their bands (containment rescue — see file
  /// comment). 0 disables the rescue.
  size_t small_column_rescue = 64;

  size_t num_hashes() const { return num_bands * rows_per_band; }
};

/// \brief Fixed-width MinHash signature of one column sketch. `mins[k]` is
/// the minimum of the k-th derived hash over the sketch's values; empty
/// when the column was not indexed (empty sketch or filtered out).
struct MinHashSignature {
  std::vector<uint64_t> mins;

  bool empty() const { return mins.empty(); }
  size_t ApproxBytes() const {
    return sizeof(MinHashSignature) + mins.size() * sizeof(uint64_t);
  }
};

/// Platform-stable 64-bit FNV-1a of a value string (the per-value base hash
/// every derived MinHash row mixes from).
uint64_t LshValueHash(const std::string& value);

/// Signature of one sketch: mins[k] = min over values of
/// DeriveSeed(LshValueHash(v), k). Pure function of the sketch's value set.
/// The derivation streams are batched through the SIMD MinHash kernel.
MinHashSignature ComputeMinHashSignature(const ColumnSketch& sketch,
                                         size_t num_hashes);

/// Scalar reference of ComputeMinHashSignature (per-stream DeriveSeed loop),
/// kept for differential testing — must be bit-exact with the batched form.
MinHashSignature ComputeMinHashSignatureReference(const ColumnSketch& sketch,
                                                  size_t num_hashes);

/// \brief One column's LSH state: the bucket keys the index files the
/// column under.
///
/// Keys are a pure function of (sketch, column type, options): band b of
/// type group g hashes into derivation stream 2b+g, and a rescued column
/// adds one key per sketch value in the streams after every band stream.
/// Key-like columns (int64/string) and doubles therefore never share a
/// bucket, mirroring the matcher's join-plausibility filter.
struct ColumnLshProfile {
  /// Sorted bucket keys (band keys + rescue keys).
  std::vector<uint64_t> bucket_keys;
  uint64_t num_distinct = 0;
  /// Footprint of the MinHash signature the band keys were cut from (0 when
  /// the column was not signed).
  size_t signature_bytes = 0;

  /// False when the column enters no bucket (empty/filtered sketch).
  bool indexed() const { return !bucket_keys.empty(); }
};

/// The profile of one column. Pure function of (sketch, column type,
/// options).
ColumnLshProfile ComputeColumnLshProfile(const ColumnSketch& sketch,
                                         DataType type,
                                         const LshOptions& options);

/// Profiles for every column of `table` over its sketches.
std::vector<ColumnLshProfile> ComputeTableLshProfiles(
    const Table& table, const std::vector<ColumnSketch>& sketches,
    const LshOptions& options);

/// \brief Bucket index over the column profiles of a set of tables, keyed
/// by table name: the one LSH candidate mechanism, for cold DRG builds
/// (every table added, then CandidatePairs) and incremental maintenance
/// (one table removed and re-added, then Partners).
///
/// Two tables are candidates iff a column of each shares a bucket key,
/// subject to the optional cardinality-ratio bound. Both queries answer
/// that one predicate, so after any add/remove sequence a table's partners
/// are the pairs containing it in a fresh index. Queries first sort the
/// entries added since the last query into place, so they are not const.
/// Not thread-safe.
class LshCandidateIndex {
 public:
  explicit LshCandidateIndex(const LshOptions& options = {})
      : options_(options) {}

  /// Files `table`'s column profiles into the buckets, replacing any
  /// profiles already indexed under that name.
  void AddTable(const std::string& table,
                const std::vector<ColumnLshProfile>& profiles);

  /// Drops `table`'s profiles from the buckets (no-op when absent).
  void RemoveTable(const std::string& table);

  /// Names of the other indexed tables that are candidates with `table`,
  /// ascending (empty when `table` is not indexed).
  std::vector<std::string> Partners(const std::string& table);

  /// Every candidate pair of indexed tables as (a, b) names with a < b,
  /// ascending. A non-null `bucket_collisions` receives the cross-table
  /// column collisions behind them (before table-pair dedup).
  std::vector<std::pair<std::string, std::string>> CandidatePairs(
      size_t* bucket_collisions = nullptr);

  const LshOptions& options() const { return options_; }

  /// Approximate footprint: a fixed header + the bucket entries. Size-based
  /// (entry counts, not container capacity), so equal content reports equal
  /// bytes and the derived gauges stay deterministic.
  size_t ApproxBytes() const;

 private:
  // One column filed under one bucket key: the owning table's slot and the
  // column's distinct count (for the cardinality-ratio bound).
  struct Entry {
    uint64_t key = 0;
    uint64_t slot = 0;
    uint64_t num_distinct = 0;
  };

  // Whether two colliding columns count as candidates.
  bool Admits(const Entry& a, const Entry& b) const;
  // Merges the entries appended since the last call into the sorted prefix.
  void Settle();

  LshOptions options_;
  // Every filing, sorted by (key, slot) up to settled_ (the rest were
  // appended since); a bucket is a run of equal keys.
  std::vector<Entry> entries_;
  size_t settled_ = 0;
  // Every AddTable files under a fresh slot, so slots are never reused.
  uint64_t next_slot_ = 0;
  std::unordered_map<std::string, uint64_t> slot_of_;
  std::unordered_map<uint64_t, std::string> name_of_;
};

}  // namespace autofeat

#endif  // AUTOFEAT_DISCOVERY_LSH_INDEX_H_
