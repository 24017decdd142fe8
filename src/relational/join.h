// Left join with cardinality normalisation (paper §IV-B).
//
// AutoFeat only performs *left* joins so that the base table's row count and
// label distribution are preserved. One-to-many and many-to-many joins are
// first normalised by grouping the right table on the join column and keeping
// one (seeded-)randomly chosen row per key, as in ARDA.

#ifndef AUTOFEAT_RELATIONAL_JOIN_H_
#define AUTOFEAT_RELATIONAL_JOIN_H_

#include <string>

#include "table/table.h"
#include "util/rng.h"
#include "util/status.h"

namespace autofeat {

struct JoinStats {
  /// Number of left rows that found a match on the right.
  size_t matched_rows = 0;
  /// Left row count (== output row count for a left join).
  size_t total_rows = 0;
  /// Distinct keys on the (normalised) right side.
  size_t right_distinct_keys = 0;

  double match_ratio() const {
    return total_rows == 0
               ? 0.0
               : static_cast<double>(matched_rows) /
                     static_cast<double>(total_rows);
  }
};

struct JoinResult {
  Table table;
  JoinStats stats;
};

/// Normalises the right side of a join to at most one row per key value:
/// groups by `key_column` and picks a uniformly random row per group.
/// Rows with a null key are dropped (they can never match).
Result<Table> NormalizeJoinCardinality(const Table& right,
                                       const std::string& key_column,
                                       Rng* rng);

/// AutoFeat exclusively uses left joins (§IV-B); the inner variant exists
/// to demonstrate *why* (see bench/ablation_join_design): it drops
/// unmatched base rows and skews the class distribution.
enum class JoinType {
  kLeft,
  kInner,
};

struct JoinOptions {
  JoinType type = JoinType::kLeft;
  /// Group the right side by key and keep one random row per key (§IV-B).
  /// Disabling it lets 1:N joins duplicate base rows — the other failure
  /// mode the paper's design avoids.
  bool normalize_cardinality = true;
};

/// Joins `right` onto `left` on left_key == right_key.
///
/// With the default options (left join, cardinality-normalised) the output
/// has exactly left.num_rows() rows in left order. All right columns are
/// appended; unmatched left rows get nulls (left join) or are dropped
/// (inner join). Right column names that collide with existing left column
/// names are disambiguated with a numeric suffix.
///
/// Fails with InvalidArgument if either key column is missing; succeeds with
/// stats.matched_rows == 0 when no key matches (callers treat that as the
/// "join not possible" pruning signal of §IV-C).
Result<JoinResult> Join(const Table& left, const std::string& left_key,
                        const Table& right, const std::string& right_key,
                        Rng* rng, const JoinOptions& options = {});

/// The paper's join: left, cardinality-normalised.
inline Result<JoinResult> LeftJoin(const Table& left,
                                   const std::string& left_key,
                                   const Table& right,
                                   const std::string& right_key, Rng* rng) {
  return Join(left, left_key, right, right_key, rng, JoinOptions{});
}

/// Reference implementation of Join that compares keys as KeyAt strings,
/// hashes the right side per call and materialises through its own code.
/// It is the differential oracle for Join and the engine (qa invariants,
/// tests) and the calibration arm of bench/join_path_eval; nothing in the
/// engine runs it.
Result<JoinResult> JoinStringKeyed(const Table& left,
                                   const std::string& left_key,
                                   const Table& right,
                                   const std::string& right_key, Rng* rng,
                                   const JoinOptions& options = {});

/// Completeness (non-null fraction) of the columns that `join` appended,
/// i.e. the data-quality score compared against the threshold tau (§IV-C).
/// `appended_columns` are the names of the newly added right-side columns;
/// naming a column `joined` does not have is a KeyError, not a silent skip.
Result<double> JoinCompleteness(
    const Table& joined, const std::vector<std::string>& appended_columns);

}  // namespace autofeat

#endif  // AUTOFEAT_RELATIONAL_JOIN_H_
