// Factorized (late-materialization) join primitives.
//
// A cardinality-normalised left join (join.h) is fully determined by a
// per-key representative row on the right plus a left-row -> right-row
// mapping. This header exposes that decomposition: a JoinKeyIndex interns a
// right key column once (KeyDictionary) and fixes one deterministic
// representative row per key; MapLeftJoin probes it into a compact row
// mapping; the Gather* helpers then score completeness and build numeric
// feature views straight through the mapping, materialising an actual
// joined Table only when a caller really needs one (LeftJoinWithIndex).
//
// The representative picks are a pure function of (column contents,
// rep_seed), so any number of threads probing a shared index — and any
// interleaving of cache builds — produces byte-identical results.

#ifndef AUTOFEAT_RELATIONAL_JOIN_INDEX_H_
#define AUTOFEAT_RELATIONAL_JOIN_INDEX_H_

#include <cstdint>
#include <string>
#include <vector>

#include "relational/join.h"
#include "table/key_dictionary.h"
#include "table/table.h"
#include "util/rng.h"
#include "util/status.h"

namespace autofeat {

/// Sentinel right-row for unmatched left rows in a JoinRowMap.
inline constexpr uint32_t kNoMatchRow = static_cast<uint32_t>(-1);

/// \brief Interned hash index over one (right-side) key column: the key
/// dictionary plus one deterministic representative row per key (§IV-B
/// cardinality normalisation, with the pick derived from `rep_seed` instead
/// of a caller-supplied generator).
struct JoinKeyIndex {
  KeyDictionary dict;
  /// One right row per key id (the normalised join partner).
  std::vector<uint32_t> representative;

  size_t num_distinct_keys() const { return representative.size(); }

  /// Approximate heap footprint in bytes (dictionary + representatives);
  /// size-based and deterministic like KeyDictionary::ApproxBytes.
  size_t ApproxBytes() const {
    return dict.ApproxBytes() + representative.size() * sizeof(uint32_t);
  }
};

/// Builds the index of `key`, drawing one representative per duplicated key
/// from `rng` in first-seen key order. Join and NormalizeJoinCardinality
/// draw through this overload.
JoinKeyIndex BuildJoinKeyIndex(const Column& key, Rng* rng);

/// The same with representatives drawn from Rng(rep_seed) — the
/// JoinIndexCache form, whose picks are a pure function of the column.
JoinKeyIndex BuildJoinKeyIndex(const Column& key, uint64_t rep_seed);

/// \brief A composed left-join row mapping: output row i of the join reads
/// left row i and right row `right_rows[i]` (kNoMatchRow when unmatched).
struct JoinRowMap {
  std::vector<uint32_t> right_rows;
  JoinStats stats;
};

/// Probes every row of `left_key` against the index (cardinality-normalised
/// left join: at most one right row per left row, in left order).
JoinRowMap MapLeftJoin(const Column& left_key, const JoinKeyIndex& index);

/// Materialises `src` gathered through the mapping (null where unmatched).
Column GatherColumn(const Column& src, const std::vector<uint32_t>& rows);

/// Null count of `src` gathered through the mapping, without materialising:
/// unmatched rows plus right-side nulls. Equals
/// GatherColumn(src, rows).null_count().
size_t GatherNullCount(const Column& src, const std::vector<uint32_t>& rows);

/// Numeric view of `src` gathered through the mapping, without
/// materialising. Equals GatherColumn(src, rows).ToNumeric() — including
/// the first-occurrence ordinal encoding of string columns, which is
/// assigned in output (left) row order. All-valid double columns take a
/// branch-free SIMD masked-gather path; everything else falls back to the
/// scalar reference.
std::vector<double> GatherNumeric(const Column& src,
                                  const std::vector<uint32_t>& rows);

/// Scalar references of the two gather kernels above, kept for differential
/// testing (tests/kernels_test.cc) — bit-identical to the SIMD paths on
/// every input, including the NaN fill of unmatched rows.
std::vector<double> GatherNumericReference(const Column& src,
                                           const std::vector<uint32_t>& rows);
size_t GatherNullCountReference(const Column& src,
                                const std::vector<uint32_t>& rows);

/// The column names Join would give `right`'s columns when appending them to
/// `left` (collision suffixes included), without performing the join.
std::vector<std::string> ResolveAppendedNames(const Table& left,
                                              const Table& right);

/// Appends `right`'s columns to `out` gathered through `right_rows` (null
/// where kNoMatchRow) under `names` (ResolveAppendedNames of the left side):
/// the materialisation step of Join, LeftJoinWithIndex and the BFS frontier.
Status AppendGatheredColumns(const Table& right,
                             const std::vector<uint32_t>& right_rows,
                             const std::vector<std::string>& names,
                             Table* out);

/// Cardinality-normalised left join through a prebuilt index; LeftJoin is
/// this over BuildJoinKeyIndex(right key, rng). `index` must have been built
/// over `right`'s join column.
Result<JoinResult> LeftJoinWithIndex(const Table& left,
                                     const std::string& left_key,
                                     const Table& right,
                                     const JoinKeyIndex& index);

}  // namespace autofeat

#endif  // AUTOFEAT_RELATIONAL_JOIN_INDEX_H_
