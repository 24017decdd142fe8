#include "relational/join_index.h"

#include <cmath>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "util/rng.h"
#include "util/simd.h"

namespace autofeat {

JoinKeyIndex BuildJoinKeyIndex(const Column& key, Rng* rng) {
  JoinKeyIndex index;
  index.dict = KeyDictionary::Build(key);
  uint32_t num_keys = index.dict.num_keys();
  index.representative.resize(num_keys);
  // Dictionary ids follow first-seen row order, so the draws below consume
  // the stream in the same group order as a string-keyed grouping would.
  for (uint32_t id = 0; id < num_keys; ++id) {
    const uint32_t* rows = index.dict.rows_begin(id);
    size_t count = index.dict.rows_count(id);
    index.representative[id] =
        count == 1 ? rows[0] : rows[rng->UniformIndex(count)];
  }
  return index;
}

JoinKeyIndex BuildJoinKeyIndex(const Column& key, uint64_t rep_seed) {
  Rng rng(rep_seed);
  return BuildJoinKeyIndex(key, &rng);
}

JoinRowMap MapLeftJoin(const Column& left_key, const JoinKeyIndex& index) {
  JoinRowMap map;
  size_t n = left_key.size();
  map.right_rows.resize(n);
  map.stats.total_rows = n;
  map.stats.right_distinct_keys = index.num_distinct_keys();
  for (size_t i = 0; i < n; ++i) {
    uint32_t id = index.dict.Lookup(left_key, i);
    if (id == KeyDictionary::kNoKey) {
      map.right_rows[i] = kNoMatchRow;
    } else {
      map.right_rows[i] = index.representative[id];
      ++map.stats.matched_rows;
    }
  }
  return map;
}

Column GatherColumn(const Column& src, const std::vector<uint32_t>& rows) {
  Column out(src.type());
  out.Reserve(rows.size());
  for (uint32_t r : rows) {
    if (r == kNoMatchRow) {
      out.AppendNull();
    } else {
      out.AppendFrom(src, r);
    }
  }
  return out;
}

size_t GatherNullCount(const Column& src, const std::vector<uint32_t>& rows) {
  if (src.all_valid()) {
    // No right-side nulls: the count is exactly the unmatched rows, which
    // the vectorised sentinel scan finds without touching the column.
    return simd::CountEqualU32(rows.data(), rows.size(), kNoMatchRow);
  }
  return GatherNullCountReference(src, rows);
}

size_t GatherNullCountReference(const Column& src,
                                const std::vector<uint32_t>& rows) {
  size_t nulls = 0;
  for (uint32_t r : rows) {
    if (r == kNoMatchRow || src.IsNull(r)) ++nulls;
  }
  return nulls;
}

std::vector<double> GatherNumeric(const Column& src,
                                  const std::vector<uint32_t>& rows) {
  if (src.type() == DataType::kDouble && src.all_valid()) {
    // All-valid double column — the common case for feature columns after
    // CSV ingest: branch-free masked gather, NaN where unmatched. The mask
    // keeps sentinel lanes from dereferencing src.
    std::vector<double> out(rows.size());
    simd::GatherDoublesByRow(src.double_data().data(), rows.data(),
                             rows.size(), kNoMatchRow, std::nan(""),
                             out.data());
    return out;
  }
  return GatherNumericReference(src, rows);
}

std::vector<double> GatherNumericReference(const Column& src,
                                           const std::vector<uint32_t>& rows) {
  std::vector<double> out(rows.size());
  if (src.type() == DataType::kString) {
    // First-occurrence ordinal codes in output order — identical to
    // materialising the gathered column and calling ToNumeric on it.
    std::unordered_map<std::string_view, double> codes;
    for (size_t i = 0; i < rows.size(); ++i) {
      uint32_t r = rows[i];
      if (r == kNoMatchRow || src.IsNull(r)) {
        out[i] = std::nan("");
        continue;
      }
      auto [it, inserted] = codes.try_emplace(
          std::string_view(src.GetString(r)),
          static_cast<double>(codes.size()));
      out[i] = it->second;
    }
    return out;
  }
  for (size_t i = 0; i < rows.size(); ++i) {
    uint32_t r = rows[i];
    out[i] = (r == kNoMatchRow || src.IsNull(r)) ? std::nan("")
                                                 : src.NumericAt(r);
  }
  return out;
}

std::vector<std::string> ResolveAppendedNames(const Table& left,
                                              const Table& right) {
  std::unordered_set<std::string> used;
  used.reserve(left.num_columns() + right.num_columns());
  for (const auto& name : left.ColumnNames()) used.insert(name);

  std::vector<std::string> out;
  out.reserve(right.num_columns());
  // Per-base suffix counters avoid the quadratic rescan of candidate names
  // while producing exactly the suffixes the old HasColumn loop chose.
  std::unordered_map<std::string, int> next_suffix;
  for (size_t c = 0; c < right.num_columns(); ++c) {
    std::string name = right.schema().field(c).name;
    if (used.count(name) > 0) {
      int& suffix = next_suffix.try_emplace(name, 2).first->second;
      std::string candidate;
      do {
        candidate = name + "#" + std::to_string(suffix);
        ++suffix;
      } while (used.count(candidate) > 0);
      name = std::move(candidate);
    }
    used.insert(name);
    out.push_back(std::move(name));
  }
  return out;
}

Status AppendGatheredColumns(const Table& right,
                             const std::vector<uint32_t>& right_rows,
                             const std::vector<std::string>& names,
                             Table* out) {
  for (size_t c = 0; c < right.num_columns(); ++c) {
    AF_RETURN_NOT_OK(
        out->AddColumn(names[c], GatherColumn(right.column(c), right_rows)));
  }
  return Status::OK();
}

Result<JoinResult> LeftJoinWithIndex(const Table& left,
                                     const std::string& left_key,
                                     const Table& right,
                                     const JoinKeyIndex& index) {
  AF_ASSIGN_OR_RETURN(const Column* lkey, left.GetColumn(left_key));
  JoinRowMap map = MapLeftJoin(*lkey, index);

  JoinResult result;
  result.stats = map.stats;
  result.table = left;
  AF_RETURN_NOT_OK(AppendGatheredColumns(right, map.right_rows,
                                         ResolveAppendedNames(left, right),
                                         &result.table));
  return result;
}

}  // namespace autofeat
