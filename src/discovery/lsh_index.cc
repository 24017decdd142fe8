#include "discovery/lsh_index.h"

#include <algorithm>

#include "util/rng.h"
#include "util/simd.h"

namespace autofeat {

uint64_t LshValueHash(const std::string& value) {
  // FNV-1a 64: platform-stable, unlike std::hash (whose result may differ
  // across standard libraries and would leak into the candidate list).
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : value) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

MinHashSignature ComputeMinHashSignature(const ColumnSketch& sketch,
                                         size_t num_hashes) {
  MinHashSignature sig;
  if (sketch.values.empty() || num_hashes == 0) return sig;
  sig.mins.assign(num_hashes, ~uint64_t{0});
  for (const auto& value : sketch.values) {
    // Batched over the derivation streams: the vector kernel re-derives the
    // splitmix64 finaliser in 64-bit lanes, bit-exact with DeriveSeed — the
    // signatures feed the candidate list and must not depend on the
    // build's ISA.
    simd::MinHashUpdate(LshValueHash(value), sig.mins.data(), num_hashes);
  }
  return sig;
}

MinHashSignature ComputeMinHashSignatureReference(const ColumnSketch& sketch,
                                                  size_t num_hashes) {
  MinHashSignature sig;
  if (sketch.values.empty() || num_hashes == 0) return sig;
  sig.mins.assign(num_hashes, ~uint64_t{0});
  for (const auto& value : sketch.values) {
    uint64_t base = LshValueHash(value);
    for (size_t k = 0; k < num_hashes; ++k) {
      uint64_t h = DeriveSeed(base, k);
      if (h < sig.mins[k]) sig.mins[k] = h;
    }
  }
  return sig;
}

namespace {

// Mixes a band's row minima into one bucket fingerprint.
uint64_t BandContentHash(const uint64_t* mins, size_t rows) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (size_t r = 0; r < rows; ++r) {
    h ^= mins[r];
    h *= 0x100000001b3ULL;
  }
  return h;
}

// Columns rescued by containment index every sketch value besides their
// bands (see the file comment).
bool RescuedByContainment(const ColumnSketch& sketch,
                          const LshOptions& options) {
  return options.small_column_rescue > 0 && !sketch.values.empty() &&
         sketch.num_distinct >= options.min_distinct &&
         sketch.num_distinct <= options.small_column_rescue;
}

}  // namespace

ColumnLshProfile ComputeColumnLshProfile(const ColumnSketch& sketch,
                                         DataType type,
                                         const LshOptions& options) {
  ColumnLshProfile profile;
  profile.num_distinct = sketch.num_distinct;
  MinHashSignature sig;
  if (sketch.num_distinct >= options.min_distinct) {
    sig = ComputeMinHashSignature(sketch, options.num_hashes());
  }
  const bool rescued = RescuedByContainment(sketch, options);
  if (sig.empty() && !rescued) return profile;
  profile.signature_bytes = sig.ApproxBytes();
  const uint64_t group = type != DataType::kDouble ? 1 : 0;
  for (size_t b = 0; b * options.rows_per_band < sig.mins.size(); ++b) {
    uint64_t content = BandContentHash(
        sig.mins.data() + b * options.rows_per_band,
        std::min(options.rows_per_band,
                 sig.mins.size() - b * options.rows_per_band));
    profile.bucket_keys.push_back(DeriveSeed(content, 2 * b + group));
  }
  if (rescued) {
    const uint64_t rescue_stream_base = 2 * options.num_bands;
    for (const auto& value : sketch.values) {
      profile.bucket_keys.push_back(
          DeriveSeed(LshValueHash(value), rescue_stream_base + group));
    }
  }
  std::sort(profile.bucket_keys.begin(), profile.bucket_keys.end());
  return profile;
}

std::vector<ColumnLshProfile> ComputeTableLshProfiles(
    const Table& table, const std::vector<ColumnSketch>& sketches,
    const LshOptions& options) {
  std::vector<ColumnLshProfile> profiles(sketches.size());
  for (size_t c = 0; c < sketches.size(); ++c) {
    profiles[c] = ComputeColumnLshProfile(
        sketches[c], table.schema().field(c).type, options);
  }
  return profiles;
}

namespace {

// Calls visit(lo, hi) for every bucket: each maximal run [lo, hi) of
// entries sharing a key.
template <typename Entries, typename Visit>
void ForEachBucket(const Entries& entries, Visit&& visit) {
  for (size_t lo = 0, hi = 0; lo < entries.size(); lo = hi) {
    while (hi < entries.size() && entries[hi].key == entries[lo].key) ++hi;
    visit(lo, hi);
  }
}

}  // namespace

bool LshCandidateIndex::Admits(const Entry& a, const Entry& b) const {
  if (a.slot == b.slot) return false;
  if (options_.max_cardinality_ratio <= 0) return true;
  const uint64_t lo = std::min(a.num_distinct, b.num_distinct);
  const uint64_t hi = std::max(a.num_distinct, b.num_distinct);
  return static_cast<double>(hi) <=
         options_.max_cardinality_ratio * static_cast<double>(lo);
}

void LshCandidateIndex::Settle() {
  auto by_key = [](const Entry& a, const Entry& b) {
    return a.key != b.key ? a.key < b.key : a.slot < b.slot;
  };
  const auto appended = entries_.begin() + static_cast<ptrdiff_t>(settled_);
  std::sort(appended, entries_.end(), by_key);
  std::inplace_merge(entries_.begin(), appended, entries_.end(), by_key);
  settled_ = entries_.size();
}

void LshCandidateIndex::AddTable(
    const std::string& table, const std::vector<ColumnLshProfile>& profiles) {
  RemoveTable(table);
  const uint64_t slot = next_slot_++;
  slot_of_[table] = slot;
  name_of_[slot] = table;
  for (const ColumnLshProfile& profile : profiles) {
    for (uint64_t key : profile.bucket_keys) {
      entries_.push_back({key, slot, profile.num_distinct});
    }
  }
}

void LshCandidateIndex::RemoveTable(const std::string& table) {
  auto it = slot_of_.find(table);
  if (it == slot_of_.end()) return;
  const uint64_t slot = it->second;
  Settle();
  std::erase_if(entries_, [&](const Entry& e) { return e.slot == slot; });
  settled_ = entries_.size();
  name_of_.erase(slot);
  slot_of_.erase(it);
}

std::vector<std::string> LshCandidateIndex::Partners(
    const std::string& table) {
  std::vector<std::string> partners;
  auto it = slot_of_.find(table);
  if (it == slot_of_.end()) return partners;
  Settle();
  ForEachBucket(entries_, [&](size_t lo, size_t hi) {
    for (size_t a = lo; a < hi; ++a) {
      if (entries_[a].slot != it->second) continue;
      for (size_t b = lo; b < hi; ++b) {
        if (Admits(entries_[a], entries_[b])) {
          partners.push_back(name_of_.at(entries_[b].slot));
        }
      }
    }
  });
  std::sort(partners.begin(), partners.end());
  partners.erase(std::unique(partners.begin(), partners.end()),
                 partners.end());
  return partners;
}

std::vector<std::pair<std::string, std::string>>
LshCandidateIndex::CandidatePairs(size_t* bucket_collisions) {
  // Every cross-table column pair sharing a bucket is a candidate table
  // pair. Slot pairs are deduplicated before naming and the named pairs
  // sorted, so the slot assignment does not leak into the output.
  Settle();
  std::vector<std::pair<uint64_t, uint64_t>> slot_pairs;
  size_t collisions = 0;
  ForEachBucket(entries_, [&](size_t lo, size_t hi) {
    for (size_t a = lo; a < hi; ++a) {
      for (size_t b = a + 1; b < hi; ++b) {
        if (!Admits(entries_[a], entries_[b])) continue;
        ++collisions;
        // Buckets are sorted by slot, so a's slot is the smaller.
        slot_pairs.emplace_back(entries_[a].slot, entries_[b].slot);
      }
    }
  });
  std::sort(slot_pairs.begin(), slot_pairs.end());
  slot_pairs.erase(std::unique(slot_pairs.begin(), slot_pairs.end()),
                   slot_pairs.end());
  std::vector<std::pair<std::string, std::string>> pairs;
  for (const auto& [a, b] : slot_pairs) {
    pairs.push_back(std::minmax(name_of_.at(a), name_of_.at(b)));
  }
  std::sort(pairs.begin(), pairs.end());
  if (bucket_collisions != nullptr) *bucket_collisions = collisions;
  return pairs;
}

size_t LshCandidateIndex::ApproxBytes() const {
  // The 64-byte header is a fixed charge, so the gauge depends on the
  // indexed content only, not on the index's bookkeeping layout.
  constexpr size_t kHeaderBytes = 64;
  return kHeaderBytes + entries_.size() * sizeof(Entry);
}

}  // namespace autofeat
