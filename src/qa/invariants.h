// Invariant registry: metamorphic/algebraic checks run over fuzzed lakes.
//
// Every invariant is a cheap, total predicate over one FuzzedLake: it either
// holds (OK), is vacuous for this lake's shape (also OK), or is violated
// (non-OK Status whose message names the witness). Invariants never mutate
// their input and never depend on global state, so the runner can evaluate
// them in any order and across threads.
//
// Adding one: write a `Status Check(const FuzzedLake&)`, append an entry to
// BuiltinInvariants(), and (if it guards a bug fix) land the shrunk repro as
// a regression test. See DESIGN.md "Testing strategy".

#ifndef AUTOFEAT_QA_INVARIANTS_H_
#define AUTOFEAT_QA_INVARIANTS_H_

#include <functional>
#include <string>
#include <vector>

#include "core/autofeat.h"
#include "core/config.h"
#include "qa/lake_fuzzer.h"
#include "util/status.h"

namespace autofeat::qa {

/// \brief One registered metamorphic/algebraic check.
struct Invariant {
  std::string name;         // stable id, e.g. "join.left_preserves_rows"
  std::string description;  // one-line statement of the property
  std::function<Status(const FuzzedLake&)> check;
};

/// The production invariant registry (>= 10 checks covering join algebra,
/// information-theory bounds, ranking sanity, determinism and round trips).
const std::vector<Invariant>& BuiltinInvariants();

/// A deliberately wrong test-only invariant ("no column contains a null")
/// used to exercise the shrinker and the repro pipeline end to end.
Invariant PlantedNoNullsInvariant();

/// BuiltinInvariants() plus the planted bug when `include_planted`.
std::vector<Invariant> RegistryInvariants(bool include_planted);

/// The discovery configuration invariants use: KFK DRG, full rows
/// (no sampling), seeded from the lake's own seed.
AutoFeatConfig FuzzDiscoveryConfig(const FuzzedLake& fz, size_t num_threads);

/// The cache budgets cache.eviction_oblivious runs under, given a cache's
/// unbudgeted footprint (join-index or sketch bytes_peak): a fixed 32 KiB
/// and a third of the footprint.
std::vector<size_t> EvictionStressBudgets(size_t footprint_bytes);

/// Canonical text fingerprint of a DiscoveryResult: explored/pruned
/// counters plus per-path score (17 significant digits), join steps and
/// selected features. Byte-equal fingerprints == identical discovery output.
std::string DiscoveryFingerprint(const DiscoveryResult& result);

}  // namespace autofeat::qa

#endif  // AUTOFEAT_QA_INVARIANTS_H_
