// The benchmark's workloads. Each fills `report` with its metrics and
// oracle verdicts; with options.trace it runs the traced variant, which
// reports the per-layer metrics and writes the layer rollup.

#ifndef E2EBENCH_WORKLOADS_H_
#define E2EBENCH_WORKLOADS_H_

#include "report.h"

namespace e2ebench {

/// kfk_registry (discovered == false) and lake_discovered (true).
void RunBatch(const Options& options, bool discovered, Report* report);

/// serve_mutating.
void RunServing(const Options& options, Report* report);

/// The measured set-up is short next to the timed loop, so it is repeated
/// at least three times and for at least two seconds (at most 15 times);
/// setup_s is the median.
inline bool MoreSetups(size_t done, double elapsed_seconds) {
  return done < 3 || (elapsed_seconds < 2.0 && done < 15);
}

}  // namespace e2ebench

#endif  // E2EBENCH_WORKLOADS_H_
