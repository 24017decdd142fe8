// Layer rollup of the traced run: self time per layer from the spans the
// benchmark records around each public library call.
//
// Span names are "<module>.<call>" (core.discover, ml.fit, ...); a root
// span ("augment", "query", ...) encloses the calls of one operation. A
// layer's self time is its span durations minus the part their child
// spans cover; a root's self time is the benchmark's own glue and is
// reported as unattributed.

#ifndef E2EBENCH_ROLLUP_H_
#define E2EBENCH_ROLLUP_H_

#include <cstddef>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace e2ebench {

/// Work done by one layer over the traced run, for the ns-per-unit column.
struct Work {
  double count = 0.0;
  std::string unit;
};

struct LayerRow {
  std::string layer;
  double self_seconds = 0.0;
  double share = 0.0;
  Work work;
};

struct Rollup {
  std::vector<std::string> roots;
  double total_seconds = 0.0;
  double unattributed_seconds = 0.0;
  std::vector<LayerRow> rows;  // descending self time

  /// Summed share of every layer of `module` ("ml" covers ml.*).
  double ModuleShare(const std::string& module) const;
  double UnattributedShare() const {
    return total_seconds > 0 ? unattributed_seconds / total_seconds : 0.0;
  }
};

/// Rolls up the spans under root spans named in `roots`.
Rollup RollUp(const std::vector<autofeat::obs::SpanRecord>& spans,
              const std::vector<std::string>& roots,
              const std::map<std::string, Work>& work);

void PrintRollup(const Rollup& rollup, const std::string& title);

/// Writes TRACE_<workload>.json (Chrome trace of the benchmark's spans) and
/// LAYERS_<workload>.tsv (one block per rollup) into `out_dir`.
bool WriteRollupArtifacts(const autofeat::obs::Tracer& tracer,
                          const std::vector<Rollup>& rollups,
                          const std::vector<std::string>& titles,
                          const std::string& out_dir,
                          const std::string& workload);

}  // namespace e2ebench

#endif  // E2EBENCH_ROLLUP_H_
