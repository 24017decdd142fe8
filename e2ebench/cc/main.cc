// End-to-end benchmark: the command-line entry point.
//
//   e2ebench --workload <kfk_registry|lake_discovered|serve_mutating>
//            --seed <n> --seconds <s> --trace <0|1>
//            [--plant core|ml] [--work-dir DIR] [--out-dir DIR]
//
// Generates the workload's lakes from --seed, measures for --seconds and
// checks every output against an oracle. The last stdout line is one JSON
// object {correct, attempted, failed, metrics}: the end-to-end metrics with
// --trace 0, the per-layer metrics (and the layer rollup artifacts) with
// --trace 1. Exits 1 when any operation or oracle check failed, 2 on bad
// arguments.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include <unistd.h>

#include "report.h"
#include "workloads.h"

namespace e2ebench {
namespace {

// Both lists match BENCHMARK.json; every run prints all of its list.
const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},          {"ops_per_s", "1/s"},
    {"op_ms_p50", "ms"},       {"op_ms_tail", "ms"},
    {"accuracy_mean", "fraction"}, {"peak_rss_mb", "MB"},
};

const std::vector<MetricSpec> kPerLayer = {
    {"table.load_ms", "ms"},
    {"table.load_mb_per_s", "MB/s"},
    {"discovery.drg_build_ms", "ms"},
    {"discovery.pairs_scored", "count"},
    {"discovery.ns_per_pair_scored", "ns"},
    {"discovery.match_yield", "fraction"},
    {"discovery.sketch_builds", "count"},
    {"serve.create_ms", "ms"},
    {"serve.apply_ms.add", "ms"},
    {"serve.apply_ms.append", "ms"},
    {"serve.apply_ms.drop", "ms"},
    {"serve.mutations_per_s", "1/s"},
    {"serve.mutation_ms_p50", "ms"},
    {"serve.mutation_ms_tail", "ms"},
    {"serve.rescore_share", "fraction"},
    {"serve.entries_carried", "count"},
    {"serve.discover_quiet_ms", "ms"},
    {"serve.query_wait_ms", "ms"},
    {"core.discover_ms", "ms"},
    {"core.paths_explored", "count"},
    {"core.us_per_path", "us"},
    {"core.prune_share", "fraction"},
    {"core.ranked_share", "fraction"},
    {"fs.select_ms", "ms"},
    {"relational.materialize_ms", "ms"},
    {"relational.join_cache_hit_share", "fraction"},
    {"relational.join_index_builds", "count"},
    {"ml.encode_ms", "ms"},
    {"ml.fit_ms", "ms"},
    {"ml.predict_ms", "ms"},
    {"ml.models_trained", "count"},
    {"ml.fit_ns_per_cell", "ns"},
    {"util.morsel_steal_share", "fraction"},
    {"trace.overhead_share", "fraction"},
    {"trace.unattributed_share", "fraction"},
    {"core.self_share", "fraction"},
    {"relational.self_share", "fraction"},
    {"ml.self_share", "fraction"},
    {"serve.self_share", "fraction"},
};

int Usage(const char* problem) {
  std::fprintf(stderr,
               "e2ebench: %s\nusage: e2ebench --workload "
               "<kfk_registry|lake_discovered|serve_mutating> --seed N "
               "--seconds S --trace 0|1 [--plant core|ml] [--work-dir DIR] "
               "[--out-dir DIR]\n",
               problem);
  return 2;
}

int Main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--plant") {
      options.plant = value;
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  const bool batch = options.workload == "kfk_registry" ||
                     options.workload == "lake_discovered";
  if (!batch && options.workload != "serve_mutating") {
    return Usage("unknown workload");
  }
  if (!(options.seconds > 0)) return Usage("--seconds must be positive");
  if (!options.plant.empty() &&
      (!batch || (options.plant != "core" && options.plant != "ml"))) {
    return Usage("--plant takes core or ml, on a batch workload");
  }
  // One work directory per process, removed when the run ends.
  options.work_dir += "/" + options.workload + "-" +
                      std::to_string(options.seed) + "-" +
                      std::to_string(::getpid());

  std::printf("e2ebench: workload=%s seed=%llu seconds=%.1f trace=%d%s%s\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0, options.plant.empty() ? "" : " plant=",
              options.plant.c_str());
  Report report;
  if (batch) {
    RunBatch(options, options.workload == "lake_discovered", &report);
  } else {
    RunServing(options, &report);
  }
  std::error_code ec;
  std::filesystem::remove_all(options.work_dir, ec);
  report.Print(options.trace ? kPerLayer : kEndToEnd);
  return report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) { return e2ebench::Main(argc, argv); }
