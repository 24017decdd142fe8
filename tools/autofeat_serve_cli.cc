// autofeat_serve_cli — long-lived AutoFeat daemon over a data lake.
//
// Loads a lake, stands up the serving layer (serve::LakeService) and then
// executes newline-delimited commands from stdin (interactive) or from a
// --script file. Mutations maintain the DRG and caches incrementally —
// only the touched table is re-matched and untouched cache entries carry
// over — so a mutate/query session never pays a cold rebuild, while every
// query sees a state byte-identical to one.
//
// Usage:
//   autofeat_serve_cli --lake DIR [--lake-format csv|columnar]
//                      [--drg-matcher all_pairs|lsh] [--threshold F]
//                      [--threads N]
//                      [--memory-budget-mb N] [--script FILE]
//                      [--metrics-out FILE.json] [--trace-out FILE.json]
//                      [--event-log FILE.jsonl] [--metrics-text FILE]
//                      [--slow-query-ms N]
//
// Commands (one per line; '#' starts a comment):
//   add FILE.csv [NAME]      add a table (NAME defaults to the file stem)
//   append TABLE FILE.csv    append rows; the schema must match exactly
//   drop TABLE               drop a table
//   discover BASE LABEL      rank transitive join paths from BASE
//   augment BASE LABEL [MODEL] [OUT.csv]
//                            full augmentation; optionally save the table
//   tables                   list tables at the current epoch
//   epoch                    print the current epoch
//   stats [--json]           serving summary (or the full JSON obs report)
//   lineage                  per-epoch provenance records as JSON
//   metrics                  Prometheus text exposition of every metric
//   quit                     exit
//
// Observability sinks, all written at exit: --metrics-out (JSON obs
// report), --trace-out (Chrome/Perfetto trace with one span tree per
// command, per-query spans and enqueue->execute flow arrows),
// --event-log (structured JSONL: query start/end, mutation apply, epoch
// publish, cache evict/rebuild, slow queries). --slow-query-ms sets the
// slow-query event threshold (0 = disabled; note that which queries cross
// a nonzero threshold is wall-clock dependent, so replay determinism of
// the event log holds at the default 0).
//
// A failed command (bad file, duplicate table, schema mismatch, ...)
// prints the error and leaves the service state untouched; the daemon
// keeps running. The exit code is 0 when every command succeeded.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>

#include "discovery/data_lake.h"
#include "graph/path_format.h"
#include "ml/trainer.h"
#include "obs/chrome_trace.h"
#include "obs/event_log.h"
#include "obs/prometheus.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "serve/lake_service.h"
#include "table/csv.h"

namespace {

using namespace autofeat;

struct CliOptions {
  std::string lake_dir;
  std::string lake_format = "csv";
  std::string drg_matcher = "lsh";
  std::string script;
  std::string metrics_output;
  std::string trace_output;
  std::string event_log_output;
  std::string metrics_text_output;
  double threshold = 0.55;
  size_t threads = 1;
  size_t memory_budget_mb = 0;
  size_t slow_query_ms = 0;
};

void PrintUsage() {
  std::fprintf(
      stderr,
      "usage: autofeat_serve_cli --lake DIR [--lake-format csv|columnar]\n"
      "                          [--drg-matcher all_pairs|lsh]\n"
      "                          [--threshold F] [--threads N]\n"
      "                          [--memory-budget-mb N] [--script FILE]\n"
      "                          [--metrics-out FILE.json]\n"
      "                          [--trace-out FILE.json]\n"
      "                          [--event-log FILE.jsonl]\n"
      "                          [--metrics-text FILE]\n"
      "                          [--slow-query-ms N]\n"
      "commands (stdin or --script, one per line, '#' comments):\n"
      "  add FILE.csv [NAME]    add a table (NAME defaults to the stem)\n"
      "  append TABLE FILE.csv  append rows (schema must match exactly)\n"
      "  drop TABLE             drop a table\n"
      "  discover BASE LABEL    rank transitive join paths from BASE\n"
      "  augment BASE LABEL [lightgbm|rf|extratrees|xgboost|knn|logreg]\n"
      "                    [OUT.csv]\n"
      "  tables | epoch | stats [--json] | lineage | metrics | quit\n");
}

bool ParseArgs(int argc, char** argv, CliOptions* options) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--lake") {
      const char* v = next();
      if (!v) return false;
      options->lake_dir = v;
    } else if (arg == "--lake-format") {
      const char* v = next();
      if (!v) return false;
      options->lake_format = v;
    } else if (arg == "--drg-matcher") {
      const char* v = next();
      if (!v) return false;
      options->drg_matcher = v;
    } else if (arg == "--script") {
      const char* v = next();
      if (!v) return false;
      options->script = v;
    } else if (arg == "--metrics-out") {
      const char* v = next();
      if (!v) return false;
      options->metrics_output = v;
    } else if (arg == "--trace-out") {
      const char* v = next();
      if (!v) return false;
      options->trace_output = v;
    } else if (arg == "--event-log") {
      const char* v = next();
      if (!v) return false;
      options->event_log_output = v;
    } else if (arg == "--metrics-text") {
      const char* v = next();
      if (!v) return false;
      options->metrics_text_output = v;
    } else if (arg == "--slow-query-ms") {
      const char* v = next();
      if (!v) return false;
      options->slow_query_ms = static_cast<size_t>(std::atol(v));
    } else if (arg == "--threshold") {
      const char* v = next();
      if (!v) return false;
      options->threshold = std::atof(v);
    } else if (arg == "--threads") {
      const char* v = next();
      if (!v) return false;
      options->threads = static_cast<size_t>(std::atoi(v));
    } else if (arg == "--memory-budget-mb") {
      const char* v = next();
      if (!v) return false;
      options->memory_budget_mb = static_cast<size_t>(std::atol(v));
    } else if (arg == "--help" || arg == "-h") {
      return false;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return false;
    }
  }
  return !options->lake_dir.empty();
}

Result<ml::ModelKind> ParseModel(const std::string& name) {
  if (name == "lightgbm") return ml::ModelKind::kLightGbm;
  if (name == "rf") return ml::ModelKind::kRandomForest;
  if (name == "extratrees") return ml::ModelKind::kExtraTrees;
  if (name == "xgboost") return ml::ModelKind::kXgBoost;
  if (name == "knn") return ml::ModelKind::kKnn;
  if (name == "logreg") return ml::ModelKind::kLogRegL1;
  return Status::InvalidArgument(
      "unknown model: " + name +
      " (valid values: lightgbm, rf, extratrees, xgboost, knn, logreg)");
}

std::string FileStem(const std::string& path) {
  size_t slash = path.find_last_of('/');
  std::string stem = slash == std::string::npos ? path : path.substr(slash + 1);
  size_t dot = stem.find_last_of('.');
  return dot == std::string::npos ? stem : stem.substr(0, dot);
}

/// Executes one command line. Returns false on a failed command (the
/// daemon keeps running either way); sets *quit on "quit". A non-null
/// `tracer` records every query's span tree (--trace-out).
bool RunCommand(serve::LakeService* service, const obs::MetricsRegistry& metrics,
                obs::Tracer* tracer, const std::string& line, bool* quit) {
  std::istringstream fields(line);
  std::string command;
  if (!(fields >> command) || command[0] == '#') return true;

  auto fail = [](const Status& status, const char* what) {
    std::fprintf(stderr, "error: %s: %s\n", what,
                 status.ToString().c_str());
    return false;
  };

  if (command == "quit" || command == "exit") {
    *quit = true;
    return true;
  }
  if (command == "epoch") {
    std::printf("epoch %llu\n",
                static_cast<unsigned long long>(service->epoch()));
    return true;
  }
  if (command == "tables") {
    serve::LakeService::SnapshotPin snap = service->snapshot();
    std::printf("epoch %llu: %zu tables\n",
                static_cast<unsigned long long>(snap->epoch),
                snap->lake.num_tables());
    for (const std::string& name : snap->lake.TableNames()) {
      const Table* table = snap->lake.GetTable(name).ValueOrDie();
      std::printf("  %-24s %zu cols x %zu rows\n", name.c_str(),
                  table->num_columns(), table->num_rows());
    }
    return true;
  }
  if (command == "stats") {
    std::string flag;
    fields >> flag;
    if (flag == "--json") {
      std::printf("%s\n", obs::JsonReport(metrics, tracer).c_str());
      return true;
    }
    serve::LakeService::SnapshotPin snap = service->snapshot();
    std::printf("epoch %llu: %zu tables, %zu DRG edges\n",
                static_cast<unsigned long long>(snap->epoch),
                snap->lake.num_tables(), snap->drg.num_edges());
    auto ms = [&](const char* name, double q) {
      return static_cast<double>(metrics.QuantileValueAt(name, q)) / 1e6;
    };
    std::printf("  queries   %llu (p50 %.3f ms, p99 %.3f ms)\n",
                static_cast<unsigned long long>(
                    metrics.CounterValue("serve.queries")),
                ms("serve.query_latency_ns", 0.50),
                ms("serve.query_latency_ns", 0.99));
    std::printf("  mutations %llu ok, %llu failed (p50 %.3f ms, p99 %.3f "
                "ms)\n",
                static_cast<unsigned long long>(
                    metrics.CounterValue("serve.mutations")),
                static_cast<unsigned long long>(
                    metrics.CounterValue("serve.mutations_failed")),
                ms("serve.mutation_latency_ns", 0.50),
                ms("serve.mutation_latency_ns", 0.99));
    std::printf("  slow queries %llu\n",
                static_cast<unsigned long long>(
                    metrics.CounterValue("serve.slow_queries")));
    return true;
  }
  if (command == "lineage") {
    std::printf("%s", service->LineageJson().c_str());
    return true;
  }
  if (command == "metrics") {
    std::printf("%s", obs::PrometheusText(metrics).c_str());
    return true;
  }
  if (command == "add") {
    std::string path, name;
    if (!(fields >> path)) {
      std::fprintf(stderr, "usage: add FILE.csv [NAME]\n");
      return false;
    }
    fields >> name;
    auto table = ReadCsvFile(path);
    if (!table.ok()) return fail(table.status(), "add");
    table->set_name(name.empty() ? FileStem(path) : name);
    std::string label = table->name();
    auto epoch = service->AddTable(table.MoveValue());
    if (!epoch.ok()) return fail(epoch.status(), "add");
    std::printf("epoch %llu: added %s\n",
                static_cast<unsigned long long>(*epoch), label.c_str());
    return true;
  }
  if (command == "append") {
    std::string table, path;
    if (!(fields >> table >> path)) {
      std::fprintf(stderr, "usage: append TABLE FILE.csv\n");
      return false;
    }
    auto rows = ReadCsvFile(path);
    if (!rows.ok()) return fail(rows.status(), "append");
    auto epoch = service->AppendRows(table, *rows);
    if (!epoch.ok()) return fail(epoch.status(), "append");
    std::printf("epoch %llu: appended %zu rows to %s\n",
                static_cast<unsigned long long>(*epoch), rows->num_rows(),
                table.c_str());
    return true;
  }
  if (command == "drop") {
    std::string table;
    if (!(fields >> table)) {
      std::fprintf(stderr, "usage: drop TABLE\n");
      return false;
    }
    auto epoch = service->DropTable(table);
    if (!epoch.ok()) return fail(epoch.status(), "drop");
    std::printf("epoch %llu: dropped %s\n",
                static_cast<unsigned long long>(*epoch), table.c_str());
    return true;
  }
  if (command == "discover") {
    std::string base, label;
    if (!(fields >> base >> label)) {
      std::fprintf(stderr, "usage: discover BASE LABEL\n");
      return false;
    }
    // Command-ingest span: the query's serve.discover span (and its flow
    // link to execution) nests under it in the exported trace.
    obs::ScopedSpan cmd(tracer, "serve.command");
    auto out = service->Discover(base, label, /*metrics=*/nullptr, tracer);
    if (!out.ok()) return fail(out.status(), "discover");
    serve::LakeService::SnapshotPin snap = service->snapshot();
    std::printf("epoch %llu: %zu ranked path(s), %zu explored in %.3fs\n",
                static_cast<unsigned long long>(out->epoch),
                out->discovery.ranked.size(), out->discovery.paths_explored,
                out->discovery.total_seconds);
    for (const RankedPath& ranked : out->discovery.ranked) {
      std::printf("  %7.3f  %s (%zu feature(s))\n", ranked.score,
                  FormatJoinPath(snap->drg, ranked.path).c_str(),
                  ranked.selected_features.size());
    }
    return true;
  }
  if (command == "augment") {
    std::string base, label, model_name = "lightgbm", output;
    if (!(fields >> base >> label)) {
      std::fprintf(stderr, "usage: augment BASE LABEL [MODEL] [OUT.csv]\n");
      return false;
    }
    fields >> model_name >> output;
    auto model = ParseModel(model_name);
    if (!model.ok()) return fail(model.status(), "augment");
    obs::ScopedSpan cmd(tracer, "serve.command");
    auto out =
        service->Augment(base, label, *model, /*metrics=*/nullptr, tracer);
    if (!out.ok()) return fail(out.status(), "augment");
    serve::LakeService::SnapshotPin snap = service->snapshot();
    std::printf(
        "epoch %llu: accuracy %.4f via %s (%zu feature(s), %.3fs)\n",
        static_cast<unsigned long long>(out->epoch),
        out->augmentation.accuracy,
        FormatJoinPath(snap->drg, out->augmentation.best_path.path).c_str(),
        out->augmentation.best_path.selected_features.size(),
        out->augmentation.total_seconds);
    if (!output.empty()) {
      Status write = WriteCsvFile(out->augmentation.augmented, output);
      if (!write.ok()) return fail(write, "augment");
      std::printf("wrote %s\n", output.c_str());
    }
    return true;
  }
  std::fprintf(stderr,
               "unknown command: %s (valid: add, append, drop, discover, "
               "augment, tables, epoch, stats, lineage, metrics, quit)\n",
               command.c_str());
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions options;
  if (!ParseArgs(argc, argv, &options)) {
    PrintUsage();
    return 2;
  }

  auto format = ParseLakeFormat(options.lake_format);
  if (!format.ok()) {
    std::fprintf(stderr, "--lake-format: %s\n",
                 format.status().message().c_str());
    return 2;
  }

  serve::ServeOptions serve_options;
  serve_options.match.threshold = options.threshold;
  serve_options.match.memory_budget_bytes =
      options.memory_budget_mb * (size_t{1} << 20);
  if (options.drg_matcher == "lsh") {
    serve_options.match.candidate_mode = CandidateMode::kLsh;
  } else if (options.drg_matcher != "all_pairs") {
    std::fprintf(stderr,
                 "unknown --drg-matcher: %s (valid values: all_pairs, lsh)\n",
                 options.drg_matcher.c_str());
    return 2;
  }
  serve_options.config.num_threads = options.threads;
  serve_options.config.memory_budget_bytes =
      serve_options.match.memory_budget_bytes;
  serve_options.slow_query_threshold_ns =
      options.slow_query_ms * uint64_t{1000000};

  auto lake = DataLake::FromDirectory(options.lake_dir, *format);
  lake.status().Abort("loading lake");
  std::printf("loaded %zu tables from %s\n", lake->num_tables(),
              options.lake_dir.c_str());

  obs::MetricsRegistry metrics;
  obs::Tracer tracer;
  obs::Tracer* tracer_ptr = options.trace_output.empty() ? nullptr : &tracer;
  obs::EventLog event_log;
  obs::EventLog* event_log_ptr =
      options.event_log_output.empty() ? nullptr : &event_log;
  auto service = serve::LakeService::Create(lake.MoveValue(), serve_options,
                                            &metrics, tracer_ptr,
                                            event_log_ptr);
  service.status().Abort("starting lake service");
  {
    serve::LakeService::SnapshotPin snap = (*service)->snapshot();
    std::printf("serving epoch 0: DRG %zu nodes, %zu edges\n",
                snap->drg.num_nodes(), snap->drg.num_edges());
  }

  std::ifstream script;
  if (!options.script.empty()) {
    script.open(options.script);
    if (!script) {
      std::fprintf(stderr, "cannot open --script %s\n",
                   options.script.c_str());
      return 2;
    }
  }
  std::istream& input = options.script.empty() ? std::cin : script;
  const bool interactive = options.script.empty();

  int failed = 0;
  bool quit = false;
  std::string line;
  if (interactive) std::printf("> ");
  while (!quit && std::getline(input, line)) {
    if (!RunCommand(service->get(), metrics, tracer_ptr, line, &quit)) {
      ++failed;
    }
    if (interactive && !quit) std::printf("> ");
  }

  if (!options.metrics_output.empty()) {
    std::ofstream out(options.metrics_output);
    out << obs::JsonReport(metrics, tracer_ptr);
    std::printf("metrics written to %s\n", options.metrics_output.c_str());
  }
  if (!options.trace_output.empty()) {
    std::ofstream out(options.trace_output);
    out << obs::ChromeTraceJson(tracer);
    std::printf("trace written to %s\n", options.trace_output.c_str());
  }
  if (!options.event_log_output.empty()) {
    if (!event_log.WriteFile(options.event_log_output)) {
      std::fprintf(stderr, "cannot write --event-log %s\n",
                   options.event_log_output.c_str());
      return 1;
    }
    std::printf("event log written to %s\n",
                options.event_log_output.c_str());
  }
  if (!options.metrics_text_output.empty()) {
    std::ofstream out(options.metrics_text_output);
    out << obs::PrometheusText(metrics);
    std::printf("metrics text written to %s\n",
                options.metrics_text_output.c_str());
  }
  if (failed > 0) {
    std::fprintf(stderr, "%d command(s) failed\n", failed);
    return 1;
  }
  return 0;
}
