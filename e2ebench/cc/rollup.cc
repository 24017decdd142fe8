#include "rollup.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <unordered_map>

#include "obs/chrome_trace.h"

namespace e2ebench {

using autofeat::obs::SpanRecord;

double Rollup::ModuleShare(const std::string& module) const {
  double share = 0.0;
  for (const LayerRow& row : rows) {
    if (row.layer.compare(0, module.size() + 1, module + ".") == 0) {
      share += row.share;
    }
  }
  return share;
}

Rollup RollUp(const std::vector<SpanRecord>& spans,
              const std::vector<std::string>& roots,
              const std::map<std::string, Work>& work) {
  Rollup out;
  out.roots = roots;
  std::unordered_map<size_t, const SpanRecord*> by_id;
  for (const SpanRecord& s : spans) by_id[s.id] = &s;
  auto duration = [](const SpanRecord& s) {
    return s.end_seconds >= s.start_seconds ? s.end_seconds - s.start_seconds
                                            : 0.0;
  };
  auto in_rollup = [&](const SpanRecord& s) {
    const SpanRecord* top = &s;
    while (top->parent != 0 && by_id.count(top->parent) > 0) {
      top = by_id[top->parent];
    }
    return std::find(roots.begin(), roots.end(), top->name) != roots.end();
  };

  std::unordered_map<size_t, double> self;
  for (const SpanRecord& s : spans) {
    if (!in_rollup(s)) continue;
    self[s.id] += duration(s);
    if (s.parent != 0) self[s.parent] -= duration(s);
    if (s.parent == 0) out.total_seconds += duration(s);
  }
  std::map<std::string, double> layer_seconds;
  for (const auto& [id, seconds] : self) {
    const SpanRecord& s = *by_id[id];
    if (s.parent == 0) {
      out.unattributed_seconds += seconds;
    } else {
      layer_seconds[s.name] += seconds;
    }
  }
  for (const auto& [layer, seconds] : layer_seconds) {
    LayerRow row;
    row.layer = layer;
    row.self_seconds = seconds;
    row.share = out.total_seconds > 0 ? seconds / out.total_seconds : 0.0;
    auto it = work.find(layer);
    if (it != work.end()) row.work = it->second;
    out.rows.push_back(row);
  }
  std::sort(out.rows.begin(), out.rows.end(),
            [](const LayerRow& a, const LayerRow& b) {
              return a.self_seconds > b.self_seconds;
            });
  return out;
}

namespace {

double NsPerUnit(const LayerRow& row) {
  return row.work.count > 0 ? row.self_seconds * 1e9 / row.work.count : 0.0;
}

}  // namespace

void PrintRollup(const Rollup& rollup, const std::string& title) {
  std::printf("layer rollup: %s (%.3f s under roots", title.c_str(),
              rollup.total_seconds);
  for (const std::string& r : rollup.roots) std::printf(" %s", r.c_str());
  std::printf(")\n  %-24s %12s %8s %14s %-10s %14s\n", "layer", "self_ms",
              "share", "work", "unit", "ns_per_unit");
  for (const LayerRow& row : rollup.rows) {
    std::printf("  %-24s %12.2f %7.1f%% %14.0f %-10s %14.1f\n",
                row.layer.c_str(), row.self_seconds * 1e3, row.share * 100,
                row.work.count, row.work.unit.c_str(), NsPerUnit(row));
  }
  std::printf("  %-24s %12.2f %7.1f%%\n", "(unattributed)",
              rollup.unattributed_seconds * 1e3,
              rollup.UnattributedShare() * 100);
}

bool WriteRollupArtifacts(const autofeat::obs::Tracer& tracer,
                          const std::vector<Rollup>& rollups,
                          const std::vector<std::string>& titles,
                          const std::string& out_dir,
                          const std::string& workload) {
  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  std::ofstream trace(out_dir + "/TRACE_" + workload + ".json");
  trace << autofeat::obs::ChromeTraceJson(tracer);
  std::ofstream table(out_dir + "/LAYERS_" + workload + ".tsv");
  table << "rollup\tlayer\tself_ms\tshare\twork\tunit\tns_per_unit\n";
  for (size_t i = 0; i < rollups.size(); ++i) {
    for (const LayerRow& row : rollups[i].rows) {
      table << titles[i] << '\t' << row.layer << '\t'
            << row.self_seconds * 1e3 << '\t' << row.share << '\t'
            << row.work.count << '\t' << row.work.unit << '\t'
            << NsPerUnit(row) << '\n';
    }
    table << titles[i] << "\t(unattributed)\t"
          << rollups[i].unattributed_seconds * 1e3 << '\t'
          << rollups[i].UnattributedShare() << "\t0\t\t0\n";
  }
  return static_cast<bool>(trace) && static_cast<bool>(table);
}

}  // namespace e2ebench
