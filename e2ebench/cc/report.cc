#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

namespace e2ebench {

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

Tail TailOf(std::vector<double> values) {
  Tail tail;
  tail.samples = values.size();
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  for (int p = 99; p >= 50; --p) {
    const size_t rank = static_cast<size_t>(
        std::ceil(static_cast<double>(p) * static_cast<double>(n) / 100.0));
    const size_t index = rank == 0 ? 0 : rank - 1;
    if (n - index - 1 >= 10 || p == 50) {
      tail.percentile = p;
      tail.value = values[index];
      return tail;
    }
  }
  return tail;
}

void Report::Fail(const std::string& what) {
  ++failed_;
  std::fprintf(stderr, "FAIL: %s\n", what.c_str());
}

void Report::CheckFailed(const std::string& what) {
  ++checks_failed_;
  std::fprintf(stderr, "FAIL: %s\n", what.c_str());
}

void Report::SetTail(const std::string& name,
                     const std::vector<double>& values) {
  const Tail tail = TailOf(values);
  std::printf("%s = %.3f ms (p%d of %zu samples)\n", name.c_str(), tail.value,
              tail.percentile, tail.samples);
  Set(name, tail.value);
}

void Report::Print(const std::vector<MetricSpec>& schema) {
  for (const auto& [name, value] : values_) {
    bool known = false;
    for (const MetricSpec& m : schema) known = known || name == m.name;
    if (!known) CheckFailed("metric " + name + " is not in the schema");
  }
  std::string json;
  for (const MetricSpec& m : schema) {
    auto it = values_.find(m.name);
    double v = it != values_.end() ? it->second : 0.0;
    if (!std::isfinite(v)) v = 0.0;
    std::printf("  %-34s %16.6f %s\n", m.name, v, m.unit);
    char buf[96];
    std::snprintf(buf, sizeof(buf), "{\"value\": %.17g, \"unit\": \"", v);
    json += std::string(json.empty() ? "" : ", ") + "\"" + m.name + "\": " +
            buf + m.unit + "\"}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {%s}}\n",
              correct() ? "true" : "false", std::max<size_t>(attempted_, 1),
              failed_, json.c_str());
  std::fflush(stdout);
}

}  // namespace e2ebench
