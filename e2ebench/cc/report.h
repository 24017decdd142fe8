// Run options, sample statistics and the result line of one benchmark run.

#ifndef E2EBENCH_REPORT_H_
#define E2EBENCH_REPORT_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2ebench {

/// Command-line options of one run.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Planted-slowdown self-check: "" (off), "core" or "ml".
  std::string plant;
  /// Directory for the generated lakes (removed at exit).
  std::string work_dir = ".bench_work";
  /// Where the traced run writes its Chrome trace and layer table.
  std::string out_dir = ".bench_out";
};

/// Worker threads of the batch engines; the serving workload runs
/// kThreads - 1 readers beside one writer.
inline constexpr size_t kThreads = 4;

double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

/// The highest whole percentile with at least ten samples beyond it
/// (nearest rank), so a tail figure always rests on ten or more samples.
struct Tail {
  double value = 0.0;
  int percentile = 50;
  size_t samples = 0;
};
Tail TailOf(std::vector<double> values);

/// num / den, or 0 when den is not positive (a layer that did no work).
inline double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// A reported metric: name and unit, as listed in BENCHMARK.json.
struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Metrics, operation counts and oracle verdicts of one run. Prints the
/// one-line JSON result that ends every run.
class Report {
 public:
  void Set(const std::string& name, double value) { values_[name] = value; }
  /// Records one failed oracle check or operation (also counted as
  /// attempted by the caller) and explains it on stderr.
  void Fail(const std::string& what);
  void Attempted(size_t n = 1) { attempted_ += n; }
  size_t failed() const { return failed_; }
  bool correct() const { return failed_ == 0 && checks_failed_ == 0; }
  /// An oracle mismatch that is not tied to one counted operation.
  void CheckFailed(const std::string& what);
  /// Sets `name` to the tail of `values` (TailOf) and prints the
  /// percentile and sample count behind it.
  void SetTail(const std::string& name, const std::vector<double>& values);
  /// Prints every metric of `schema` (0 where the workload set none) as a
  /// readable line, then the JSON result line. A metric set but missing
  /// from the schema fails the run.
  void Print(const std::vector<MetricSpec>& schema);

 private:
  std::map<std::string, double> values_;
  size_t attempted_ = 0;
  size_t failed_ = 0;
  size_t checks_failed_ = 0;
};

}  // namespace e2ebench

#endif  // E2EBENCH_REPORT_H_
