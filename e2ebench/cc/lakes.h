// Workload inputs: generated lakes written as binary columnar directories.
//
// The benchmark generates every lake from the workload seed, writes it as
// one *.afc file per table and hands the library only those files: set-up
// loads them back through DataLake::FromColumnarDirectory.

#ifndef E2EBENCH_LAKES_H_
#define E2EBENCH_LAKES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "discovery/data_lake.h"
#include "util/status.h"

namespace e2ebench {

/// A lake on disk plus what the generator knows about it.
struct LakeOnDisk {
  std::string name;
  std::string dir;
  std::string base_table;
  std::string label_column = "label";
  /// Key/foreign-key constraints of the generated lake. Files do not carry
  /// them, so loading re-registers them (only BuildDrgFromKfk reads them).
  std::vector<autofeat::KfkConstraint> kfk;
  uint64_t bytes = 0;
};

/// The eight Table II datasets, one lake each, in the paper's order. With
/// `quick_caps` rows are capped at 2,000 and features at 120 (the bench
/// harness quick mode); otherwise the registry sizes are used.
std::vector<LakeOnDisk> WritePaperLakes(bool quick_caps, uint64_t seed,
                                        const std::string& work_dir);

/// Serving lake: steel at the quick caps plus 200 pod tables
/// (datagen::BuildScaleLake) in one directory.
LakeOnDisk WriteServingLake(uint64_t seed, const std::string& work_dir);

autofeat::Result<autofeat::DataLake> LoadLake(const LakeOnDisk& disk);

}  // namespace e2ebench

#endif  // E2EBENCH_LAKES_H_
