#include "lakes.h"

#include <algorithm>
#include <filesystem>

#include "datagen/registry.h"
#include "datagen/scale_lake.h"
#include "table/columnar.h"
#include "util/rng.h"

namespace e2ebench {
namespace {

namespace fs = std::filesystem;
using autofeat::DataLake;

// Lake structure (tables, key names, id offsets, hence the discovered DRG
// and the join paths) comes from a fixed seed: drawn per run it swings the
// work of one Augment call by a third. The run seed shuffles the rows of
// every table instead, which changes samples, splits and accuracies but not
// the amount of work.
constexpr uint64_t kStructureSeed = 42;

DataLake ShuffleRows(const DataLake& lake, uint64_t seed) {
  DataLake out;
  size_t t = 0;
  for (const autofeat::Table& table : lake.tables()) {
    autofeat::Rng rng(autofeat::DeriveSeed(seed, t++));
    autofeat::Table shuffled =
        table.TakeRows(rng.Permutation(table.num_rows()));
    shuffled.set_name(table.name());
    out.AddTable(std::move(shuffled)).Abort("shuffle rows");
  }
  for (const autofeat::KfkConstraint& c : lake.kfk_constraints()) {
    out.AddKfk(c);
  }
  return out;
}

LakeOnDisk WriteLake(const DataLake& lake, const std::string& name,
                     const std::string& dir) {
  fs::create_directories(dir);
  LakeOnDisk disk;
  disk.name = name;
  disk.dir = dir;
  disk.kfk = lake.kfk_constraints();
  for (const autofeat::Table& table : lake.tables()) {
    const std::string path = dir + "/" + table.name() + ".afc";
    autofeat::WriteColumnarFile(table, path).Abort(path.c_str());
    disk.bytes += fs::file_size(path);
  }
  return disk;
}

autofeat::datagen::DatasetSpec Capped(autofeat::datagen::DatasetSpec spec,
                                      bool quick_caps) {
  if (quick_caps) {
    spec.rows = std::min<size_t>(spec.rows, 2000);
    spec.total_features = std::min<size_t>(spec.total_features, 120);
  }
  return spec;
}

}  // namespace

std::vector<LakeOnDisk> WritePaperLakes(bool quick_caps, uint64_t seed,
                                        const std::string& work_dir) {
  std::vector<LakeOnDisk> out;
  const auto specs = autofeat::datagen::PaperDatasets();
  for (size_t i = 0; i < specs.size(); ++i) {
    auto spec = Capped(specs[i], quick_caps);
    auto built = autofeat::datagen::BuildPaperLake(
        spec, autofeat::DeriveSeed(kStructureSeed, i));
    LakeOnDisk disk =
        WriteLake(ShuffleRows(built.lake, autofeat::DeriveSeed(seed, i)),
                  spec.name, work_dir + "/" + spec.name);
    disk.base_table = built.base_table;
    disk.label_column = built.label_column;
    out.push_back(std::move(disk));
  }
  return out;
}

LakeOnDisk WriteServingLake(uint64_t seed, const std::string& work_dir) {
  auto spec = Capped(autofeat::datagen::FindDataset("steel").ValueOrDie(),
                     /*quick_caps=*/true);
  auto built = autofeat::datagen::BuildPaperLake(
      spec, autofeat::DeriveSeed(kStructureSeed, 100));
  autofeat::datagen::ScaleLakeSpec pods;
  pods.num_tables = 200;
  pods.rows = 80;  // above the LSH small-column rescue
  pods.seed = autofeat::DeriveSeed(seed, 101);
  DataLake pod_lake = autofeat::datagen::BuildScaleLake(pods);
  for (const autofeat::Table& table : pod_lake.tables()) {
    built.lake.AddTable(table).Abort("pad serving lake");
  }
  LakeOnDisk disk =
      WriteLake(ShuffleRows(built.lake, autofeat::DeriveSeed(seed, 100)),
                "serving", work_dir + "/serving");
  disk.base_table = built.base_table;
  disk.label_column = built.label_column;
  return disk;
}

autofeat::Result<DataLake> LoadLake(const LakeOnDisk& disk) {
  AF_ASSIGN_OR_RETURN(DataLake lake, DataLake::FromColumnarDirectory(disk.dir));
  for (const autofeat::KfkConstraint& c : disk.kfk) lake.AddKfk(c);
  return lake;
}

}  // namespace e2ebench
