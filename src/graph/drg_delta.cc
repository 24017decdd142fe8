#include "graph/drg_delta.h"

#include <algorithm>
#include <tuple>
#include <unordered_map>
#include <utility>

namespace autofeat {

void DrgMatchStore::SetMatches(const std::string& left,
                               const std::string& right,
                               std::vector<PairMatch> matches) {
  std::pair<std::string, std::string> key = std::minmax(left, right);
  if (matches.empty()) {
    pairs_.erase(key);
  } else {
    pairs_[std::move(key)] = StoredPair{left, std::move(matches)};
  }
}

void DrgMatchStore::PurgeTable(const std::string& table) {
  std::erase_if(pairs_, [&](const auto& pair) {
    return pair.first.first == table || pair.first.second == table;
  });
}

Result<DatasetRelationGraph> DrgMatchStore::BuildGraph(
    const std::vector<std::string>& lake_order) const {
  DatasetRelationGraph drg;
  std::unordered_map<std::string, size_t> position;
  for (size_t i = 0; i < lake_order.size(); ++i) {
    drg.AddNode(lake_order[i]);
    position.emplace(lake_order[i], i);
  }
  // (i, j, pair) for every stored pair whose tables are both present.
  std::vector<std::tuple<size_t, size_t, const StoredPair*>> ordered;
  for (const auto& [names, stored] : pairs_) {
    auto a = position.find(names.first);
    auto b = position.find(names.second);
    if (a == position.end() || b == position.end()) continue;
    ordered.emplace_back(std::min(a->second, b->second),
                         std::max(a->second, b->second), &stored);
  }
  std::sort(ordered.begin(), ordered.end());
  for (const auto& [i, j, stored] : ordered) {
    // Matches are stored oriented left -> right; emit them i -> j.
    const bool flip = stored->left != lake_order[i];
    for (const PairMatch& m : stored->matches) {
      AF_RETURN_NOT_OK(drg.AddEdge(
          lake_order[i], flip ? m.right_column : m.left_column, lake_order[j],
          flip ? m.left_column : m.right_column, m.score));
    }
  }
  return drg;
}

}  // namespace autofeat
