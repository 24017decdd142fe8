// DRG match store: the per-table-pair match results every discovered DRG
// is built from, keyed by *table-name pair* so lake positions may shift
// (drop + re-add) between writes and builds. A cold build writes every
// pair into an empty store; a mutation re-writes only pairs touching the
// mutated table.
//
// Why a store + rebuild rather than editing the graph? Edge *insertion
// order* is observable (Neighbors(), BFS path enumeration and ranking ties
// follow it), so the graph is always folded canonically — nodes in lake
// order, then each pair's matches in ascending (i, j) lake-position order.
// Any write sequence thus builds the graph a from-scratch store would.

#ifndef AUTOFEAT_GRAPH_DRG_DELTA_H_
#define AUTOFEAT_GRAPH_DRG_DELTA_H_

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "graph/drg.h"
#include "util/status.h"

namespace autofeat {

/// \brief One scored column pair between two tables (graph-layer mirror of
/// the discovery layer's ColumnMatch, kept here so graph does not depend on
/// discovery).
struct PairMatch {
  std::string left_column;
  std::string right_column;
  double score = 0.0;

  bool operator==(const PairMatch& other) const {
    return left_column == other.left_column &&
           right_column == other.right_column && score == other.score;
  }
};

/// \brief Canonical store of per-pair schema matches, the source of truth
/// discovered DRGs are built from (cold builds and every serving epoch).
class DrgMatchStore {
 public:
  /// Replaces the matches for the unordered pair {left, right}. `matches`
  /// must be oriented left -> right where `left` precedes `right` in lake
  /// order *at call time*; the store keys pairs order-insensitively and
  /// re-orients at build time, so later mutations shifting relative order
  /// (drop + re-add) stay correct. An empty vector erases the pair.
  void SetMatches(const std::string& left, const std::string& right,
                  std::vector<PairMatch> matches);

  /// Drops every pair involving `table` (table dropped or about to be
  /// re-matched from scratch).
  void PurgeTable(const std::string& table);

  /// Builds the graph canonically: one node per lake table in
  /// `lake_order`, then for ascending (i, j) the stored matches of pair
  /// (table i, table j) as edges, in stored (match-score) order. Walks only
  /// the stored pairs. Stored pairs whose tables are absent from
  /// `lake_order` are ignored (they belong to dropped tables awaiting
  /// purge).
  Result<DatasetRelationGraph> BuildGraph(
      const std::vector<std::string>& lake_order) const;

  size_t num_pairs() const { return pairs_.size(); }

 private:
  struct StoredPair {
    std::string left;  // the table the matches are oriented from
    std::vector<PairMatch> matches;
  };

  // Keyed by the (smaller, larger) table-name pair.
  std::map<std::pair<std::string, std::string>, StoredPair> pairs_;
};

}  // namespace autofeat

#endif  // AUTOFEAT_GRAPH_DRG_DELTA_H_
