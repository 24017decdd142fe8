// Dataset Relation Graph (paper §IV, Def. IV.3).
//
// A weighted undirected *multigraph*: nodes are datasets, edges are join
// opportunities (one edge per join-column pair). KFK constraints enter with
// weight 1; dataset-discovery matches enter with weight = similarity score.

#ifndef AUTOFEAT_GRAPH_DRG_H_
#define AUTOFEAT_GRAPH_DRG_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "graph/join_path.h"
#include "util/status.h"

namespace autofeat {

/// \brief One edge instance as stored: node ids plus the join columns.
///
/// Exposed (in insertion order) so that callers can compare two graphs
/// *exactly* — including edge order, which is observable through
/// Neighbors/EnumeratePaths BFS ordering and hence through discovery
/// tie-breaks. The serving layer's incremental-vs-cold equivalence gates
/// are built on this.
struct DrgEdge {
  size_t a = 0;
  size_t b = 0;
  std::string a_column;
  std::string b_column;
  double weight = 0.0;

  bool operator==(const DrgEdge& other) const {
    return a == other.a && b == other.b && a_column == other.a_column &&
           b_column == other.b_column && weight == other.weight;
  }
};

/// \brief The joinability multigraph over a dataset collection.
class DatasetRelationGraph {
 public:
  /// Adds (or finds) a node for `dataset_name`; returns its id.
  size_t AddNode(const std::string& dataset_name);

  Result<size_t> NodeId(const std::string& dataset_name) const;
  const std::string& NodeName(size_t id) const { return node_names_[id]; }
  size_t num_nodes() const { return node_names_.size(); }
  size_t num_edges() const { return edges_.size(); }

  /// Adds an undirected edge between two datasets' join columns. Duplicate
  /// (same endpoints and columns) edges are ignored; the max weight is kept.
  Status AddEdge(const std::string& from_dataset,
                 const std::string& from_column,
                 const std::string& to_dataset, const std::string& to_column,
                 double weight);

  /// Distinct neighbour nodes of `node` (each listed once even if connected
  /// by several multi-edges), in insertion order.
  std::vector<size_t> Neighbors(size_t node) const;

  /// All edge instances between `a` and `b`, oriented a -> b.
  std::vector<JoinStep> EdgesBetween(size_t a, size_t b) const;

  /// Similarity-score pruning (§IV-C): only the edges between `a` and `b`
  /// with the maximum weight. Ties all survive (each becomes its own path).
  std::vector<JoinStep> BestEdgesBetween(size_t a, size_t b) const;

  /// All acyclic join paths starting at `start` with 1 <= length <=
  /// max_hops, in BFS (level) order; each multigraph edge choice is a
  /// distinct path (Def. IV.4). When `prune_to_best_edges` is set the
  /// similarity-score pruning is applied at every hop.
  std::vector<JoinPath> EnumeratePaths(size_t start, size_t max_hops,
                                       bool prune_to_best_edges = false) const;

  /// log10 of the JoinAll path count (Eq. 3): the product over BFS levels d
  /// and nodes v in level d of k(v)! where k(v) = #unvisited neighbours.
  double JoinAllPathCountLog10(size_t start) const;

  /// Node ids reachable from `start` (including `start`). Tables outside
  /// this set can never contribute features to the base table.
  std::vector<size_t> ReachableFrom(size_t start) const;

  /// Nodes NOT reachable from `start` — diagnosed by the CLI as isolated
  /// datasets the discovery step found no join for.
  std::vector<size_t> UnreachableFrom(size_t start) const;

  /// Every edge instance, in insertion order.
  std::vector<DrgEdge> AllEdges() const;

  /// An order-sensitive text fingerprint of the node list and edge list
  /// (names, columns, weights, insertion order). Two graphs with equal
  /// fingerprints behave identically in every traversal above.
  std::string OrderedFingerprint() const;

 private:
  struct EdgeRecord {
    size_t a;
    size_t b;
    std::string a_column;
    std::string b_column;
    double weight;
  };

  std::vector<std::string> node_names_;
  std::unordered_map<std::string, size_t> node_index_;
  std::vector<EdgeRecord> edges_;
  // Per node: edge indices incident to it.
  std::vector<std::vector<size_t>> incidence_;
};

}  // namespace autofeat

#endif  // AUTOFEAT_GRAPH_DRG_H_
