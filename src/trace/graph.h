#ifndef LDV_TRACE_GRAPH_H_
#define LDV_TRACE_GRAPH_H_

#include <array>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "os/sim_process.h"
#include "trace/model.h"

namespace ldv::trace {

using NodeId = int32_t;
inline constexpr NodeId kInvalidNode = -1;

struct TraceNode {
  NodeType type = NodeType::kProcess;
  /// Human-readable identity: file path, "pid:<n>", "q:<id> <sql>",
  /// "<table>:<rowid>.v<version>".
  std::string label;
};

struct TraceEdge {
  NodeId from = kInvalidNode;
  NodeId to = kInvalidNode;
  EdgeType type = EdgeType::kReadFrom;
  os::Interval t;
};

/// A combined execution trace (paper Definition 6): a typed, temporally
/// annotated provenance graph plus the explicit P_Lin data-dependency pairs
/// D(G) (Definition 7). P_BB dependencies (Definition 8) are derivable from
/// the graph structure and are not stored.
class TraceGraph {
 public:
  TraceGraph() = default;

  /// Adds a node; (type, label) pairs are unique — adding an existing pair
  /// returns the existing id.
  NodeId GetOrAddNode(NodeType type, const std::string& label);

  /// Finds a node by (type, label); kInvalidNode when absent.
  NodeId FindNode(NodeType type, const std::string& label) const;

  /// Adds a typed edge; fails when the combined model's type rules
  /// (Definition 5) forbid it.
  Status AddEdge(NodeId from, NodeId to, EdgeType type, os::Interval t);

  /// Like AddEdge but merges with an existing (from, to, type) edge by
  /// extending its interval — the PTU convention of annotating a
  /// process-file edge with [first open, last close] (§VII-A). Of several
  /// identical edges the most recently added one is extended. Costs
  /// O(min(out-degree(from), in-degree(to))).
  Status MergeEdge(NodeId from, NodeId to, EdgeType type, os::Interval t);

  /// Records a direct P_Lin data dependency: `out_tuple` depends on
  /// `in_tuple` (Definition 7). Ignored when `out_tuple` is not a node.
  void AddTupleDependency(NodeId out_tuple, NodeId in_tuple);
  bool HasTupleDependency(NodeId out_tuple, NodeId in_tuple) const;
  const std::vector<NodeId>& TupleDependenciesOf(NodeId out_tuple) const;

  int64_t num_nodes() const { return static_cast<int64_t>(nodes_.size()); }
  int64_t num_edges() const { return static_cast<int64_t>(edges_.size()); }
  const TraceNode& node(NodeId id) const {
    return nodes_[static_cast<size_t>(id)];
  }
  const std::vector<TraceNode>& nodes() const { return nodes_; }
  const std::vector<TraceEdge>& edges() const { return edges_; }

  /// Indexes into edges() of edges entering / leaving `id`.
  const std::vector<int32_t>& InEdges(NodeId id) const {
    return in_edges_[static_cast<size_t>(id)];
  }
  const std::vector<int32_t>& OutEdges(NodeId id) const {
    return out_edges_[static_cast<size_t>(id)];
  }

  /// All node ids of a given type.
  std::vector<NodeId> NodesOfType(NodeType type) const;

  /// Graphviz rendering (used by examples and docs).
  std::string ToDot() const;

 private:
  std::vector<TraceNode> nodes_;
  std::vector<TraceEdge> edges_;
  std::vector<std::vector<int32_t>> in_edges_;
  std::vector<std::vector<int32_t>> out_edges_;
  // label -> id, one map per NodeType.
  std::array<std::unordered_map<std::string, NodeId>, kNumNodeTypes>
      node_index_;
  // Indexed by the dependent node; grown on demand.
  std::vector<std::vector<NodeId>> tuple_deps_;
};

}  // namespace ldv::trace

#endif  // LDV_TRACE_GRAPH_H_
