#include "trace/graph.h"

#include <algorithm>

#include "util/strings.h"

namespace ldv::trace {

NodeId TraceGraph::GetOrAddNode(NodeType type, const std::string& label) {
  auto [it, inserted] = node_index_[static_cast<size_t>(type)].try_emplace(
      label, static_cast<NodeId>(nodes_.size()));
  if (inserted) {
    nodes_.push_back({type, label});
    in_edges_.emplace_back();
    out_edges_.emplace_back();
  }
  return it->second;
}

NodeId TraceGraph::FindNode(NodeType type, const std::string& label) const {
  const auto& index = node_index_[static_cast<size_t>(type)];
  auto it = index.find(label);
  return it == index.end() ? kInvalidNode : it->second;
}

Status TraceGraph::AddEdge(NodeId from, NodeId to, EdgeType type,
                           os::Interval t) {
  if (from < 0 || to < 0 || from >= num_nodes() || to >= num_nodes()) {
    return Status::InvalidArgument("edge endpoint out of range");
  }
  NodeType from_type = node(from).type;
  NodeType to_type = node(to).type;
  if (!EdgeAllowed(type, from_type, to_type)) {
    return Status::InvalidArgument(StrFormat(
        "edge type %s cannot connect %s -> %s",
        std::string(EdgeTypeName(type)).c_str(),
        std::string(NodeTypeName(from_type)).c_str(),
        std::string(NodeTypeName(to_type)).c_str()));
  }
  if (t.end < t.begin) {
    return Status::InvalidArgument("edge interval end < begin");
  }
  int32_t index = static_cast<int32_t>(edges_.size());
  edges_.push_back({from, to, type, t});
  out_edges_[static_cast<size_t>(from)].push_back(index);
  in_edges_[static_cast<size_t>(to)].push_back(index);
  return Status::Ok();
}

Status TraceGraph::MergeEdge(NodeId from, NodeId to, EdgeType type,
                             os::Interval t) {
  if (from >= 0 && to >= 0 && from < num_nodes() && to < num_nodes()) {
    const std::vector<int32_t>& outs = OutEdges(from);
    const std::vector<int32_t>& ins = InEdges(to);
    const std::vector<int32_t>& scan = outs.size() <= ins.size() ? outs : ins;
    for (auto it = scan.rbegin(); it != scan.rend(); ++it) {  // newest first
      TraceEdge& edge = edges_[static_cast<size_t>(*it)];
      if (edge.from == from && edge.to == to && edge.type == type) {
        edge.t.begin = std::min(edge.t.begin, t.begin);
        edge.t.end = std::max(edge.t.end, t.end);
        return Status::Ok();
      }
    }
  }
  return AddEdge(from, to, type, t);
}

void TraceGraph::AddTupleDependency(NodeId out_tuple, NodeId in_tuple) {
  if (out_tuple < 0 || out_tuple >= num_nodes()) return;  // not a node
  size_t slot = static_cast<size_t>(out_tuple);
  if (slot >= tuple_deps_.size()) tuple_deps_.resize(slot + 1);
  std::vector<NodeId>& deps = tuple_deps_[slot];
  if (std::find(deps.begin(), deps.end(), in_tuple) == deps.end()) {
    deps.push_back(in_tuple);
  }
}

bool TraceGraph::HasTupleDependency(NodeId out_tuple, NodeId in_tuple) const {
  const std::vector<NodeId>& deps = TupleDependenciesOf(out_tuple);
  return std::find(deps.begin(), deps.end(), in_tuple) != deps.end();
}

const std::vector<NodeId>& TraceGraph::TupleDependenciesOf(
    NodeId out_tuple) const {
  static const std::vector<NodeId> kEmpty;
  size_t slot = static_cast<size_t>(out_tuple);
  return slot < tuple_deps_.size() ? tuple_deps_[slot] : kEmpty;
}

std::vector<NodeId> TraceGraph::NodesOfType(NodeType type) const {
  std::vector<NodeId> out;
  for (NodeId id = 0; id < num_nodes(); ++id) {
    if (node(id).type == type) out.push_back(id);
  }
  return out;
}

std::string TraceGraph::ToDot() const {
  std::string out = "digraph trace {\n  rankdir=LR;\n";
  for (NodeId id = 0; id < num_nodes(); ++id) {
    const TraceNode& n = node(id);
    const char* shape = IsActivity(n.type) ? "box" : "ellipse";
    const char* color = SideOf(n.type) == ModelSide::kOs ? "lightblue"
                                                         : "lightyellow";
    out += StrFormat(
        "  n%d [label=\"%s\\n%s\", shape=%s, style=filled, fillcolor=%s];\n",
        id, std::string(NodeTypeName(n.type)).c_str(), n.label.c_str(), shape,
        color);
  }
  for (const TraceEdge& e : edges_) {
    out += StrFormat("  n%d -> n%d [label=\"%s [%lld,%lld]\"];\n", e.from,
                     e.to, std::string(EdgeTypeName(e.type)).c_str(),
                     static_cast<long long>(e.t.begin),
                     static_cast<long long>(e.t.end));
  }
  for (NodeId id = 0; id < num_nodes(); ++id) {
    for (NodeId dep : TupleDependenciesOf(id)) {
      out += StrFormat("  n%d -> n%d [style=dashed, label=\"dep\"];\n", id,
                       dep);
    }
  }
  out += "}\n";
  return out;
}

}  // namespace ldv::trace
