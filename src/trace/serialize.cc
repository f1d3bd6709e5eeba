#include "trace/serialize.h"

#include "util/serde.h"

namespace ldv::trace {

namespace {
constexpr uint32_t kTraceMagic = 0x4C445654;  // "LDVT"
}  // namespace

std::string SerializeTrace(const TraceGraph& graph) {
  BufferWriter w;
  w.PutU32(kTraceMagic);
  w.PutVarint(graph.num_nodes());
  for (const TraceNode& node : graph.nodes()) {
    w.PutU8(static_cast<uint8_t>(node.type));
    w.PutString(node.label);
  }
  w.PutVarint(graph.num_edges());
  for (const TraceEdge& edge : graph.edges()) {
    w.PutVarint(edge.from);
    w.PutVarint(edge.to);
    w.PutU8(static_cast<uint8_t>(edge.type));
    w.PutVarint(edge.t.begin);
    w.PutVarint(edge.t.end);
  }
  // Tuple dependency pairs.
  int64_t num_pairs = 0;
  for (NodeId id = 0; id < graph.num_nodes(); ++id) {
    num_pairs += static_cast<int64_t>(graph.TupleDependenciesOf(id).size());
  }
  w.PutVarint(num_pairs);
  for (NodeId id = 0; id < graph.num_nodes(); ++id) {
    for (NodeId dep : graph.TupleDependenciesOf(id)) {
      w.PutVarint(id);
      w.PutVarint(dep);
    }
  }
  return w.TakeData();
}

Result<TraceGraph> DeserializeTrace(std::string_view bytes) {
  BufferReader r(bytes);
  LDV_ASSIGN_OR_RETURN(uint32_t magic, r.GetU32());
  if (magic != kTraceMagic) {
    return Status::IOError("not an LDV trace file");
  }
  TraceGraph graph;
  LDV_ASSIGN_OR_RETURN(int64_t num_nodes, r.GetVarint());
  for (int64_t i = 0; i < num_nodes; ++i) {
    LDV_ASSIGN_OR_RETURN(uint8_t type, r.GetU8());
    LDV_ASSIGN_OR_RETURN(std::string label, r.GetString());
    if (type >= kNumNodeTypes) {
      return Status::IOError("unknown node type in serialized trace");
    }
    NodeId id = graph.GetOrAddNode(static_cast<NodeType>(type), label);
    if (id != static_cast<NodeId>(i)) {
      return Status::IOError("duplicate node in serialized trace");
    }
  }
  LDV_ASSIGN_OR_RETURN(int64_t num_edges, r.GetVarint());
  for (int64_t i = 0; i < num_edges; ++i) {
    LDV_ASSIGN_OR_RETURN(int64_t from, r.GetVarint());
    LDV_ASSIGN_OR_RETURN(int64_t to, r.GetVarint());
    LDV_ASSIGN_OR_RETURN(uint8_t type, r.GetU8());
    os::Interval t;
    LDV_ASSIGN_OR_RETURN(t.begin, r.GetVarint());
    LDV_ASSIGN_OR_RETURN(t.end, r.GetVarint());
    LDV_RETURN_IF_ERROR(graph.AddEdge(static_cast<NodeId>(from),
                                      static_cast<NodeId>(to),
                                      static_cast<EdgeType>(type), t));
  }
  LDV_ASSIGN_OR_RETURN(int64_t num_pairs, r.GetVarint());
  for (int64_t i = 0; i < num_pairs; ++i) {
    LDV_ASSIGN_OR_RETURN(int64_t out_tuple, r.GetVarint());
    LDV_ASSIGN_OR_RETURN(int64_t in_tuple, r.GetVarint());
    if (out_tuple < 0 || in_tuple < 0 || out_tuple >= num_nodes ||
        in_tuple >= num_nodes) {
      return Status::IOError("tuple dependency names an unknown node");
    }
    graph.AddTupleDependency(static_cast<NodeId>(out_tuple),
                             static_cast<NodeId>(in_tuple));
  }
  return graph;
}

}  // namespace ldv::trace
