#include <gtest/gtest.h>

#include "trace/graph.h"
#include "trace/model.h"
#include "common/json.h"
#include "trace/prov_export.h"
#include "trace/serialize.h"
#include "util/strings.h"

namespace ldv::trace {
namespace {

TEST(ModelTest, ActivityEntityClassification) {
  EXPECT_TRUE(IsActivity(NodeType::kProcess));
  EXPECT_TRUE(IsActivity(NodeType::kQuery));
  EXPECT_TRUE(IsActivity(NodeType::kInsert));
  EXPECT_TRUE(IsActivity(NodeType::kUpdate));
  EXPECT_TRUE(IsActivity(NodeType::kDelete));
  EXPECT_FALSE(IsActivity(NodeType::kFile));
  EXPECT_FALSE(IsActivity(NodeType::kTuple));
  EXPECT_TRUE(IsEntity(NodeType::kFile));
}

TEST(ModelTest, ModelSides) {
  EXPECT_EQ(SideOf(NodeType::kProcess), ModelSide::kOs);
  EXPECT_EQ(SideOf(NodeType::kFile), ModelSide::kOs);
  EXPECT_EQ(SideOf(NodeType::kQuery), ModelSide::kDb);
  EXPECT_EQ(SideOf(NodeType::kTuple), ModelSide::kDb);
}

TEST(ModelTest, EdgeTypeRulesMatchDefinition5) {
  // P_BB edges.
  EXPECT_TRUE(EdgeAllowed(EdgeType::kReadFrom, NodeType::kFile,
                          NodeType::kProcess));
  EXPECT_TRUE(EdgeAllowed(EdgeType::kHasWritten, NodeType::kProcess,
                          NodeType::kFile));
  EXPECT_TRUE(EdgeAllowed(EdgeType::kExecuted, NodeType::kProcess,
                          NodeType::kProcess));
  // P_Lin edges.
  EXPECT_TRUE(
      EdgeAllowed(EdgeType::kHasRead, NodeType::kTuple, NodeType::kQuery));
  EXPECT_TRUE(EdgeAllowed(EdgeType::kHasRead, NodeType::kTuple,
                          NodeType::kUpdate));
  EXPECT_TRUE(EdgeAllowed(EdgeType::kHasReturned, NodeType::kInsert,
                          NodeType::kTuple));
  // Cross-model edges of Definition 5.
  EXPECT_TRUE(
      EdgeAllowed(EdgeType::kRun, NodeType::kProcess, NodeType::kQuery));
  EXPECT_TRUE(EdgeAllowed(EdgeType::kReadFromDb, NodeType::kTuple,
                          NodeType::kProcess));
  // Forbidden combinations.
  EXPECT_FALSE(
      EdgeAllowed(EdgeType::kReadFrom, NodeType::kTuple, NodeType::kProcess));
  EXPECT_FALSE(
      EdgeAllowed(EdgeType::kHasWritten, NodeType::kQuery, NodeType::kFile));
  EXPECT_FALSE(
      EdgeAllowed(EdgeType::kRun, NodeType::kQuery, NodeType::kProcess));
  EXPECT_FALSE(EdgeAllowed(EdgeType::kExecuted, NodeType::kProcess,
                           NodeType::kQuery));
}

TEST(TraceGraphTest, NodeDeduplication) {
  TraceGraph g;
  NodeId a = g.GetOrAddNode(NodeType::kFile, "/data/a");
  NodeId a2 = g.GetOrAddNode(NodeType::kFile, "/data/a");
  NodeId b = g.GetOrAddNode(NodeType::kProcess, "/data/a");  // other type
  EXPECT_EQ(a, a2);
  EXPECT_NE(a, b);
  EXPECT_EQ(g.num_nodes(), 2);
  EXPECT_EQ(g.FindNode(NodeType::kFile, "/data/a"), a);
  EXPECT_EQ(g.FindNode(NodeType::kFile, "/nope"), kInvalidNode);
}

TEST(TraceGraphTest, EdgeValidation) {
  TraceGraph g;
  NodeId file = g.GetOrAddNode(NodeType::kFile, "f");
  NodeId proc = g.GetOrAddNode(NodeType::kProcess, "p");
  EXPECT_TRUE(g.AddEdge(file, proc, EdgeType::kReadFrom, {1, 2}).ok());
  EXPECT_FALSE(g.AddEdge(proc, file, EdgeType::kReadFrom, {1, 2}).ok());
  EXPECT_FALSE(g.AddEdge(file, proc, EdgeType::kReadFrom, {3, 2}).ok());
  EXPECT_FALSE(g.AddEdge(file, 99, EdgeType::kReadFrom, {1, 2}).ok());
  EXPECT_EQ(g.num_edges(), 1);
  EXPECT_EQ(g.OutEdges(file).size(), 1u);
  EXPECT_EQ(g.InEdges(proc).size(), 1u);
}

TEST(TraceGraphTest, MergeEdgeExtendsInterval) {
  // The PTU convention: one readFrom edge per (file, process) annotated
  // with [first open, last close].
  TraceGraph g;
  NodeId file = g.GetOrAddNode(NodeType::kFile, "f");
  NodeId proc = g.GetOrAddNode(NodeType::kProcess, "p");
  ASSERT_TRUE(g.MergeEdge(file, proc, EdgeType::kReadFrom, {5, 6}).ok());
  ASSERT_TRUE(g.MergeEdge(file, proc, EdgeType::kReadFrom, {1, 2}).ok());
  ASSERT_TRUE(g.MergeEdge(file, proc, EdgeType::kReadFrom, {9, 12}).ok());
  ASSERT_EQ(g.num_edges(), 1);
  EXPECT_EQ(g.edges()[0].t.begin, 1);
  EXPECT_EQ(g.edges()[0].t.end, 12);
}

TEST(TraceGraphTest, MergeEdgeExtendsTheLaterOfTwoIdenticalEdges) {
  TraceGraph g;
  NodeId file = g.GetOrAddNode(NodeType::kFile, "f");
  NodeId proc = g.GetOrAddNode(NodeType::kProcess, "p");
  ASSERT_TRUE(g.AddEdge(file, proc, EdgeType::kReadFrom, {1, 2}).ok());
  ASSERT_TRUE(g.AddEdge(file, proc, EdgeType::kReadFrom, {3, 4}).ok());
  ASSERT_TRUE(g.MergeEdge(file, proc, EdgeType::kReadFrom, {10, 12}).ok());
  ASSERT_EQ(g.num_edges(), 2);
  EXPECT_EQ(g.edges()[0].t.begin, 1);
  EXPECT_EQ(g.edges()[0].t.end, 2);
  EXPECT_EQ(g.edges()[1].t.begin, 3);
  EXPECT_EQ(g.edges()[1].t.end, 12);
}

TEST(TraceGraphTest, MergeEdgeBetweenHighDegreeEndpoints) {
  // A statement that read 10k tuples, one of which was also read by nine
  // other statements; and a tuple read by 10k statements, one of which read
  // nine other tuples. Merging must find the one matching edge either way.
  TraceGraph g;
  NodeId big_stmt = g.GetOrAddNode(NodeType::kQuery, "big");
  NodeId hot = g.GetOrAddNode(NodeType::kTuple, "hot");
  std::vector<NodeId> tuples;
  for (int i = 0; i < 10000; ++i) {
    tuples.push_back(g.GetOrAddNode(NodeType::kTuple, StrFormat("t%d", i)));
    ASSERT_TRUE(
        g.AddEdge(tuples.back(), big_stmt, EdgeType::kHasRead, {5, 5}).ok());
  }
  std::vector<NodeId> stmts;
  for (int i = 0; i < 10000; ++i) {
    stmts.push_back(g.GetOrAddNode(NodeType::kQuery, StrFormat("s%d", i)));
    ASSERT_TRUE(g.AddEdge(hot, stmts.back(), EdgeType::kHasRead, {5, 5}).ok());
  }
  for (size_t i = 1; i < 10; ++i) {
    ASSERT_TRUE(
        g.AddEdge(tuples[0], stmts[i], EdgeType::kHasRead, {5, 5}).ok());
    ASSERT_TRUE(
        g.AddEdge(tuples[i], stmts[0], EdgeType::kHasRead, {5, 5}).ok());
  }
  ASSERT_EQ(g.OutEdges(tuples[0]).size(), 10u);
  ASSERT_EQ(g.InEdges(stmts[0]).size(), 10u);
  const int64_t edges_before = g.num_edges();

  auto interval_between = [&](NodeId from, NodeId to) -> os::Interval {
    for (int32_t e : g.OutEdges(from)) {
      const TraceEdge& edge = g.edges()[static_cast<size_t>(e)];
      if (edge.to == to) return edge.t;
    }
    return {-1, -1};
  };
  // Short side is the tuple's out-edges.
  ASSERT_TRUE(
      g.MergeEdge(tuples[0], big_stmt, EdgeType::kHasRead, {2, 9}).ok());
  // Short side is the statement's in-edges.
  ASSERT_TRUE(g.MergeEdge(hot, stmts[0], EdgeType::kHasRead, {1, 7}).ok());
  // A matching edge deep in the long list, reached from the short side.
  ASSERT_TRUE(
      g.MergeEdge(tuples[5000], big_stmt, EdgeType::kHasRead, {5, 6}).ok());
  EXPECT_EQ(g.num_edges(), edges_before);
  EXPECT_EQ(interval_between(tuples[0], big_stmt).begin, 2);
  EXPECT_EQ(interval_between(tuples[0], big_stmt).end, 9);
  EXPECT_EQ(interval_between(hot, stmts[0]).begin, 1);
  EXPECT_EQ(interval_between(hot, stmts[0]).end, 7);
  EXPECT_EQ(interval_between(tuples[5000], big_stmt).end, 6);
  EXPECT_EQ(interval_between(tuples[1], big_stmt).end, 5);

  // No (hot, big_stmt) edge exists yet: merging adds one.
  ASSERT_TRUE(g.MergeEdge(hot, big_stmt, EdgeType::kHasRead, {8, 8}).ok());
  EXPECT_EQ(g.num_edges(), edges_before + 1);
  EXPECT_EQ(g.edges().back().from, hot);
  EXPECT_EQ(g.edges().back().to, big_stmt);
}

TEST(TraceGraphTest, SameLabelUnderEveryNodeTypeGivesDistinctNodes) {
  TraceGraph g;
  std::vector<NodeId> ids;
  for (int type = 0; type < kNumNodeTypes; ++type) {
    ids.push_back(g.GetOrAddNode(static_cast<NodeType>(type), "same"));
  }
  EXPECT_EQ(g.num_nodes(), kNumNodeTypes);
  for (int type = 0; type < kNumNodeTypes; ++type) {
    NodeId id = ids[static_cast<size_t>(type)];
    EXPECT_EQ(g.FindNode(static_cast<NodeType>(type), "same"), id);
    EXPECT_EQ(g.node(id).type, static_cast<NodeType>(type));
    EXPECT_EQ(g.node(id).label, "same");
  }
  EXPECT_EQ(g.FindNode(NodeType::kTuple, "other"), kInvalidNode);
}

TEST(TraceGraphTest, TupleDependencies) {
  TraceGraph g;
  NodeId t1 = g.GetOrAddNode(NodeType::kTuple, "t1");
  NodeId t4 = g.GetOrAddNode(NodeType::kTuple, "t4");
  NodeId t3 = g.GetOrAddNode(NodeType::kTuple, "t3");
  g.AddTupleDependency(t4, t1);
  g.AddTupleDependency(t4, t1);  // dedup
  g.AddTupleDependency(t4, t3);
  EXPECT_TRUE(g.HasTupleDependency(t4, t1));
  EXPECT_FALSE(g.HasTupleDependency(t1, t4));
  EXPECT_EQ(g.TupleDependenciesOf(t4).size(), 2u);
  EXPECT_TRUE(g.TupleDependenciesOf(t1).empty());
}

/// Builds the combined execution trace of paper Figure 2: P1 reads files A
/// and B and runs Insert1/Insert2 creating t1,t2,t3; P2 runs Query reading
/// t1,t3 and returning t4,t5, then writes file C.
TraceGraph BuildFigure2Trace() {
  TraceGraph g;
  NodeId file_a = g.GetOrAddNode(NodeType::kFile, "A");
  NodeId file_b = g.GetOrAddNode(NodeType::kFile, "B");
  NodeId file_c = g.GetOrAddNode(NodeType::kFile, "C");
  NodeId p1 = g.GetOrAddNode(NodeType::kProcess, "P1");
  NodeId p2 = g.GetOrAddNode(NodeType::kProcess, "P2");
  NodeId insert1 = g.GetOrAddNode(NodeType::kInsert, "Insert1");
  NodeId insert2 = g.GetOrAddNode(NodeType::kInsert, "Insert2");
  NodeId query = g.GetOrAddNode(NodeType::kQuery, "Query");
  NodeId t1 = g.GetOrAddNode(NodeType::kTuple, "t1");
  NodeId t2 = g.GetOrAddNode(NodeType::kTuple, "t2");
  NodeId t3 = g.GetOrAddNode(NodeType::kTuple, "t3");
  NodeId t4 = g.GetOrAddNode(NodeType::kTuple, "t4");
  NodeId t5 = g.GetOrAddNode(NodeType::kTuple, "t5");

  EXPECT_TRUE(g.AddEdge(file_a, p1, EdgeType::kReadFrom, {1, 6}).ok());
  EXPECT_TRUE(g.AddEdge(file_b, p1, EdgeType::kReadFrom, {7, 8}).ok());
  EXPECT_TRUE(g.AddEdge(p1, insert1, EdgeType::kRun, {5, 5}).ok());
  EXPECT_TRUE(g.AddEdge(p1, insert2, EdgeType::kRun, {8, 8}).ok());
  EXPECT_TRUE(g.AddEdge(insert1, t1, EdgeType::kHasReturned, {5, 5}).ok());
  EXPECT_TRUE(g.AddEdge(insert1, t2, EdgeType::kHasReturned, {5, 5}).ok());
  EXPECT_TRUE(g.AddEdge(insert2, t3, EdgeType::kHasReturned, {8, 8}).ok());
  EXPECT_TRUE(g.AddEdge(t1, query, EdgeType::kHasRead, {9, 9}).ok());
  EXPECT_TRUE(g.AddEdge(t3, query, EdgeType::kHasRead, {9, 9}).ok());
  EXPECT_TRUE(g.AddEdge(p2, query, EdgeType::kRun, {9, 9}).ok());
  EXPECT_TRUE(g.AddEdge(query, t4, EdgeType::kHasReturned, {9, 9}).ok());
  EXPECT_TRUE(g.AddEdge(query, t5, EdgeType::kHasReturned, {9, 9}).ok());
  EXPECT_TRUE(g.AddEdge(t4, p2, EdgeType::kReadFromDb, {9, 9}).ok());
  EXPECT_TRUE(g.AddEdge(t5, p2, EdgeType::kReadFromDb, {9, 9}).ok());
  EXPECT_TRUE(g.AddEdge(p2, file_c, EdgeType::kHasWritten, {7, 12}).ok());
  g.AddTupleDependency(t4, t1);
  g.AddTupleDependency(t4, t3);
  g.AddTupleDependency(t5, t1);
  g.AddTupleDependency(t5, t3);
  return g;
}

TEST(TraceGraphTest, Figure2TraceBuildsAndValidates) {
  TraceGraph g = BuildFigure2Trace();
  EXPECT_EQ(g.num_nodes(), 13);
  EXPECT_EQ(g.num_edges(), 15);
  EXPECT_EQ(g.NodesOfType(NodeType::kTuple).size(), 5u);
  EXPECT_EQ(g.NodesOfType(NodeType::kProcess).size(), 2u);
}

TEST(TraceGraphTest, DotRenderingMentionsEveryNode) {
  TraceGraph g = BuildFigure2Trace();
  std::string dot = g.ToDot();
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("Insert1"), std::string::npos);
  EXPECT_NE(dot.find("readFrom"), std::string::npos);
  EXPECT_NE(dot.find("dep"), std::string::npos);
}

TEST(TraceSerializeTest, RoundTrip) {
  TraceGraph g = BuildFigure2Trace();
  std::string bytes = SerializeTrace(g);
  auto restored = DeserializeTrace(bytes);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->num_nodes(), g.num_nodes());
  EXPECT_EQ(restored->num_edges(), g.num_edges());
  NodeId t4 = restored->FindNode(NodeType::kTuple, "t4");
  NodeId t1 = restored->FindNode(NodeType::kTuple, "t1");
  ASSERT_NE(t4, kInvalidNode);
  EXPECT_TRUE(restored->HasTupleDependency(t4, t1));
  // Edge intervals survive.
  NodeId file_a = restored->FindNode(NodeType::kFile, "A");
  ASSERT_EQ(restored->OutEdges(file_a).size(), 1u);
  const TraceEdge& edge =
      restored->edges()[static_cast<size_t>(restored->OutEdges(file_a)[0])];
  EXPECT_EQ(edge.t.begin, 1);
  EXPECT_EQ(edge.t.end, 6);
}

TEST(TraceSerializeTest, RejectsGarbage) {
  EXPECT_FALSE(DeserializeTrace("not a trace").ok());
  EXPECT_FALSE(DeserializeTrace("").ok());
}

TEST(ProvExportTest, Figure2ExportsAsValidProvJson) {
  TraceGraph g = BuildFigure2Trace();
  std::string text = ExportProvJson(g);
  auto doc = Json::Parse(text);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();

  // 2 processes + 3 statements = 5 activities; 3 files + 5 tuples = 8
  // entities.
  EXPECT_EQ(doc->Find("activity")->AsObject().size(), 5u);
  EXPECT_EQ(doc->Find("entity")->AsObject().size(), 8u);
  // used: 2 file reads + 2 hasRead + 2 readFromDb = 6.
  EXPECT_EQ(doc->Find("used")->AsObject().size(), 6u);
  // wasGeneratedBy: 3 insert-returns + 2 query-returns + 1 file write = 6.
  EXPECT_EQ(doc->Find("wasGeneratedBy")->AsObject().size(), 6u);
  // wasStartedBy: 3 run edges (no executed edges in Figure 2).
  EXPECT_EQ(doc->Find("wasStartedBy")->AsObject().size(), 3u);
  // wasDerivedFrom: the 4 Lineage pairs t4/t5 -> t1/t3.
  EXPECT_EQ(doc->Find("wasDerivedFrom")->AsObject().size(), 4u);

  // Every referenced qualified name resolves to a declared node, and time
  // intervals are preserved.
  const auto& activities = doc->Find("activity")->AsObject();
  const auto& entities = doc->Find("entity")->AsObject();
  for (const auto& [key, record] : doc->Find("used")->AsObject()) {
    EXPECT_TRUE(activities.contains(record.GetString("prov:activity", "")))
        << key;
    EXPECT_TRUE(entities.contains(record.GetString("prov:entity", "")))
        << key;
    EXPECT_LE(record.GetInt("ldv:begin", 99), record.GetInt("ldv:end", 0));
  }
  EXPECT_NE(text.find("\"prov:type\": \"ldv:query\""), std::string::npos);
}

TEST(TraceSerializeTest, ReserializationIsByteIdentical) {
  TraceGraph g = BuildFigure2Trace();
  NodeId file_a = g.FindNode(NodeType::kFile, "A");
  NodeId p1 = g.FindNode(NodeType::kProcess, "P1");
  NodeId t1 = g.FindNode(NodeType::kTuple, "t1");
  NodeId query = g.FindNode(NodeType::kQuery, "Query");
  // A duplicate edge, then merges that extend the later copy and an
  // existing single edge.
  ASSERT_TRUE(g.AddEdge(file_a, p1, EdgeType::kReadFrom, {20, 21}).ok());
  ASSERT_TRUE(g.MergeEdge(file_a, p1, EdgeType::kReadFrom, {19, 30}).ok());
  ASSERT_TRUE(g.MergeEdge(t1, query, EdgeType::kHasRead, {2, 40}).ok());
  std::string bytes = SerializeTrace(g);
  auto restored = DeserializeTrace(bytes);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(SerializeTrace(*restored), bytes);
  EXPECT_EQ(restored->num_edges(), 16);
}

TEST(TraceSerializeTest, RejectsUnknownNodeTypeAndDanglingDependency) {
  TraceGraph g;
  g.GetOrAddNode(NodeType::kTuple, "t");
  std::string bytes = SerializeTrace(g);
  // Layout: magic(4) node-count(1) type(1) ...
  std::string bad_type = bytes;
  bad_type[5] = static_cast<char>(kNumNodeTypes);
  EXPECT_FALSE(DeserializeTrace(bad_type).ok());
  // Replace the empty dependency list with the pair (0, 7); varints are
  // zigzag-encoded, so 1 -> 0x02 and 7 -> 0x0E.
  std::string dangling = bytes.substr(0, bytes.size() - 1);
  dangling += std::string("\x02\x00\x0E", 3);
  EXPECT_FALSE(DeserializeTrace(dangling).ok());
  dangling.back() = '\x00';  // (0, 0) names an existing node
  EXPECT_TRUE(DeserializeTrace(dangling).ok());
}

}  // namespace
}  // namespace ldv::trace
