#ifndef LDV_TRACE_MODEL_H_
#define LDV_TRACE_MODEL_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace ldv::trace {

/// Node types of the combined provenance model P_{D+O} (paper Definitions
/// 3-5). kProcess/kFile come from the blackbox OS model P_BB; the statement
/// kinds and kTuple come from the Lineage DB model P_Lin.
enum class NodeType : uint8_t {
  kProcess = 0,  // activity (OS)
  kFile = 1,     // entity (OS)
  kQuery = 2,    // activity (DB)
  kInsert = 3,   // activity (DB)
  kUpdate = 4,   // activity (DB)
  kDelete = 5,   // activity (DB)
  kTuple = 6,    // entity (DB)
};
inline constexpr int kNumNodeTypes = 7;

/// Which provenance model a node belongs to (Definition 5 keeps them
/// disjoint; cross-model links use the dedicated edge types below).
enum class ModelSide : uint8_t { kOs = 0, kDb = 1 };

/// Edge types with the paper's direction convention: edges point in the
/// direction of data flow (Figure 2), e.g. readFrom(file, process) is drawn
/// file -> process.
enum class EdgeType : uint8_t {
  kReadFrom = 0,     // file -> process        (P_BB)
  kHasWritten = 1,   // process -> file        (P_BB)
  kExecuted = 2,     // parent -> child proc   (P_BB)
  kHasRead = 3,      // tuple -> statement     (P_Lin)
  kHasReturned = 4,  // statement -> tuple     (P_Lin)
  kRun = 5,          // process -> statement   (combined, Definition 5)
  kReadFromDb = 6,   // tuple -> process       (combined, Definition 5)
};

bool IsActivity(NodeType type);
inline bool IsEntity(NodeType type) { return !IsActivity(type); }
ModelSide SideOf(NodeType type);

std::string_view NodeTypeName(NodeType type);
std::string_view EdgeTypeName(EdgeType type);

/// Type constraint of one edge type: admissible endpoint node types
/// (Definition 1's L relation for the combined model).
struct EdgeTypeRule {
  bool from_process = false;
  bool from_file = false;
  bool from_statement = false;
  bool from_tuple = false;
  bool to_process = false;
  bool to_file = false;
  bool to_statement = false;
  bool to_tuple = false;
};

const EdgeTypeRule& RuleFor(EdgeType type);

/// True if an edge of `type` may connect `from` -> `to` in the combined
/// model.
bool EdgeAllowed(EdgeType type, NodeType from, NodeType to);

}  // namespace ldv::trace

#endif  // LDV_TRACE_MODEL_H_
