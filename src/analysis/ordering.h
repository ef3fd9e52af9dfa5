// Static variable ordering for the decision-diagram engines.
//
// Decision-diagram size is notoriously sensitive to variable order. For
// synthesized fault-tree DAGs the standard static choice is depth-first
// occurrence order: visit the tree from the top, children left to right,
// and rank each leaf by its first occurrence. Events that co-occur under
// the same gate land on adjacent levels, which keeps the AND/OR structure
// local in the diagram -- the heuristic both the Bdd encoding
// (analysis/probability.cpp) and the Zbdd cut-set engine
// (analysis/cutsets.cpp) share.

#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "fta/fault_tree.h"

namespace ftsynth {

/// The distinct non-house leaves reachable from the top of `tree`, ranked
/// by first occurrence in a depth-first traversal (children in declaration
/// order). Empty when the tree has no top. House events carry no variable
/// (they are constant true) and are excluded.
std::vector<const FtNode*> dfs_variable_order(const FaultTree& tree);

/// How the diagram engines treat the variable order after the static DFS
/// heuristic seeds it. All policies produce identical analysis results --
/// cut-set families are canonicalised downstream of the diagrams -- and
/// differ only in diagram size and time.
enum class OrderPolicy {
  kStatic,  ///< DFS occurrence order, never revisited (the default)
  kSift,    ///< Rudell sifting on unique-table pressure + one final pass
};

/// CLI spelling: "static", "sift".
std::string to_string(OrderPolicy policy);

/// Parses a CLI spelling; std::nullopt when unrecognised.
std::optional<OrderPolicy> parse_order_policy(std::string_view text);

}  // namespace ftsynth
