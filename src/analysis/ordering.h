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

#include <vector>

#include "fta/fault_tree.h"

namespace ftsynth {

/// The distinct non-house leaves reachable from the top of `tree`, ranked
/// by first occurrence in a depth-first traversal (children in declaration
/// order). Empty when the tree has no top. House events carry no variable
/// (they are constant true) and are excluded.
std::vector<const FtNode*> dfs_variable_order(const FaultTree& tree);

}  // namespace ftsynth
