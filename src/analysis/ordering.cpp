#include "analysis/ordering.h"

#include <unordered_set>

namespace ftsynth {

std::vector<const FtNode*> dfs_variable_order(const FaultTree& tree) {
  std::vector<const FtNode*> order;
  if (tree.top() == nullptr) return order;
  std::unordered_set<const FtNode*> seen;
  auto walk = [&](auto&& self, const FtNode* node) -> void {
    if (!seen.insert(node).second) return;
    if (node->is_leaf()) {
      if (node->kind() != NodeKind::kHouse) order.push_back(node);
      return;
    }
    for (const FtNode* child : node->children()) self(self, child);
  };
  walk(walk, tree.top());
  return order;
}

}  // namespace ftsynth
