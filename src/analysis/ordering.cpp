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

std::string to_string(OrderPolicy policy) {
  switch (policy) {
    case OrderPolicy::kStatic:
      return "static";
    case OrderPolicy::kSift:
      return "sift";
  }
  return "static";
}

std::optional<OrderPolicy> parse_order_policy(std::string_view text) {
  if (text == "static") return OrderPolicy::kStatic;
  if (text == "sift") return OrderPolicy::kSift;
  return std::nullopt;
}

}  // namespace ftsynth
