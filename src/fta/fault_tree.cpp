#include "fta/fault_tree.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "core/error.h"
#include "core/strings.h"

namespace ftsynth {

std::string_view to_string(NodeKind kind) noexcept {
  switch (kind) {
    case NodeKind::kBasic:
      return "basic";
    case NodeKind::kHouse:
      return "house";
    case NodeKind::kUndeveloped:
      return "undeveloped";
    case NodeKind::kLoop:
      return "loop";
    case NodeKind::kGate:
      return "gate";
  }
  return "unknown";
}

std::string_view to_string(GateKind kind) noexcept {
  switch (kind) {
    case GateKind::kAnd:
      return "AND";
    case GateKind::kOr:
      return "OR";
    case GateKind::kNot:
      return "NOT";
    case GateKind::kPand:
      return "PAND";
  }
  return "unknown";
}

void FtNode::add_child(FtNode* child) {
  check_internal(kind_ == NodeKind::kGate, "only gates have children");
  check_internal(child != nullptr, "null fault tree child");
  children_.push_back(child);
}

namespace {

/// The interned name "G<number>". Every tree numbers its gates from 1, so
/// a per-thread table indexed by number serves them all without the
/// interner's lock; it grows to the largest tree the thread has built.
Symbol gate_name(int number) {
  thread_local std::vector<Symbol> names;  // names[n - 1] is "G<n>"
  const auto index = static_cast<std::size_t>(number - 1);
  while (names.size() <= index)
    names.emplace_back(concat({"G", std::to_string(names.size() + 1)}));
  return names[index];
}

}  // namespace

FaultTree::FaultTree(std::string name) : name_(std::move(name)) {}

FtNode* FaultTree::add_node(NodeKind kind, GateKind gate, Symbol name) {
  nodes_.push_back(std::make_unique<FtNode>(
      static_cast<int>(nodes_.size()), kind, gate, name));
  FtNode* node = nodes_.back().get();
  if (kind != NodeKind::kGate) leaf_index_.emplace(name, node);
  return node;
}

FtNode* FaultTree::add_basic(Symbol name, double rate,
                             std::string description, std::string origin) {
  if (FtNode* existing = find_event(name)) {
    if (existing->kind() != NodeKind::kBasic) {
      fail(ErrorKind::kInternal,
           "event '" + name.str() + "' reused with a different kind");
    }
    return existing;
  }
  FtNode* node = add_node(NodeKind::kBasic, GateKind::kOr, name);
  node->set_rate(rate);
  node->set_description(std::move(description));
  node->set_origin(std::move(origin));
  return node;
}

FtNode* FaultTree::add_house(Symbol name, std::string description) {
  if (FtNode* existing = find_event(name)) return existing;
  FtNode* node = add_node(NodeKind::kHouse, GateKind::kOr, name);
  node->set_description(std::move(description));
  return node;
}

FtNode* FaultTree::add_undeveloped(Symbol name, std::string description,
                                   std::string origin) {
  if (FtNode* existing = find_event(name)) return existing;
  FtNode* node = add_node(NodeKind::kUndeveloped, GateKind::kOr, name);
  node->set_description(std::move(description));
  node->set_origin(std::move(origin));
  return node;
}

FtNode* FaultTree::add_loop(Symbol name, std::string description,
                            std::string origin) {
  if (FtNode* existing = find_event(name)) return existing;
  FtNode* node = add_node(NodeKind::kLoop, GateKind::kOr, name);
  node->set_description(std::move(description));
  node->set_origin(std::move(origin));
  return node;
}

FtNode* FaultTree::add_gate(GateKind kind, std::string description,
                            std::vector<FtNode*> children) {
  check_internal(!children.empty(), "gate needs at least one child");
  check_internal(kind != GateKind::kNot || children.size() == 1,
                 "NOT gate needs exactly one child");
  FtNode* node =
      add_node(NodeKind::kGate, kind, gate_name(next_gate_number_++));
  node->set_description(std::move(description));
  for (const FtNode* child : children)
    check_internal(child != nullptr, "null fault tree child");
  node->children_ = std::move(children);
  return node;
}

FtNode* FaultTree::find_event(Symbol name) const noexcept {
  auto it = leaf_index_.find(name);
  return it == leaf_index_.end() ? nullptr : it->second;
}

void FaultTree::for_each_reachable(
    const std::function<void(const FtNode&)>& visit) const {
  if (top_ == nullptr) return;
  std::vector<bool> seen(nodes_.size(), false);  // by node id
  // Iterative postorder over the DAG.
  std::vector<std::pair<const FtNode*, bool>> stack{{top_, false}};
  while (!stack.empty()) {
    auto [node, expanded] = stack.back();
    stack.pop_back();
    if (expanded) {
      visit(*node);
      continue;
    }
    const auto id = static_cast<std::size_t>(node->id());
    check_internal(id < nodes_.size() && nodes_[id].get() == node,
                   "fault tree node owned by another tree");
    if (seen[id]) continue;
    seen[id] = true;
    stack.push_back({node, true});
    for (const FtNode* child : node->children())
      stack.push_back({child, false});
  }
}

std::vector<const FtNode*> FaultTree::basic_events() const {
  std::vector<const FtNode*> out;
  for_each_reachable([&](const FtNode& node) {
    if (node.kind() == NodeKind::kBasic) out.push_back(&node);
  });
  std::sort(out.begin(), out.end(),
            [](const FtNode* a, const FtNode* b) { return a->id() < b->id(); });
  return out;
}

std::vector<const FtNode*> FaultTree::leaves() const {
  std::vector<const FtNode*> out;
  for_each_reachable([&](const FtNode& node) {
    if (node.is_leaf()) out.push_back(&node);
  });
  std::sort(out.begin(), out.end(),
            [](const FtNode* a, const FtNode* b) { return a->id() < b->id(); });
  return out;
}

FaultTreeStats FaultTree::stats() const {
  FaultTreeStats stats;
  if (top_ == nullptr) return stats;
  // Depth and expanded size need per-node values computed children-first.
  std::unordered_map<const FtNode*, int> depth;
  std::unordered_map<const FtNode*, std::size_t> expanded;
  for_each_reachable([&](const FtNode& node) {
    ++stats.node_count;
    switch (node.kind()) {
      case NodeKind::kGate:
        ++stats.gate_count;
        break;
      case NodeKind::kBasic:
        ++stats.basic_event_count;
        break;
      case NodeKind::kUndeveloped:
        ++stats.undeveloped_count;
        break;
      case NodeKind::kLoop:
        ++stats.loop_count;
        break;
      case NodeKind::kHouse:
        break;
    }
    int d = 0;
    std::size_t size = 1;
    for (const FtNode* child : node.children()) {
      d = std::max(d, depth[child] + 1);
      size += expanded[child];
    }
    depth[&node] = d;
    expanded[&node] = size;
  });
  stats.depth = depth[top_];
  stats.expanded_size = expanded[top_];
  return stats;
}

namespace {

void render(const FtNode& node, int indent, std::unordered_set<int>& printed,
            std::string& out) {
  out.append(static_cast<std::size_t>(indent) * 2, ' ');
  const bool shared_reference =
      node.kind() == NodeKind::kGate && !printed.insert(node.id()).second;
  switch (node.kind()) {
    case NodeKind::kGate:
      out += std::string(node.name().view()) + " [" +
             std::string(to_string(node.gate())) + "] " + node.description();
      if (shared_reference) {
        out += "  ^(shared, expanded above)\n";
        return;
      }
      out += "\n";
      for (const FtNode* child : node.children())
        render(*child, indent + 1, printed, out);
      return;
    case NodeKind::kBasic:
      out += "* " + std::string(node.name().view());
      if (node.rate() > 0.0) out += "  lambda=" + format_double(node.rate());
      break;
    case NodeKind::kHouse:
      out += "[house] " + std::string(node.name().view());
      break;
    case NodeKind::kUndeveloped:
      out += "<undeveloped> " + std::string(node.name().view());
      break;
    case NodeKind::kLoop:
      out += "<loop> " + std::string(node.name().view());
      break;
  }
  if (!node.description().empty()) out += "  -- " + node.description();
  out += "\n";
}

}  // namespace

std::string FaultTree::to_text() const {
  std::string out = "Fault tree: " + name_ + "\nTop event: " + top_desc_ + "\n";
  if (top_ == nullptr) {
    out += "  (no causes -- top event cannot occur in this model)\n";
    return out;
  }
  std::unordered_set<int> printed;
  render(*top_, 1, printed, out);
  return out;
}

}  // namespace ftsynth
