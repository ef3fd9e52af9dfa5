#include "fta/simplify.h"

#include <algorithm>
#include <string>
#include <unordered_map>

#include "core/error.h"

namespace ftsynth {

namespace {

class Normaliser {
 public:
  Normaliser(const FaultTree& source, FaultTree& target)
      : source_(source), target_(target) {}

  FtNode* run() { return rebuild(source_.top(), /*negated=*/false); }

 private:
  // nullptr encodes constant false; a kHouse node encodes constant true.
  static bool is_house(const FtNode* node) noexcept {
    return node != nullptr && node->kind() == NodeKind::kHouse;
  }

  FtNode* house() {
    return target_.add_house(Symbol("always"), "condition fixed true");
  }

  FtNode* rebuild(const FtNode* node, bool negated) {
    if (node == nullptr) return negated ? house() : nullptr;
    auto key = std::make_pair(node, negated);
    if (auto it = memo_.find(key); it != memo_.end()) return it->second;
    FtNode* result = rebuild_uncached(node, negated);
    memo_.emplace(key, result);
    return result;
  }

  FtNode* rebuild_uncached(const FtNode* node, bool negated) {
    switch (node->kind()) {
      case NodeKind::kHouse:
        return negated ? nullptr : house();
      case NodeKind::kBasic:
      case NodeKind::kUndeveloped:
      case NodeKind::kLoop: {
        FtNode* leaf = copy_leaf(node);
        if (!negated) return leaf;
        return target_.add_gate(GateKind::kNot,
                                "NOT " + std::string(node->name().view()),
                                {leaf});
      }
      case NodeKind::kGate:
        break;
    }
    if (node->gate() == GateKind::kNot)
      return rebuild(node->children().front(), !negated);
    if (node->gate() == GateKind::kPand) {
      // Order-significant: no flattening, no deduplication, no De Morgan.
      require(!negated, ErrorKind::kAnalysis,
              "NOT over a PAND gate is not supported");
      std::vector<FtNode*> children;
      children.reserve(node->children().size());
      for (const FtNode* child : node->children()) {
        FtNode* rebuilt = rebuild(child, false);
        if (rebuilt == nullptr) return nullptr;  // a child cannot occur
        if (is_house(rebuilt)) continue;          // always-true child
        children.push_back(rebuilt);
      }
      if (children.empty()) return house();
      if (children.size() == 1) return children.front();
      return target_.add_gate(GateKind::kPand, node->description(),
                              std::move(children));
    }

    // De Morgan: a negated AND becomes an OR of negated children.
    const bool is_and = (node->gate() == GateKind::kAnd) != negated;
    std::vector<FtNode*> children;
    for (const FtNode* child : node->children()) {
      FtNode* rebuilt = rebuild(child, negated);
      if (is_and) {
        if (rebuilt == nullptr) return nullptr;  // AND with false
        if (is_house(rebuilt)) continue;          // AND with true
      } else {
        if (rebuilt == nullptr) continue;         // OR with false
        if (is_house(rebuilt)) return rebuilt;    // OR with true
      }
      // Flatten a same-kind gate child.
      const bool same_kind =
          rebuilt->kind() == NodeKind::kGate &&
          rebuilt->gate() == (is_and ? GateKind::kAnd : GateKind::kOr);
      if (same_kind) {
        for (FtNode* grandchild : rebuilt->children()) {
          if (std::find(children.begin(), children.end(), grandchild) ==
              children.end())
            children.push_back(grandchild);
        }
      } else if (std::find(children.begin(), children.end(), rebuilt) ==
                 children.end()) {
        children.push_back(rebuilt);
      }
    }
    if (children.empty()) return is_and ? house() : nullptr;
    if (children.size() == 1) return children.front();
    return target_.add_gate(is_and ? GateKind::kAnd : GateKind::kOr,
                            node->description(), std::move(children));
  }

  FtNode* copy_leaf(const FtNode* node) {
    switch (node->kind()) {
      case NodeKind::kBasic: {
        FtNode* copy = target_.add_basic(node->name(), node->rate(),
                                         node->description(), node->origin());
        if (node->has_fixed_probability())
          copy->set_fixed_probability(node->fixed_probability());
        return copy;
      }
      case NodeKind::kUndeveloped:
        return target_.add_undeveloped(node->name(), node->description(),
                                       node->origin());
      case NodeKind::kLoop:
        return target_.add_loop(node->name(), node->description(),
                                node->origin());
      default:
        throw Error(ErrorKind::kInternal, "copy_leaf on a non-leaf");
    }
  }

  struct PairHash {
    std::size_t operator()(
        const std::pair<const FtNode*, bool>& key) const noexcept {
      return std::hash<const void*>{}(key.first) * 2 +
             (key.second ? 1 : 0);
    }
  };

  const FaultTree& source_;
  FaultTree& target_;
  std::unordered_map<std::pair<const FtNode*, bool>, FtNode*, PairHash> memo_;
};

}  // namespace

FaultTree normalise(const FaultTree& tree) {
  FaultTree out(tree.name());
  out.set_top_description(tree.top_description());
  out.set_top(Normaliser(tree, out).run());
  return out;
}

FaultTree deduplicate(const FaultTree& tree) {
  FaultTree out(tree.name());
  out.set_top_description(tree.top_description());
  if (tree.top() == nullptr) return out;

  // Children-first rebuild; gates are interned on (kind, sorted child ids).
  struct GateKey {
    GateKind kind;
    std::vector<int> children;  // new-tree node ids, sorted
    bool operator==(const GateKey& other) const noexcept {
      return kind == other.kind && children == other.children;
    }
  };
  struct GateKeyHash {
    std::size_t operator()(const GateKey& key) const noexcept {
      std::size_t h = static_cast<std::size_t>(key.kind);
      for (int id : key.children)
        h = h * 1000003u ^ static_cast<std::size_t>(id);
      return h;
    }
  };
  std::unordered_map<GateKey, FtNode*, GateKeyHash> interned;
  std::vector<FtNode*> rebuilt(tree.nodes().size(), nullptr);  // by node id
  // Reused per gate: a gate that collapses or is already interned costs no
  // allocation; a new one copies them at their final size.
  GateKey key{GateKind::kOr, {}};
  std::vector<FtNode*> children;

  tree.for_each_reachable([&](const FtNode& node) {
    FtNode* copy = nullptr;
    switch (node.kind()) {
      case NodeKind::kBasic:
        copy = out.add_basic(node.name(), node.rate(), node.description(),
                             node.origin());
        if (node.has_fixed_probability())
          copy->set_fixed_probability(node.fixed_probability());
        break;
      case NodeKind::kHouse:
        copy = out.add_house(node.name(), node.description());
        break;
      case NodeKind::kUndeveloped:
        copy = out.add_undeveloped(node.name(), node.description(),
                                   node.origin());
        break;
      case NodeKind::kLoop:
        copy = out.add_loop(node.name(), node.description(), node.origin());
        break;
      case NodeKind::kGate: {
        // PAND is order-significant: keep duplicates and child order.
        const bool ordered = node.gate() == GateKind::kPand;
        children.clear();
        for (const FtNode* child : node.children()) {
          FtNode* mapped = rebuilt[static_cast<std::size_t>(child->id())];
          // Drop duplicate children inside one gate (X OR X == X).
          if (ordered || std::find(children.begin(), children.end(),
                                   mapped) == children.end())
            children.push_back(mapped);
        }
        if (children.size() == 1 && node.gate() != GateKind::kNot) {
          copy = children.front();
          break;
        }
        key.kind = node.gate();
        key.children.clear();
        for (const FtNode* child : children)
          key.children.push_back(child->id());
        if (!ordered) std::sort(key.children.begin(), key.children.end());
        if (auto it = interned.find(key); it != interned.end()) {
          copy = it->second;
          break;
        }
        copy = out.add_gate(node.gate(), node.description(),
                            {children.begin(), children.end()});
        interned.emplace(key, copy);
        break;
      }
    }
    rebuilt[static_cast<std::size_t>(node.id())] = copy;
  });
  out.set_top(rebuilt[static_cast<std::size_t>(tree.top()->id())]);
  return out;
}

bool is_normalised(const FaultTree& tree) {
  bool ok = true;
  tree.for_each_reachable([&](const FtNode& node) {
    if (node.kind() != NodeKind::kGate) return;
    if (node.gate() == GateKind::kNot) {
      if (!node.children().front()->is_leaf()) ok = false;
      return;
    }
    if (node.gate() == GateKind::kPand) return;  // never flattened
    for (const FtNode* child : node.children()) {
      if (child->kind() == NodeKind::kGate && child->gate() == node.gate())
        ok = false;
    }
  });
  return ok;
}

}  // namespace ftsynth
