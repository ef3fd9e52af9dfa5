#include "bound/pdag.h"

#include <algorithm>
#include <unordered_map>

#include "core/error.h"

namespace ftsynth::bound {

namespace {

void support_insert(std::vector<std::uint64_t>& support, int event) {
  support[static_cast<std::size_t>(event) / 64] |=
      std::uint64_t{1} << (static_cast<std::size_t>(event) % 64);
}

void support_union(std::vector<std::uint64_t>& into,
                   const std::vector<std::uint64_t>& from) {
  for (std::size_t i = 0; i < into.size(); ++i) into[i] |= from[i];
}

/// Post-order compiler; structure sharing collapses through the memo, so
/// every FtNode becomes at most one PdagGate.
class Compiler {
 public:
  Compiler(Pdag& pdag, const std::vector<const FtNode*>& order)
      : pdag_(pdag), words_((order.size() + 63) / 64) {
    rank_.reserve(order.size());
    for (std::size_t i = 0; i < order.size(); ++i)
      rank_.emplace(order[i], static_cast<int>(i));
  }

  Ref compile(const FtNode* node) {
    if (node->kind() == NodeKind::kHouse) return constant_true();
    if (node->is_leaf()) return literal(node, /*negated=*/false);
    if (node->gate() == GateKind::kNot) {
      check_internal(node->children().size() == 1 &&
                         node->children()[0]->is_leaf(),
                     "bound engine needs a normalised tree "
                     "(NOT over a non-leaf)");
      return literal(node->children()[0], /*negated=*/true);
    }
    auto it = memo_.find(node);
    if (it != memo_.end()) return it->second;

    PdagGate gate;
    gate.conjunction = node->gate() != GateKind::kOr;
    gate.support.assign(words_, 0);
    gate.children.reserve(node->children().size());
    for (const FtNode* child : node->children())
      gate.children.push_back(compile(child));

    gate.disjoint_children = true;
    for (const Ref child : gate.children) {
      const std::vector<std::uint64_t>& child_support = support_of(child);
      if (!supports_disjoint(gate.support, child_support))
        gate.disjoint_children = false;
      support_union(gate.support, child_support);
    }

    if (gate.conjunction) {
      if (gate.disjoint_children) {
        gate.ub = 1.0;
        for (const Ref child : gate.children) gate.ub *= ub_of(child);
      } else {
        gate.ub = 1.0;
        for (const Ref child : gate.children)
          gate.ub = std::min(gate.ub, ub_of(child));
      }
    } else {
      gate.ub = 0.0;
      for (const Ref child : gate.children) gate.ub += ub_of(child);
      gate.ub = std::min(gate.ub, 1.0);
    }

    const Ref ref = static_cast<Ref>(pdag_.gates.size());
    pdag_.gates.push_back(std::move(gate));
    memo_.emplace(node, ref);
    return ref;
  }

 private:
  /// House leaves are constant true and carry no variable: one shared
  /// empty conjunction, which absorbs to nothing, so an item holding it
  /// completes as the empty cut set.
  Ref constant_true() {
    if (true_ref_ < 0) {
      PdagGate gate;
      gate.conjunction = true;
      gate.disjoint_children = true;
      gate.ub = 1.0;
      gate.support.assign(words_, 0);
      true_ref_ = static_cast<Ref>(pdag_.gates.size());
      pdag_.gates.push_back(std::move(gate));
    }
    return true_ref_;
  }

  Ref literal(const FtNode* leaf, bool negated) {
    auto it = rank_.find(leaf);
    check_internal(it != rank_.end(),
                   "bound engine met a leaf outside the interned order");
    const int id = it->second * 2 + (negated ? 1 : 0);
    if (literal_support_.size() <= static_cast<std::size_t>(id))
      literal_support_.resize(2 * rank_.size());
    std::vector<std::uint64_t>& support =
        literal_support_[static_cast<std::size_t>(id)];
    if (support.empty()) {
      support.assign(words_, 0);
      support_insert(support, it->second);
    }
    return literal_ref(id);
  }

  const std::vector<std::uint64_t>& support_of(Ref ref) const {
    if (is_literal(ref))
      return literal_support_[static_cast<std::size_t>(literal_of(ref))];
    return pdag_.gates[static_cast<std::size_t>(ref)].support;
  }

  double ub_of(Ref ref) const {
    if (is_literal(ref))
      return pdag_.literal_probability[static_cast<std::size_t>(
          literal_of(ref))];
    return pdag_.gates[static_cast<std::size_t>(ref)].ub;
  }

  Pdag& pdag_;
  std::size_t words_;
  std::unordered_map<const FtNode*, int> rank_;
  std::unordered_map<const FtNode*, Ref> memo_;
  Ref true_ref_ = -1;  ///< the constant_true() gate, once built
  /// Lazily-built one-bit supports, indexed by literal id.
  std::vector<std::vector<std::uint64_t>> literal_support_;
};

}  // namespace

bool supports_disjoint(const std::vector<std::uint64_t>& a,
                       const std::vector<std::uint64_t>& b) noexcept {
  for (std::size_t i = 0; i < a.size(); ++i) {
    if ((a[i] & b[i]) != 0) return false;
  }
  return true;
}

Pdag compile_pdag(const FaultTree& normalised,
                  const std::vector<const FtNode*>& event_order,
                  const std::vector<double>& event_probability) {
  check_internal(event_order.size() == event_probability.size(),
                 "bound PDAG: one probability per interned event");
  Pdag pdag;
  pdag.event_count = event_order.size();
  pdag.literal_probability.resize(2 * event_order.size());
  for (std::size_t i = 0; i < event_order.size(); ++i) {
    const double p = std::clamp(event_probability[i], 0.0, 1.0);
    pdag.literal_probability[2 * i] = p;
    pdag.literal_probability[2 * i + 1] = 1.0 - p;
  }
  if (normalised.top() == nullptr) {
    pdag.constant_false = true;
    return pdag;
  }
  Compiler compiler(pdag, event_order);
  pdag.root = compiler.compile(normalised.top());
  return pdag;
}

}  // namespace ftsynth::bound
