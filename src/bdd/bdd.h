// Reduced Ordered Binary Decision Diagrams.
//
// The analysis layer uses BDDs as its exact engine: top-event probability
// without the rare-event approximation, equivalence checks between trees
// (design-iteration comparisons), and an exactness oracle for the cut-set
// engines in the property tests (the disjunction of a tree's minimal cut
// sets must be BDD-equivalent to the tree). 2001-era FTA tools (the Fault Tree Plus of
// the paper's tool chain) shipped exactly this pairing of a classical
// cut-set engine with an exact evaluator.
//
// Implementation: classic ROBDD with a unique table and an operation cache,
// both flat open-addressing arrays (power-of-two capacity, linear probing,
// grown at half load) and both lossless. The manager is build-once: nodes
// are never rewritten or reclaimed, so a Ref is its node's allocation
// serial and Ref numbering depends only on the sequence of operations. No
// complement edges. Variables are ordered by creation index by default;
// set_order() installs an explicit order (e.g. the depth-first-occurrence
// heuristic of analysis/ordering.h) before any node is built, and every
// ordering-sensitive operation -- apply, sat_count, the conditionals in
// bdd_prob -- compares variables by their level under that order. The
// order never changes afterwards.
//
// A manager is single-threaded: every tree is analysed on one thread
// (DESIGN.md section 12), so a manager is never shared between workers.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ftsynth {

/// A BDD manager owning every node it creates. References (BddRef) stay
/// valid for the manager's lifetime; functions from different managers must
/// not be mixed.
class Bdd {
 public:
  using Ref = std::uint32_t;

  static constexpr Ref kFalse = 0;
  static constexpr Ref kTrue = 1;

  Bdd();

  /// Declares a fresh variable; variables are ordered by declaration.
  int new_var();

  int var_count() const noexcept { return var_count_; }

  /// Installs an explicit variable order: `order[k]` is the variable at
  /// level k (level 0 = root). Must be a permutation of every declared
  /// variable, and must be installed before any node is built.
  void set_order(const std::vector<int>& order);

  /// The level of a declared variable under the current order (identity
  /// when no explicit order is installed). Smaller = closer to the root.
  int level_of(int v) const;
  /// The variable at `level` -- the inverse of level_of().
  int var_at_level(int level) const;
  /// The current order as a variable list, root level first.
  std::vector<int> current_order() const { return var_at_level_; }

  /// The function "variable v" / "NOT variable v".
  Ref var(int v);
  Ref nvar(int v);

  Ref apply_not(Ref a);
  Ref apply_and(Ref a, Ref b);
  Ref apply_or(Ref a, Ref b);
  Ref apply_xor(Ref a, Ref b);

  /// If-then-else: f ? g : h.
  Ref ite(Ref f, Ref g, Ref h);

  bool is_true(Ref a) const noexcept { return a == kTrue; }
  bool is_false(Ref a) const noexcept { return a == kFalse; }

  /// Number of distinct nodes in the subgraph of `a` (terminals excluded).
  std::size_t node_count(Ref a) const;

  /// Nodes allocated by this manager, the two terminals included: one more
  /// than the largest Ref.
  std::size_t size() const noexcept { return nodes_.size(); }

  /// Evaluates under a full assignment (indexed by variable).
  bool evaluate(Ref a, const std::vector<bool>& assignment) const;

  /// Number of satisfying assignments over all declared variables.
  double sat_count(Ref a) const;

  // Structural access (used by probability / cut-set extraction).
  struct Node {
    int var;   ///< decision variable; terminals use a sentinel
    Ref low;   ///< cofactor with var = false
    Ref high;  ///< cofactor with var = true
  };
  /// The node behind `a`. The reference is invalidated by the next node
  /// allocation: copy the node before building anything.
  const Node& node(Ref a) const noexcept { return nodes_[a]; }
  bool is_terminal(Ref a) const noexcept { return a <= kTrue; }

 private:
  Ref make(int var, Ref low, Ref high);

  enum class Op : std::uint8_t { kAnd, kOr, kXor, kNot, kEmpty };

  /// One operation-cache slot; `op == kEmpty` marks a free slot.
  struct OpEntry {
    Ref a = 0;
    Ref b = 0;
    Ref result = 0;
    Op op = Op::kEmpty;
  };

  /// Unique-table probe: the slot holding <var, low, high>, or the empty
  /// slot where it would go.
  std::size_t unique_slot(int var, Ref low, Ref high) const noexcept;
  /// Doubles the unique table and re-inserts every entry.
  void unique_grow();

  /// The cached result of `op` on (a, b), or kNoRef.
  Ref cache_find(Op op, Ref a, Ref b) const noexcept;
  void cache_insert(Op op, Ref a, Ref b, Ref result);

  static constexpr Ref kNoRef = UINT32_MAX;

  Ref apply(Op op, Ref a, Ref b);

  /// Level of a node's decision variable; terminals sort below everything.
  int node_level(Ref a) const noexcept;

  std::vector<Node> nodes_;
  /// Node refs by hash; 0 (a terminal) = empty. Holds every nonterminal
  /// node, so its entry count is size() - 2.
  std::vector<Ref> unique_;
  std::vector<OpEntry> cache_;
  std::size_t cache_count_ = 0;
  std::vector<int> level_of_;      ///< level_of_[var]; identity by default
  std::vector<int> var_at_level_;  ///< inverse of level_of_
  int var_count_ = 0;
};

}  // namespace ftsynth
