// Zero-suppressed Binary Decision Diagrams over families of sets.
//
// The cut-set analysis the paper delegates to Fault Tree Plus is, on
// modern model-based safety platforms, a decision-diagram problem: a
// family of minimal cut sets is a set of sets of basic events, and ZBDDs
// (Minato's zero-suppressed variant) represent such families canonically
// with sharing, so union (OR gates), pairwise-union product (AND gates)
// and Rauzy-style minimisation run in time polynomial in the diagram size
// instead of the family size. This manager is the symbolic core of the
// `zbdd` cut-set engine in analysis/cutsets.*.
//
// Representation: a node <v, high, low> denotes the family
//
//   high-with-v-added  UNION  low,
//
// i.e. the high branch holds the sets that contain variable v (with v
// stripped), the low branch the sets that do not. Terminal kEmpty is the
// empty family {}; terminal kBase is {{}}, the family holding only the
// empty set. The zero-suppression rule (high == kEmpty collapses to low)
// plus the unique table make the representation canonical for a fixed
// variable order.
//
// The manager is build-once, like the Bdd (bdd/bdd.h): nodes are never
// rewritten or reclaimed, so a Ref is its node's allocation serial and Ref
// numbering depends only on the sequence of operations. A variable's level
// is its index: earlier declaration = closer to the root. Callers declare
// variables in the depth-first-occurrence heuristic order (see
// analysis/ordering.h), and that order never changes afterwards.
//
// A manager is single-threaded: every tree is analysed on one thread
// (DESIGN.md section 12), so a manager is never shared between workers.

#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "core/budget.h"

namespace ftsynth {

/// A ZBDD manager owning every node it creates. References stay valid for
/// the manager's lifetime; refs from different managers must not be mixed.
class Zbdd {
 public:
  using Ref = std::uint32_t;

  static constexpr Ref kEmpty = 0;  ///< the empty family: no sets at all
  static constexpr Ref kBase = 1;   ///< {{}}: only the empty set

  Zbdd();

  /// Declares a fresh variable; variables are ordered by declaration
  /// (earlier declaration = closer to the root).
  int new_var();
  int var_count() const noexcept { return var_count_; }

  /// The family {{v}}: one set holding just the variable.
  Ref single(int v);

  /// Family union / intersection (sets compared as sets).
  Ref set_union(Ref a, Ref b);
  Ref set_intersection(Ref a, Ref b);

  /// {s UNION t : s in a, t in b} -- the cut-set semantics of an AND gate.
  Ref product(Ref a, Ref b);

  /// Drops from `a` every set that is a superset of (or equal to) some set
  /// in `b` -- Rauzy's `without` subsumption operator.
  Ref without(Ref a, Ref b);

  /// The minimal sets of `a` (Rauzy's minsol): drops every set that is a
  /// strict superset of another member.
  Ref minimal(Ref a);

  /// Number of sets in the family (exact while it fits a double).
  double set_count(Ref a) const;

  /// Distinct internal nodes in the subgraph of `a` (terminals excluded).
  std::size_t node_count(Ref a) const;

  /// Nodes allocated by this manager, the two terminals included: one more
  /// than the largest Ref.
  std::size_t size() const noexcept { return nodes_.size(); }

  /// Visits every set of the family, each as a vector of variables in
  /// ascending index (diagram) order. Return false to stop the enumeration.
  void for_each_set(
      Ref a, const std::function<bool(const std::vector<int>&)>& visit) const;

  // Structural access (cut-set extraction walks the diagram directly).
  struct Node {
    int var;   ///< decision variable (= level); terminals use INT_MAX,
               ///< which sorts below every variable
    Ref low;   ///< sets without var
    Ref high;  ///< sets with var (var itself stripped)
  };
  /// The node behind `a`. The reference is invalidated by the next node
  /// allocation: copy the node before building anything.
  const Node& node(Ref a) const noexcept { return nodes_[a]; }
  bool is_terminal(Ref a) const noexcept { return a <= kBase; }

  // -- Resource guards ---------------------------------------------------------
  //
  // ZBDD operations are worst-case exponential on adversarial inputs, so
  // the same degrade-don't-run-away contract as the set-based engines
  // applies: when the (not owned) budget's deadline expires or the node
  // ceiling is hit mid-operation, the operation throws Interrupt. The
  // manager stays consistent -- already-built nodes remain valid -- so the
  // caller can still report a flagged partial result.

  struct Interrupt {
    bool deadline_exceeded;  ///< false: the node ceiling fired instead
  };

  /// Polled (amortised) on every node allocation. Null disables the check.
  void set_budget(Budget* budget) noexcept { budget_ = budget; }
  /// Node ceiling (0 = unlimited) on size().
  void set_node_limit(std::size_t limit) noexcept { node_limit_ = limit; }

  /// Frees the unique table and the operation cache once the diagram is
  /// final. Every const reader (node(), set_count(), node_count(),
  /// for_each_set()) keeps working; no operation may run afterwards.
  void release_tables();

 private:
  enum class Op : std::uint8_t {
    kUnion,
    kIntersection,
    kProduct,
    kWithout,
    kMinimal
  };

  Ref make(int var, Ref low, Ref high);

  struct UniqueKey {
    int var;
    Ref low;
    Ref high;
    friend bool operator==(const UniqueKey& a, const UniqueKey& b) noexcept {
      return a.var == b.var && a.low == b.low && a.high == b.high;
    }
  };
  struct UniqueHash {
    std::size_t operator()(const UniqueKey& k) const noexcept {
      std::size_t h = static_cast<std::size_t>(k.var);
      h = h * 1000003u ^ k.low;
      h = h * 1000003u ^ k.high;
      return h;
    }
  };
  struct OpKey {
    Op op;
    Ref a;
    Ref b;
    friend bool operator==(const OpKey& x, const OpKey& y) noexcept {
      return x.op == y.op && x.a == y.a && x.b == y.b;
    }
  };
  struct OpHash {
    std::size_t operator()(const OpKey& k) const noexcept {
      std::size_t h = static_cast<std::size_t>(k.op);
      h = h * 1000003u ^ k.a;
      h = h * 1000003u ^ k.b;
      return h;
    }
  };

  std::vector<Node> nodes_;
  std::unordered_map<UniqueKey, Ref, UniqueHash> unique_;
  std::unordered_map<OpKey, Ref, OpHash> cache_;
  int var_count_ = 0;
  Budget* budget_ = nullptr;       ///< not owned
  std::size_t node_limit_ = 0;
};

}  // namespace ftsynth
