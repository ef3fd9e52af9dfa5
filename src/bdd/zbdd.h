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
// Ordering is a per-variable LEVEL, not the variable index: variables
// start in declaration order (callers declare them in the shared
// depth-first-occurrence heuristic order, see analysis/ordering.h), and
// the order may then change dynamically -- swap_adjacent_levels() is the
// in-place Rudell primitive and sift() the full reorder.
// A swap rewrites the nodes of one level in place, so every Ref keeps
// denoting the same family across reorders; only garbage collection
// (collect_garbage) invalidates refs, and only those unreachable from the
// roots the caller passes.
//
// A manager is single-threaded: every tree is analysed on one thread
// (DESIGN.md section 12), so a manager is never shared between workers.

#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/budget.h"

namespace ftsynth {

struct SiftOptions {
  /// Abort a variable's journey in the current direction once the live
  /// diagram grows past best * (100 + max_growth_percent) / 100. The
  /// standard damper: a variable rarely recovers after swelling the table.
  int max_growth_percent = 20;
  /// Hard swap ceiling for the whole run (0 = unlimited). The effort knob
  /// for callers without a deadline.
  std::size_t max_swaps = 0;
  /// Deadline polled between swaps (not owned, may be null). Expiry stops
  /// the reorder at the next swap boundary -- every intermediate order is a
  /// valid order, so an interrupted sift degrades, never corrupts.
  Budget* budget = nullptr;
};

struct SiftStats {
  int passes = 0;
  std::size_t swaps = 0;
  std::size_t size_before = 0;  ///< live nodes before the first swap
  std::size_t size_after = 0;   ///< live nodes at the final order
  bool interrupted = false;     ///< budget / swap ceiling stopped the run

  void merge(const SiftStats& other) noexcept {
    if (passes == 0 && swaps == 0) size_before = other.size_before;
    passes += other.passes;
    swaps += other.swaps;
    size_after = other.size_after;
    interrupted = interrupted || other.interrupted;
  }
};

/// A ZBDD manager owning every node it creates. References stay valid for
/// the manager's lifetime -- across level swaps and sifting too -- except
/// that collect_garbage() reclaims nodes unreachable from its root set;
/// refs from different managers must not be mixed.
class Zbdd {
 public:
  using Ref = std::uint32_t;

  static constexpr Ref kEmpty = 0;  ///< the empty family: no sets at all
  static constexpr Ref kBase = 1;   ///< {{}}: only the empty set

  Zbdd();

  /// Declares a fresh variable; the initial order is declaration order
  /// (earlier declaration = closer to the root) until set_order() or a
  /// reorder changes it.
  int new_var();
  int var_count() const noexcept { return var_count_; }

  /// Installs an explicit variable order: `order[k]` is the variable at
  /// level k (level 0 = root). Must be a permutation of every declared
  /// variable and must run before any node is built; use sift() /
  /// swap_adjacent_levels() to reorder an existing diagram.
  void set_order(const std::vector<int>& order);

  /// The level of a declared variable under the current order (smaller =
  /// closer to the root).
  int level_of(int v) const;
  /// The variable at `level` -- the inverse of level_of().
  int var_at_level(int level) const;
  /// The current order as a variable list, root level first.
  std::vector<int> current_order() const { return var_at_level_; }

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

  /// Total node slots allocated by this manager (live + reclaimable).
  std::size_t size() const noexcept { return nodes_.size(); }

  /// Live unique-table entries (every allocated node that has not been
  /// garbage collected). The unique-table-pressure metric.
  std::size_t table_size() const noexcept { return unique_.size(); }

  /// Visits every set of the family, each as a vector of variables in
  /// diagram (level) order -- ascending variable index only while the
  /// order is the declaration order. Return false to stop the enumeration.
  void for_each_set(
      Ref a, const std::function<bool(const std::vector<int>&)>& visit) const;

  // Structural access (cut-set extraction walks the diagram directly).
  struct Node {
    int var;   ///< decision variable; terminals use a sentinel
    Ref low;   ///< sets without var
    Ref high;  ///< sets with var (var itself stripped)
  };
  /// The node behind `a`. The reference is invalidated by the next node
  /// allocation: copy the node before building anything.
  const Node& node(Ref a) const noexcept { return nodes_[a]; }
  bool is_terminal(Ref a) const noexcept { return a <= kBase; }

  // -- Dynamic reordering ------------------------------------------------------
  //
  // The Rudell machinery. A swap rewrites every node of `level` that
  // depends on the variable below it IN PLACE -- external refs keep their
  // meaning -- and invalidates the operation cache. Never call it while an
  // operation is on the stack.

  /// Exchanges the variables at `level` and `level + 1`.
  void swap_adjacent_levels(int level);

  /// Nodes currently recorded on `level` (exact right after
  /// collect_garbage(); may include not-yet-collected garbage otherwise).
  std::size_t level_width(int level) const;

  /// Reclaims every node unreachable from `roots` (terminals always
  /// survive): slots go to a free list for reuse, their unique-table
  /// entries disappear, and the operation cache is dropped. Refs to
  /// reclaimed nodes become invalid -- pass every ref you still hold.
  void collect_garbage(const std::vector<Ref>& roots);

  /// Nodes reachable from `roots` (terminals excluded): the live size
  /// sift() minimises.
  std::size_t live_size(const std::vector<Ref>& roots) const;

  /// Runs one pass of Rudell sifting (ICCAD'93) over the whole order: each
  /// variable, heaviest level first, moves through every position and is
  /// parked where the live diagram was smallest. Deterministic: the same
  /// diagram, roots and options always produce the same final order.
  /// `roots` must list every externally held ref (engine memo tables,
  /// accumulators, the contradiction family): garbage collection between
  /// journeys reclaims anything unreachable from them. Clears any pending
  /// reorder request and rearms the pressure threshold above the new live
  /// size.
  SiftStats sift(const std::vector<Ref>& roots,
                 const SiftOptions& options = {});

  /// Arms (or disarms) the unique-table pressure trigger: once the table
  /// outgrows `threshold` entries (0 = the built-in default), make() flags
  /// a pending reorder that the OWNER of the diagram honours at its next
  /// safe point via maybe_reorder(). make() itself never reorders --
  /// operations hold node copies on the stack that a swap would bypass.
  void set_auto_reorder(bool on, std::size_t threshold = 0);
  bool reorder_pending() const noexcept { return reorder_pending_; }

  /// sift() if a pressure-triggered reorder is pending, else nothing.
  std::optional<SiftStats> maybe_reorder(const std::vector<Ref>& roots,
                                         const SiftOptions& options = {});

  // -- Resource guards ---------------------------------------------------------
  //
  // ZBDD operations are worst-case exponential on adversarial inputs, so
  // the same degrade-don't-run-away contract as the set-based engines
  // applies: when the (not owned) budget's deadline expires or the node
  // ceiling is hit mid-operation, the operation throws Interrupt. The
  // manager stays consistent -- already-built nodes remain valid -- so the
  // caller can still report a flagged partial result. Swaps suppress both
  // checks (a half-swapped level would not be a valid diagram); sift()
  // polls the budget between swaps instead.

  struct Interrupt {
    bool deadline_exceeded;  ///< false: the node ceiling fired instead
  };

  /// Polled (amortised) on every node allocation. Null disables the check.
  void set_budget(Budget* budget) noexcept { budget_ = budget; }
  /// Node ceiling (0 = unlimited): live nodes, reclaimable slots excluded.
  void set_node_limit(std::size_t limit) noexcept { node_limit_ = limit; }

 private:
  enum class Op : std::uint8_t {
    kUnion,
    kIntersection,
    kProduct,
    kWithout,
    kMinimal
  };

  Ref make(int var, Ref low, Ref high);

  /// Level of a node's decision variable; terminals sort below everything.
  int node_level(Ref a) const noexcept;
  int var_level(int var) const noexcept;

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

  static constexpr std::size_t kDefaultReorderThreshold = 4096;

  std::vector<Node> nodes_;
  std::unordered_map<UniqueKey, Ref, UniqueHash> unique_;
  std::unordered_map<OpKey, Ref, OpHash> cache_;
  std::vector<int> level_of_;      ///< level_of_[var]; declaration order start
  std::vector<int> var_at_level_;  ///< inverse of level_of_
  /// Every allocated (not yet collected) ref whose node decides this
  /// variable -- the swap primitive's per-level worklist.
  std::vector<std::vector<Ref>> var_refs_;
  std::vector<Ref> free_;          ///< collected slots awaiting reuse
  int var_count_ = 0;
  Budget* budget_ = nullptr;       ///< not owned
  std::size_t node_limit_ = 0;
  bool in_swap_ = false;           ///< swap rewrite in progress: no interrupts
  bool auto_reorder_ = false;
  bool reorder_pending_ = false;
  std::size_t reorder_threshold_ = kDefaultReorderThreshold;
};

}  // namespace ftsynth
