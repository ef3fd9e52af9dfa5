// Fault trees.
//
// The synthesis algorithm produces, for each hazardous deviation at a
// system output, a fault tree whose leaves are component malfunctions,
// environment deviations at the system boundary, and (optionally)
// undeveloped events. Structurally the tree is a rooted DAG: traversal
// results are memoised on (port, channels, failure class), so a shared
// cause -- a hardware common-cause failure, a shared bus -- appears as one
// node referenced from several gates. That sharing is exactly what lets
// cut-set analysis expose common-cause dependencies between nominally
// independent channels (paper, section 2).

#pragma once

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/symbol.h"
#include "failure/failure_class.h"

namespace ftsynth {

enum class NodeKind {
  kBasic,        ///< leaf: component malfunction or environment deviation
  kHouse,        ///< leaf: condition fixed true (from a `true` cause)
  kUndeveloped,  ///< leaf: cause not developed (unannotated component, ...)
  kLoop,         ///< leaf: cut point of a feedback loop (LoopPolicy::kEvent)
  kGate,         ///< intermediate event with a gate
};

enum class GateKind {
  kAnd,
  kOr,
  kNot,
  /// Priority-AND (Pandora lineage): every child occurs AND in
  /// left-to-right order. Children are ORDER-SIGNIFICANT; see
  /// analysis/temporal.h for quantification. The untimed engines
  /// (cut sets, BDD) treat kPand conservatively as kAnd.
  kPand,
};

std::string_view to_string(NodeKind kind) noexcept;
std::string_view to_string(GateKind kind) noexcept;

/// One node of a fault tree. Owned by the FaultTree arena; children are
/// non-owning pointers into the same arena (DAG: a node may have several
/// parents).
class FtNode {
 public:
  FtNode(int id, NodeKind kind, GateKind gate, Symbol name) noexcept
      : id_(id), kind_(kind), gate_(gate), name_(name) {}

  FtNode(const FtNode&) = delete;
  FtNode& operator=(const FtNode&) = delete;

  int id() const noexcept { return id_; }
  NodeKind kind() const noexcept { return kind_; }
  bool is_leaf() const noexcept { return kind_ != NodeKind::kGate; }

  /// Gate operator; only meaningful for kGate nodes.
  GateKind gate() const noexcept { return gate_; }

  const std::vector<FtNode*>& children() const noexcept { return children_; }
  void add_child(FtNode* child);

  /// Unique event name ("pedal/sensor1.stuck", "G17", "env:Omission-pedal").
  Symbol name() const noexcept { return name_; }

  /// Human-readable description ("Omission-out at bbw/pedal_node").
  const std::string& description() const noexcept { return description_; }
  void set_description(std::string text) { description_ = std::move(text); }

  /// Failure rate lambda in failures/hour; > 0 only on quantified kBasic
  /// leaves.
  double rate() const noexcept { return rate_; }
  void set_rate(double rate) noexcept { rate_ = rate; }

  /// Mission-time-independent probability (condition events from
  /// data-dependent annotation rows). Takes precedence over rate().
  bool has_fixed_probability() const noexcept {
    return fixed_probability_ >= 0.0;
  }
  double fixed_probability() const noexcept { return fixed_probability_; }
  void set_fixed_probability(double probability) noexcept {
    fixed_probability_ = probability;
  }

  /// Path of the model block this event originates from (leaves and gates).
  const std::string& origin() const noexcept { return origin_; }
  void set_origin(std::string origin) { origin_ = std::move(origin); }

 private:
  friend class FaultTree;  // add_gate hands its child list over whole

  int id_;
  NodeKind kind_;
  GateKind gate_;
  Symbol name_;
  std::vector<FtNode*> children_;
  std::string description_;
  double rate_ = 0.0;
  double fixed_probability_ = -1.0;
  std::string origin_;
};

/// Statistics of a tree, reported by benches and the paper-style reports.
struct FaultTreeStats {
  std::size_t node_count = 0;         ///< distinct nodes in the DAG
  std::size_t gate_count = 0;
  std::size_t basic_event_count = 0;  ///< distinct basic events
  std::size_t undeveloped_count = 0;
  std::size_t loop_count = 0;
  std::size_t expanded_size = 0;      ///< node count if sharing were copied out
  int depth = 0;                      ///< longest root-to-leaf path
};

/// A synthesized fault tree (DAG) for one top event.
class FaultTree {
 public:
  /// `name` labels the tree; `top_description` describes the top event.
  explicit FaultTree(std::string name);

  FaultTree(FaultTree&&) noexcept = default;
  FaultTree& operator=(FaultTree&&) noexcept = default;

  const std::string& name() const noexcept { return name_; }

  /// Top node. Null when synthesis proved the top event impossible (all
  /// causes pruned); analyses treat that as probability 0.
  FtNode* top() const noexcept { return top_; }
  void set_top(FtNode* node) noexcept { top_ = node; }

  /// Description of the top event ("Omission-brake_force at bbw").
  const std::string& top_description() const noexcept { return top_desc_; }
  void set_top_description(std::string text) { top_desc_ = std::move(text); }

  // -- Node creation (arena-owned) ---------------------------------------------

  /// Adds or returns the existing basic event with this name. Rate and
  /// description are set on first creation.
  FtNode* add_basic(Symbol name, double rate, std::string description,
                    std::string origin);
  FtNode* add_house(Symbol name, std::string description);
  FtNode* add_undeveloped(Symbol name, std::string description,
                          std::string origin);
  FtNode* add_loop(Symbol name, std::string description, std::string origin);
  FtNode* add_gate(GateKind kind, std::string description,
                   std::vector<FtNode*> children);

  /// Existing leaf with this name, or nullptr.
  FtNode* find_event(Symbol name) const noexcept;

  // -- Introspection -----------------------------------------------------------

  const std::vector<std::unique_ptr<FtNode>>& nodes() const noexcept {
    return nodes_;
  }

  /// All distinct basic events reachable from the top, in id order.
  std::vector<const FtNode*> basic_events() const;

  /// All distinct leaves (basic + house + undeveloped + loop) under the top.
  std::vector<const FtNode*> leaves() const;

  FaultTreeStats stats() const;

  /// Visits every node reachable from the top exactly once, children before
  /// parents (postorder over the DAG).
  void for_each_reachable(
      const std::function<void(const FtNode&)>& visit) const;

  /// Indented text rendering; shared subtrees are printed once and
  /// subsequently referenced as "^G7 (shared)".
  std::string to_text() const;

 private:
  FtNode* add_node(NodeKind kind, GateKind gate, Symbol name);

  std::string name_;
  std::string top_desc_;
  FtNode* top_ = nullptr;
  std::vector<std::unique_ptr<FtNode>> nodes_;
  std::unordered_map<Symbol, FtNode*> leaf_index_;
  int next_gate_number_ = 1;
};

}  // namespace ftsynth
