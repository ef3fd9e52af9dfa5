#include "fta/synthesis.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/error.h"
#include "core/parallel.h"
#include "core/strings.h"
#include "core/thread_pool.h"
#include "failure/expr_parser.h"
#include "fta/simplify.h"

namespace ftsynth {

namespace {

/// Memoisation / cycle-detection key: one traversal target.
struct Key {
  const Port* port;
  ChannelRange range;  // always concrete
  FailureClass cls;

  friend bool operator==(const Key& a, const Key& b) noexcept {
    return a.port == b.port && a.range == b.range && a.cls == b.cls;
  }
};

struct KeyHash {
  std::size_t operator()(const Key& k) const noexcept {
    std::size_t h = std::hash<const void*>{}(k.port);
    h = h * 1000003u ^ static_cast<std::size_t>(k.range.lo + 1);
    h = h * 1000003u ^ static_cast<std::size_t>(k.range.hi + 1);
    h = h * 1000003u ^ k.cls.hash();
    return h;
  }
};

/// Dense per-Run number of a Key: the index of its Target.
using Id = std::uint32_t;

/// One synthesise() invocation. Builds a single FaultTree.
///
/// FtNode* result semantics throughout: nullptr == the deviation cannot
/// occur (constant false); a kHouse node == constant true; anything else is
/// a proper event.
class Run {
 public:
  Run(const Model& model, const SynthesisOptions& options,
      SynthesisStats& stats, FaultTree& tree)
      : model_(model),
        options_(options),
        stats_(stats),
        tree_(tree),
        budget_(options.budget),
        omission_(model.registry().omission()) {}

  /// Entry point: resolve a deviation at a boundary output of `subsystem`
  /// (used for the model root, and internally when crossing nested
  /// subsystem boundaries).
  FtNode* resolve_subsystem_output(const Block& subsystem, const Port& port,
                                   ChannelRange range, FailureClass cls) {
    // Inner propagation: through the Outport proxy of the same name.
    const Block* proxy = subsystem.find_child(port.name());
    const bool is_proxy =
        proxy != nullptr && proxy->kind() == BlockKind::kOutport;
    const Port* proxy_input = is_proxy ? sole_input(*proxy) : nullptr;
    if (options_.sink != nullptr && proxy_input == nullptr) {
      // Partial model (recovered parse): the proxy is missing or mangled.
      return degraded(Deviation{cls, port.name()}, subsystem.path(),
                      "missing Outport proxy for " + port.qualified_name());
    }
    if (!is_proxy) {
      fail(ErrorKind::kInternal,
           "missing Outport proxy for " + port.qualified_name());
    }
    check_internal(proxy_input != nullptr, "malformed Outport proxy");
    FtNode* inner = resolve_input(*proxy_input, range, cls);

    // Enclosing-level (hardware / environment) common cause: Figure 3.
    FtNode* common = nullptr;
    if (options_.subsystem_common_cause) {
      bool any_row = false;
      common = convert_rows(subsystem, Deviation{cls, port.name()}, any_row);
    }
    FtNode* const pair[] = {inner, common};
    return make_or(pair, [&] { return describe(cls, port.name(), subsystem); });
  }

 private:
  // -- Gate construction (nullptr = false, kHouse = true) ---------------------

  static bool is_house(const FtNode* node) noexcept {
    return node != nullptr && node->kind() == NodeKind::kHouse;
  }

  FtNode* house() {
    static const Symbol kAlways("always");
    if (FtNode* existing = existing_leaf(kAlways, NodeKind::kHouse))
      return existing;
    return tree_.add_house(kAlways, "condition fixed true");
  }

  /// A frame of the operand stack the recursive converters share: a
  /// converter pushes its children's results above the stack's size at
  /// construction and builds its gate from view(); the destructor truncates
  /// back. Frames nest strictly, so no converter allocates a child list.
  /// Never hold a view() across a push: the stack may reallocate.
  class Operands {
   public:
    explicit Operands(std::vector<FtNode*>& stack)
        : stack_(stack), base_(stack.size()) {}
    Operands(const Operands&) = delete;
    Operands& operator=(const Operands&) = delete;
    ~Operands() { stack_.resize(base_); }

    void push(FtNode* node) { stack_.push_back(node); }
    std::size_t size() const noexcept { return stack_.size() - base_; }
    FtNode* operator[](std::size_t i) const noexcept {
      return stack_[base_ + i];
    }
    std::span<FtNode* const> view() const noexcept {
      return {stack_.data() + base_, size()};
    }

   private:
    std::vector<FtNode*>& stack_;
    std::size_t base_;
  };

  // The gate builders take a describer, a callable returning the gate's
  // description, and call it only when they really add a gate: most calls
  // collapse to a single child or a constant.

  template <class Describe>
  FtNode* make_or(std::span<FtNode* const> children, Describe&& describe) {
    FtNode* single = nullptr;
    std::size_t distinct = 0;
    for (std::size_t i = 0; i < children.size(); ++i) {
      FtNode* child = children[i];
      if (child == nullptr) continue;
      if (is_house(child)) return child;
      if (!seen_before(children, i)) {
        single = child;
        ++distinct;
      }
    }
    if (distinct <= 1) return single;
    return tree_.add_gate(GateKind::kOr, describe(),
                          distinct_children(children, distinct));
  }

  template <class Describe>
  FtNode* make_and(std::span<FtNode* const> children, Describe&& describe) {
    FtNode* single = nullptr;
    std::size_t distinct = 0;
    for (std::size_t i = 0; i < children.size(); ++i) {
      FtNode* child = children[i];
      if (child == nullptr) return nullptr;
      if (is_house(child)) continue;
      if (!seen_before(children, i)) {
        single = child;
        ++distinct;
      }
    }
    if (distinct == 0) return house();
    if (distinct == 1) return single;
    return tree_.add_gate(GateKind::kAnd, describe(),
                          distinct_children(children, distinct));
  }

  template <class Describe>
  FtNode* make_not(FtNode* child, Describe&& describe) {
    if (child == nullptr) return house();
    if (is_house(child)) return nullptr;
    return tree_.add_gate(GateKind::kNot, describe(), {child});
  }

  /// True when children[i] already occurs in children[0, i).
  static bool seen_before(std::span<FtNode* const> children, std::size_t i) {
    const auto end = children.begin() + static_cast<std::ptrdiff_t>(i);
    return std::find(children.begin(), end, children[i]) != end;
  }

  /// The `count` distinct proper children (no null, no house) in first
  /// occurrence order: a gate's child list.
  static std::vector<FtNode*> distinct_children(
      std::span<FtNode* const> children, std::size_t count) {
    std::vector<FtNode*> kept;
    kept.reserve(count);
    for (std::size_t i = 0; i < children.size(); ++i) {
      if (children[i] != nullptr && !is_house(children[i]) &&
          !seen_before(children, i))
        kept.push_back(children[i]);
    }
    return kept;
  }

  /// "<Class>-<port> at <block path>", the description of a deviation's
  /// gate, in pieces.
  static std::array<std::string_view, 5> description_parts(
      FailureClass cls, Symbol port, const Block& where) noexcept {
    return {cls.view(), "-", port.view(), " at ", where.path()};
  }

  static std::string describe(FailureClass cls, Symbol port,
                              const Block& where) {
    return concat(description_parts(cls, port, where));
  }

  /// describe(cls, port, where) == text, without building the former.
  static bool describes(std::string_view text, FailureClass cls, Symbol port,
                        const Block& where) {
    for (std::string_view part : description_parts(cls, port, where)) {
      if (text.substr(0, part.size()) != part) return false;
      text.remove_prefix(part.size());
    }
    return text.empty();
  }

  // -- Leaves -----------------------------------------------------------------

  /// Interns the concatenation of `parts`, built in a reused buffer: a name
  /// already interned allocates nothing.
  Symbol name_of(std::initializer_list<std::string_view> parts) {
    name_buffer_.clear();
    for (std::string_view part : parts) name_buffer_ += part;
    return Symbol(name_buffer_);
  }

  /// The leaf FaultTree::add_<kind>(name, ...) would return unchanged, or
  /// nullptr: a repeated leaf's description and origin are never built.
  FtNode* existing_leaf(Symbol name, NodeKind kind) const {
    FtNode* existing = tree_.find_event(name);
    // add_basic rejects a name taken by another kind; let it say so.
    if (existing != nullptr && kind == NodeKind::kBasic &&
        existing->kind() != kind)
      return nullptr;
    return existing;
  }

  /// The single input of a proxy, demux or store writer, or nullptr when it
  /// has none or several (a partial model).
  static const Port* sole_input(const Block& block) noexcept {
    const Port* input = nullptr;
    for (const auto& port : block.ports()) {
      if (!port->is_input()) continue;
      if (input != nullptr) return nullptr;
      input = port.get();
    }
    return input;
  }

  // -- Degraded mode and resource budget ---------------------------------------

  /// Degraded-mode cut: records a warning diagnostic and stands in an
  /// explicitly-marked undeveloped event for the unresolvable deviation.
  /// Only called when options_.sink is set.
  FtNode* degraded(const Deviation& deviation, const std::string& where,
                   const std::string& why) {
    ++stats_.degraded;
    ++unreplayable_;  // its warning must be re-raised by every expansion
    options_.sink->warning(ErrorKind::kAnalysis,
                           deviation.to_string() + " left undeveloped: " + why,
                           {}, where);
    return tree_.add_undeveloped(
        Symbol("und:" + deviation.to_string() + "@" + where),
        deviation.to_string() + " at " + where + " left undeveloped (" + why +
            ")",
        where);
  }

  /// Budget cut: the traversal hit a resource limit. The cut point becomes
  /// a distinct "und:budget:" undeveloped leaf so truncated regions are
  /// visible in the tree; the (first) violation is reported once.
  FtNode* budget_cut(const Port& port, FailureClass cls, const char* why,
                     bool& flag) {
    ++unreplayable_;
    if (!flag) {
      flag = true;
      if (options_.sink != nullptr) {
        options_.sink->warning(
            ErrorKind::kAnalysis,
            std::string("synthesis ") + why +
                "; the fault tree is truncated at marked undeveloped events",
            {}, port.owner().path());
      }
    }
    const Deviation d{cls, port.name()};
    return tree_.add_undeveloped(
        Symbol("und:budget:" + d.to_string() + "@" + port.owner().path()),
        d.to_string() + " truncated at " + port.owner().path() + " (" + why +
            ")",
        port.owner().path());
  }

  // -- Expression conversion ---------------------------------------------------

  /// Converts a local failure expression of `block` into fault tree nodes:
  /// malfunctions become basic events, input deviations recurse upstream.
  FtNode* convert(const Expr& expr, const Block& block) {
    switch (expr.op()) {
      case ExprOp::kFalse:
        return nullptr;
      case ExprOp::kTrue:
        return house();
      case ExprOp::kMalfunction: {
        const Symbol malfunction = expr.malfunction();
        const Symbol name = name_of({block.path(), ".", malfunction.view()});
        if (FtNode* existing = existing_leaf(name, NodeKind::kBasic))
          return existing;
        double rate = 0.0;
        std::string description;
        if (auto found = block.annotation().find_malfunction(malfunction)) {
          rate = found->rate;
          description = std::move(found->description);
        }
        if (description.empty())
          description = "malfunction of " + block.path();
        return tree_.add_basic(name, rate, std::move(description),
                               block.path());
      }
      case ExprOp::kDeviation: {
        const Deviation& d = expr.deviation();
        const Port* port = block.find_port(d.port);
        if (port == nullptr || !port->is_input()) {
          const std::string why =
              port == nullptr
                  ? "cause expression references unknown port '" +
                        d.port.str() + "'"
                  : "cause expression references non-input deviation " +
                        d.to_string();
          if (options_.sink != nullptr) return degraded(d, block.path(), why);
          require(port != nullptr, ErrorKind::kLookup,
                  "block '" + block.path() + "' has no port '" +
                      d.port.str() + "'");
          throw Error(ErrorKind::kAnalysis, "cause expression of '" +
                                                block.path() +
                                                "' references non-input "
                                                "deviation " +
                                                d.to_string());
        }
        return resolve_input(*port, ChannelRange::whole(), d.failure_class);
      }
      case ExprOp::kNot:
        return make_not(convert(*expr.children().front(), block),
                        [&] { return "NOT at " + block.path(); });
      case ExprOp::kAtLeast: {
        // Expand the k-of-N vote into the OR of all k-subsets; every
        // downstream engine then works unchanged. N is the handful of
        // redundant channels a voter sees, so C(N, k) stays small.
        Operands resolved(operands_);
        for (const ExprPtr& child : expr.children())
          resolved.push(convert(*child, block));
        const int n = static_cast<int>(resolved.size());
        const int k = expr.threshold();
        Operands alternatives(operands_);
        std::vector<FtNode*> conjuncts;  // the k-subset being built
        auto choose = [&](auto&& self, int start) -> void {
          const int picked = static_cast<int>(conjuncts.size());
          if (picked == k) {
            alternatives.push(make_and(conjuncts, [&] {
              return std::to_string(k) + "-of-" + std::to_string(n) + " at " +
                     block.path();
            }));
            return;
          }
          for (int i = start; i <= n - (k - picked); ++i) {
            conjuncts.push_back(resolved[static_cast<std::size_t>(i)]);
            self(self, i + 1);
            conjuncts.pop_back();
          }
        };
        choose(choose, 0);
        return make_or(alternatives.view(),
                       [&] { return "vote causes at " + block.path(); });
      }
      case ExprOp::kAnd:
      case ExprOp::kOr: {
        Operands children(operands_);
        for (const ExprPtr& child : expr.children())
          children.push(convert(*child, block));
        auto description = [&] { return "causes at " + block.path(); };
        return expr.op() == ExprOp::kAnd
                   ? make_and(children.view(), description)
                   : make_or(children.view(), description);
      }
    }
    throw Error(ErrorKind::kInternal, "corrupt ExprOp in synthesis");
  }

  /// Converts every annotation row of `block` explaining `deviation`,
  /// OR-ing the rows together. Data-dependent rows (condition probability
  /// below 1, the paper's stuck-register discussion) are AND-ed with a
  /// fixed-probability condition event. Returns nullptr with any_row=false
  /// when no row matches.
  FtNode* convert_rows(const Block& block, const Deviation& deviation,
                       bool& any_row) {
    any_row = false;
    Operands alternatives(operands_);
    const std::vector<AnnotationRow>& rows = block.annotation().rows();
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const AnnotationRow& row = rows[i];
      if (!(row.output == deviation)) continue;
      any_row = true;
      FtNode* node = convert(*row.cause, block);
      if (row.condition_probability < 1.0) {
        FtNode* condition = tree_.add_basic(
            Symbol(condition_event_name(block, deviation, i)), 0.0,
            row.description.empty()
                ? "data condition enabling " + deviation.to_string()
                : row.description,
            block.path());
        condition->set_fixed_probability(row.condition_probability);
        FtNode* const pair[] = {node, condition};
        node = make_and(pair, [&] {
          return describe(deviation.failure_class, deviation.port, block) +
                 " [data-dependent]";
        });
      }
      alternatives.push(node);
    }
    if (!any_row) return nullptr;
    return make_or(alternatives.view(), [&] {
      return describe(deviation.failure_class, deviation.port, block);
    });
  }

  // -- Backward traversal ------------------------------------------------------

  /// Resolves a deviation to be observed at input port `port`: follows the
  /// connection feeding it (or reports an environment event at the model
  /// boundary).
  FtNode* resolve_input(const Port& port, ChannelRange range,
                        FailureClass cls) {
    const Block& owner = port.owner();
    const Block* parent = owner.parent();
    if (parent == nullptr) {
      // Boundary input of the model root: the deviation originates in the
      // environment (sensor stimulus, pedal demand, ...).
      if (options_.environment ==
          SynthesisOptions::EnvironmentPolicy::kPrune)
        return nullptr;
      const Symbol name =
          name_of({"env:", cls.view(), "-", port.name().view()});
      if (FtNode* existing = existing_leaf(name, NodeKind::kBasic))
        return existing;
      const Deviation d{cls, port.name()};
      return tree_.add_basic(name, 0.0,
                             d.to_string() + " at the system boundary",
                             owner.path());
    }
    // connect() keeps each subsystem's input -> connection index, and every
    // connection joins children of the subsystem holding it.
    const Connection* connection = parent->connection_into(port);
    if (connection == nullptr) {
      // Validation normally rejects this; keep the synthesis total anyway.
      const Symbol name = name_of(
          {"und:", cls.view(), "-", port.name().view(), "@", owner.path()});
      if (FtNode* existing = existing_leaf(name, NodeKind::kUndeveloped))
        return existing;
      const Deviation d{cls, port.name()};
      return tree_.add_undeveloped(
          name, d.to_string() + " on unconnected input", owner.path());
    }
    return resolve_output(*connection->from, range, cls);
  }

  struct Replay;

  /// Traversal state of one (port, channels, class) target.
  struct Target {
    FtNode* memo = nullptr;  ///< the result, once `memoised`
    bool memoised = false;
    std::size_t stack_slot = kOffStack;  ///< position on stack_
    const Replay* replay = nullptr;      ///< latest recorded tainted result
  };
  static constexpr std::size_t kOffStack = SIZE_MAX;

  /// The target's dense id: the one hash lookup of a resolution.
  Id intern(const Key& key) {
    const auto [it, inserted] =
        ids_.try_emplace(key, static_cast<Id>(targets_.size()));
    if (inserted) targets_.emplace_back();
    return it->second;
  }

  void mark_memoised(const FtNode* node) {
    const auto id = static_cast<std::size_t>(node->id());
    if (id >= memoised_nodes_.size()) memoised_nodes_.resize(id + 1, false);
    memoised_nodes_[id] = true;
  }

  bool is_memoised(const FtNode* node) const {
    const auto id = static_cast<std::size_t>(node->id());
    return id < memoised_nodes_.size() && memoised_nodes_[id];
  }

  /// Resolves a deviation at output port `port` against the block producing
  /// it. Memoised; cycles are cut here; loop-tainted results are replayed.
  FtNode* resolve_output(const Port& port, ChannelRange range,
                         FailureClass cls) {
    // Resource guards: a deadline or depth violation cuts the traversal
    // with a marked undeveloped leaf instead of running away (or blowing
    // the stack). Cut results are never memoised -- they bypass the memo
    // entirely.
    if (budget_.poll()) {
      return budget_cut(port, cls, "exceeded its deadline",
                        stats_.budget.deadline_exceeded);
    }
    if (stack_.size() >= budget_.max_depth) {
      return budget_cut(port, cls, "hit the traversal depth limit",
                        stats_.budget.depth_limited);
    }
    if (budget_.max_nodes != 0 && tree_.nodes().size() >= budget_.max_nodes) {
      return budget_cut(port, cls, "hit the fault-tree node ceiling",
                        stats_.budget.truncated);
    }

    const ChannelRange concrete = range.concrete(port.width());
    const Id id = intern(Key{&port, concrete, cls});
    ++stats_.resolutions;
    deepest_ = std::max(deepest_, stack_.size());

    if (options_.memoise && targets_[id].memoised) {
      ++stats_.cache_hits;
      return targets_[id].memo;
    }
    if (const std::size_t slot = targets_[id].stack_slot; slot != kOffStack) {
      // Feedback loop: cut at the repeated target.
      ++stats_.loops_cut;
      taint_floor_ = std::min(taint_floor_, slot);
      if (options_.memoise) log_.push_back({id, slot, nullptr});
      if (options_.loops == SynthesisOptions::LoopPolicy::kPrune)
        return nullptr;
      const Symbol name = name_of({"loop:", cls.view(), "-",
                                   port.name().view(), "@",
                                   port.owner().path()});
      if (FtNode* existing = existing_leaf(name, NodeKind::kLoop))
        return existing;
      const Deviation d{cls, port.name()};
      return tree_.add_loop(
          name, d.to_string() + " feeds back to itself through a control loop",
          port.owner().path());
    }
    if (options_.memoise) {
      if (const Replay* entry = targets_[id].replay;
          entry != nullptr && replayable(*entry)) {
        ++stats_.cache_hits;
        return replay(*entry);
      }
    }

    const std::size_t index = stack_.size();
    stack_.push_back(id);
    targets_[id].stack_slot = index;
    const std::size_t log_start = log_.size();
    const std::size_t deepest_before = std::exchange(deepest_, index);
    const std::size_t loops_before = stats_.loops_cut;
    const std::size_t unreplayable_before = unreplayable_;
    const bool entry_tainted = taint_floor_ != SIZE_MAX;

    FtNode* result = resolve_output_uncached(port, concrete, cls);

    stack_.pop_back();
    targets_[id].stack_slot = kOffStack;
    const bool tainted = index >= taint_floor_;
    if (stack_.size() <= taint_floor_) taint_floor_ = SIZE_MAX;
    const Replay* entry = nullptr;
    if (options_.memoise && !tainted) {
      targets_[id].memo = result;
      targets_[id].memoised = true;
      if (result != nullptr) mark_memoised(result);
    } else if (options_.memoise && unreplayable_ == unreplayable_before) {
      Replay* recorded = record(id, result, log_start, index);
      recorded->entry_tainted = entry_tainted;
      recorded->depth = deepest_ - index;
      recorded->loops_cut = stats_.loops_cut - loops_before;
      targets_[id].replay = recorded;
      entry = recorded;
    }
    deepest_ = std::max(deepest_before, deepest_);
    // The frame's facts collapse into its record. A memoised result has no
    // outside dependency, and an unrecorded one leaves every enclosing
    // frame unrecordable too.
    log_.resize(log_start);
    if (entry != nullptr) summarise(*entry);
    return result;
  }

  // -- Exact replay of loop-tainted resolutions --------------------------------
  //
  // A tainted result depends on where it was computed, so it is never
  // memoised. It is, however, a deterministic function of what the
  // traversal met below its frame: the targets it cut at on the stack
  // outside the frame, the targets it expanded without memoising, whether
  // it was entered with a taint already pending, and how deep it went.
  // When all of those read the same again, re-expansion would retrace the
  // same path and build an isomorphic subgraph over the same leaves and
  // memoised nodes, so the recorded result stands in for it and its effects
  // (taint floor, loop count, dependencies) are replayed into the enclosing
  // frames. A result re-expansion would build afresh comes back as a fresh
  // gate over the recorded children; one it would merely pass through (a
  // leaf, a memoised node) comes back as the same pointer. Callers'
  // duplicate elimination and in-place extension then see what they saw
  // before, and the deduplicated tree is byte-identical.

  /// One recorded tainted resolution. The targets it expanded without
  /// memoising are `key` plus those of the `nested` records, transitively:
  /// records form a DAG, so the dependencies of a loop region are stored
  /// once however many frames enclose it.
  struct Replay {
    std::size_t serial;  ///< creation order: a pointer-free sort key
    Id key;
    FtNode* shared = nullptr;  ///< result re-expansion returns as is
    GateKind gate = GateKind::kOr;  ///< else a fresh gate, as it completed
    std::string description;
    std::vector<FtNode*> children;  ///< empty: the result is `shared`
    std::vector<Id> cuts;  ///< cut at below the frame: must be on the stack
    std::vector<const Replay*> nested;  ///< tainted resolutions directly inside
    bool entry_tainted = false;
    std::size_t depth = 0;      ///< deepest stack slot reached, frame-relative
    std::size_t loops_cut = 0;  ///< stats_.loops_cut delta
    mutable std::size_t visited = 0;  ///< replayable() walk stamp
  };

  /// Dependency log of the open frames: a loop cut at the target on stack
  /// slot `cut_index`, or a tainted resolution `nested` that completed or
  /// was replayed. Each frame owns the slice appended while it was open;
  /// on return the slice is replaced by the frame's own summary, so a
  /// slice holds only direct facts and the log empties with the stack.
  struct Fact {
    Id key;
    std::size_t cut_index;
    const Replay* nested;
  };

  Replay* record(Id key, FtNode* result, std::size_t log_start,
                 std::size_t index) {
    records_.push_back(std::make_unique<Replay>());
    Replay& entry = *records_.back();
    entry.serial = records_.size();
    entry.key = key;
    if (result != nullptr && result->kind() == NodeKind::kGate &&
        !is_memoised(result)) {
      // A gate this expansion built. Snapshot it now: a consumer may still
      // extend or relabel it.
      entry.gate = result->gate();
      entry.description = result->description();
      entry.children = result->children();
    } else {
      // Null, a leaf (interned by name) or a memoised node passed through:
      // every expansion returns this very pointer.
      entry.shared = result;
    }
    // Gathered in reused buffers, then copied at their final size: records
    // live as long as the run.
    std::vector<Id>& cuts = cuts_buffer_;
    std::vector<const Replay*>& nested = nested_buffer_;
    cuts.clear();
    nested.clear();
    for (std::size_t i = log_start; i < log_.size(); ++i) {
      const Fact& fact = log_[i];
      if (fact.nested != nullptr) {
        nested.push_back(fact.nested);
      } else if (fact.cut_index < index &&
                 std::find(cuts.begin(), cuts.end(), fact.key) == cuts.end()) {
        cuts.push_back(fact.key);
      }
    }
    // Creation order, not address order: replayable() then walks the same
    // way on every run.
    std::sort(nested.begin(), nested.end(),
              [](const Replay* a, const Replay* b) {
                return a->serial < b->serial;
              });
    entry.cuts.assign(cuts.begin(), cuts.end());
    entry.nested.assign(nested.begin(),
                        std::unique(nested.begin(), nested.end()));
    return &entry;
  }

  /// Appends what an enclosing frame must know of `entry`, which just
  /// completed or was replayed: its cuts below (all on the stack) and
  /// itself.
  void summarise(const Replay& entry) {
    if (stack_.empty()) return;  // no enclosing frame
    for (Id cut : entry.cuts)
      log_.push_back({cut, targets_[cut].stack_slot, nullptr});
    log_.push_back({entry.key, 0, &entry});
  }

  /// True when expanding the entry's target here would take the recorded
  /// path (the target itself is known to be neither memoised nor on the
  /// stack).
  bool replayable(const Replay& entry) {
    if (entry.entry_tainted != (taint_floor_ != SIZE_MAX)) return false;
    if (stack_.size() + entry.depth >= budget_.max_depth) return false;
    for (Id key : entry.cuts) {
      if (targets_[key].stack_slot == kOffStack) return false;
    }
    // Every tainted resolution inside must be expanded again: its target
    // neither on the stack (it would be cut) nor memoised (it would hit).
    ++walk_;
    std::vector<const Replay*>& pending = pending_;
    pending.assign(entry.nested.begin(), entry.nested.end());
    while (!pending.empty()) {
      const Replay* nested = pending.back();
      pending.pop_back();
      if (nested->visited == walk_) continue;
      nested->visited = walk_;
      const Target& target = targets_[nested->key];
      if (target.stack_slot != kOffStack || target.memoised) return false;
      pending.insert(pending.end(), nested->nested.begin(),
                     nested->nested.end());
    }
    return true;
  }

  FtNode* replay(const Replay& entry) {
    for (Id cut : entry.cuts)
      taint_floor_ = std::min(taint_floor_, targets_[cut].stack_slot);
    stats_.loops_cut += entry.loops_cut;
    deepest_ = std::max(deepest_, stack_.size() + entry.depth);
    summarise(entry);
    if (entry.children.empty()) return entry.shared;
    return tree_.add_gate(entry.gate, entry.description, entry.children);
  }

  FtNode* resolve_output_uncached(const Port& port, ChannelRange range,
                                  FailureClass cls) {
    const Block& block = port.owner();
    switch (block.kind()) {
      case BlockKind::kBasic:
        return resolve_basic(block, port, cls);
      case BlockKind::kSubsystem:
        return resolve_subsystem_output(block, port, range, cls);
      case BlockKind::kInport: {
        // Proxy inside a subsystem: continue from the subsystem's own
        // boundary input port of the same name (connected in the
        // grandparent, or the environment at the root).
        const Block* subsystem = block.parent();
        check_internal(subsystem != nullptr, "Inport proxy without parent");
        return resolve_input(subsystem->port(block.name()), range, cls);
      }
      case BlockKind::kMux:
        return resolve_mux(block, port, range, cls);
      case BlockKind::kDemux:
        return resolve_demux(block, port, range, cls);
      case BlockKind::kDataStoreRead:
        return resolve_store_read(block, cls);
      case BlockKind::kGround:
        return nullptr;  // a grounded flow never deviates
      case BlockKind::kOutport:
      case BlockKind::kDataStoreWrite:
        break;  // have no output ports; unreachable on valid models
    }
    throw Error(ErrorKind::kInternal,
                "resolve_output on block kind without outputs: " +
                    block.path());
  }

  FtNode* resolve_basic(const Block& block, const Port& port,
                        FailureClass cls) {
    const Deviation deviation{cls, port.name()};
    const int first_id = static_cast<int>(tree_.nodes().size());
    bool explained = false;
    FtNode* node = convert_rows(block, deviation, explained);

    // Only a gate this frame built and nothing else references is ours to
    // relabel and extend in place: one created before the frame, or a
    // memoised result (even one computed inside it), is shared with other
    // parents. A replayed result is a fresh gate, so it stays ours exactly
    // when re-expansion would have built it here.
    const bool owned_gate = node != nullptr &&
                            node->kind() == NodeKind::kGate &&
                            node->id() >= first_id && !is_memoised(node);
    const bool owned_or_gate =
        owned_gate && node->gate() == GateKind::kOr &&
        (node->description().starts_with("causes at") ||
         describes(node->description(), cls, port.name(), block));

    // Triggered blocks: loss of the control signal silences every output.
    if (options_.trigger_omission && cls == omission_) {
      if (const Port* trigger = block.trigger()) {
        FtNode* trigger_loss =
            resolve_input(*trigger, ChannelRange::whole(), omission_);
        if (owned_or_gate && trigger_loss != nullptr &&
            !is_house(trigger_loss)) {
          node->add_child(trigger_loss);
        } else {
          FtNode* const pair[] = {node, trigger_loss};
          node = make_or(pair,
                         [&] { return describe(cls, port.name(), block); });
        }
        explained = true;
      }
    }
    if (explained) {
      if (owned_gate && node->description().starts_with("causes at")) {
        node->set_description(describe(cls, port.name(), block));
      }
      return node;
    }

    // No annotation row explains this deviation.
    switch (options_.unannotated) {
      case SynthesisOptions::UnannotatedPolicy::kPrune:
        return nullptr;
      case SynthesisOptions::UnannotatedPolicy::kError:
        if (options_.sink != nullptr) {
          return degraded(deviation, block.path(),
                          "no hazard-analysis row covers it");
        }
        throw Error(ErrorKind::kAnalysis,
                    "component '" + block.path() +
                        "' has no hazard-analysis row for " +
                        deviation.to_string());
      case SynthesisOptions::UnannotatedPolicy::kPropagate: {
        Operands children(operands_);
        for (const auto& input : block.ports()) {
          if (!input->is_input() || input->is_trigger()) continue;
          children.push(resolve_input(*input, ChannelRange::whole(), cls));
        }
        if (children.size() == 0) break;  // a source block: fall through
        return make_or(children.view(),
                       [&] { return describe(cls, port.name(), block); });
      }
      case SynthesisOptions::UnannotatedPolicy::kUndeveloped:
        break;
    }
    const Symbol name = name_of(
        {"und:", cls.view(), "-", port.name().view(), "@", block.path()});
    if (FtNode* existing = existing_leaf(name, NodeKind::kUndeveloped))
      return existing;
    return tree_.add_undeveloped(
        name,
        deviation.to_string() + " not covered by the hazard analysis of " +
            block.path(),
        block.path());
  }

  FtNode* resolve_mux(const Block& block, const Port& port, ChannelRange range,
                      FailureClass cls) {
    // A deviation on a slice of the muxed flow is a deviation on any
    // overlapped constituent flow.
    const ChannelRange r = range.concrete(port.width());
    Operands children(operands_);
    int offset = 0;
    for (const auto& input : block.ports()) {
      if (!input->is_input()) continue;
      const int lo = std::max(r.lo, offset);
      const int hi = std::min(r.hi, offset + input->width());
      if (lo < hi) {
        children.push(resolve_input(
            *input, ChannelRange::slice(lo - offset, hi - offset), cls));
      }
      offset += input->width();
    }
    return make_or(children.view(), [&] {
      return describe(cls, port.name(), block) + " [channels " +
             r.to_string() + "]";
    });
  }

  FtNode* resolve_demux(const Block& block, const Port& port,
                        ChannelRange range, FailureClass cls) {
    const ChannelRange r = range.concrete(port.width());
    int offset = 0;
    for (const auto& output : block.ports()) {
      if (!output->is_output()) continue;
      if (output.get() == &port) break;
      offset += output->width();
    }
    const Port* input = sole_input(block);
    if (options_.sink != nullptr && input == nullptr) {
      // Partial model: the demux lost its input port during recovery.
      return degraded(Deviation{cls, port.name()}, block.path(),
                      "malformed Demux (expected exactly one input)");
    }
    check_internal(input != nullptr, "malformed demux");
    return resolve_input(*input,
                         ChannelRange::slice(offset + r.lo, offset + r.hi),
                         cls);
  }

  FtNode* resolve_store_read(const Block& block, FailureClass cls) {
    // Data-Store read/write pairs communicate remotely without explicit
    // links (paper, section 3): trace every writer of the store.
    const std::vector<const Block*>& writers = writers_of(block.store_name());
    if (writers.empty()) {
      const Symbol name = name_of(
          {"und:store:", block.store_name().view(), ":", cls.view(), "-out"});
      if (FtNode* existing = existing_leaf(name, NodeKind::kUndeveloped))
        return existing;
      return tree_.add_undeveloped(
          name,
          "store '" + block.store_name().str() + "' read by " + block.path() +
              " is never written",
          block.path());
    }
    Operands children(operands_);
    for (const Block* writer : writers) {
      const Port* input = sole_input(*writer);
      if (options_.sink != nullptr && input == nullptr) {
        children.push(degraded(Deviation{cls, Symbol("in")}, writer->path(),
                               "malformed DataStoreWrite"));
        continue;
      }
      check_internal(input != nullptr, "malformed DataStoreWrite");
      children.push(resolve_input(*input, ChannelRange::whole(), cls));
    }
    return make_or(children.view(), [&] {
      return std::string(cls.view()) + " of data store '" +
             block.store_name().str() + "'";
    });
  }

  /// The DataStoreWrite blocks of `store`, in model preorder. The table is
  /// built when the traversal first meets a DataStoreRead: most never do.
  const std::vector<const Block*>& writers_of(Symbol store) {
    if (!writers_built_) {
      writers_built_ = true;
      model_.for_each_block([&](const Block& block) {
        if (block.kind() == BlockKind::kDataStoreWrite)
          writers_[block.store_name()].push_back(&block);
      });
    }
    static const std::vector<const Block*> kNone;
    auto it = writers_.find(store);
    return it == writers_.end() ? kNone : it->second;
  }

  const Model& model_;
  const SynthesisOptions& options_;
  SynthesisStats& stats_;
  FaultTree& tree_;
  Budget budget_;  ///< run-local copy: the deadline tick is per-traversal
  FailureClass omission_;

  std::unordered_map<Key, Id, KeyHash> ids_;
  std::vector<Target> targets_;  ///< by Id
  /// By tree node id: the node is some target's memoised result.
  std::vector<bool> memoised_nodes_;
  std::vector<std::unique_ptr<Replay>> records_;  ///< targets may drop them
  std::vector<Id> stack_;
  std::size_t taint_floor_ = SIZE_MAX;
  std::vector<Fact> log_;
  std::size_t deepest_ = 0;       ///< deepest stack slot a resolution reached
  std::size_t unreplayable_ = 0;  ///< degraded()/budget_cut() calls so far
  std::size_t walk_ = 0;          ///< replayable() walks so far
  std::vector<const Replay*> pending_;  ///< replayable()'s reused work list
  std::vector<Id> cuts_buffer_;                ///< record()'s reused buffers
  std::vector<const Replay*> nested_buffer_;
  std::vector<FtNode*> operands_;  ///< the Operands frames' shared stack
  std::string name_buffer_;  ///< name_of()'s reused buffer
  bool writers_built_ = false;
  std::unordered_map<Symbol, std::vector<const Block*>> writers_;
};

}  // namespace

std::string condition_event_name(const Block& block,
                                 const Deviation& deviation,
                                 std::size_t row_index) {
  return "cond:" + deviation.to_string() + "@" + block.path() + "#" +
         std::to_string(row_index);
}

Synthesiser::Synthesiser(const Model& model, SynthesisOptions options)
    : model_(model), options_(options) {}

FaultTree Synthesiser::synthesise(const Deviation& top) {
  const Block& root = model_.root();
  const Port* port = root.find_port(top.port);
  if (port == nullptr || !port->is_output()) {
    fail(ErrorKind::kLookup, "model '" + model_.name() +
                                 "' has no boundary output port '" +
                                 top.port.str() + "' for top event " +
                                 top.to_string());
  }

  stats_ = SynthesisStats{};
  FaultTree tree(model_.name() + "__" + top.to_string());
  tree.set_top_description(top.to_string() + " at " + model_.name());

  Run run(model_, options_, stats_, tree);
  FtNode* node = run.resolve_subsystem_output(root, *port,
                                              ChannelRange::whole(),
                                              top.failure_class);
  tree.set_top(node);
  if (options_.deduplicate) return deduplicate(tree);
  return tree;
}

FaultTree Synthesiser::synthesise(std::string_view top) {
  return synthesise(parse_deviation(top, model_.registry()));
}

std::vector<FaultTree> synthesise_parallel(const Model& model,
                                           const std::vector<Deviation>& tops,
                                           const SynthesisOptions& options,
                                           ThreadPool* pool) {
  // Per-iteration synthesiser: traversal state and stats are not shared;
  // the model is read-only and the budget copies share one deadline latch.
  return parallel_map(pool, tops.size(), [&](std::size_t index) {
    Synthesiser synthesiser(model, options);
    return synthesiser.synthesise(tops[index]);
  });
}

std::vector<FaultTree> synthesise_parallel(const Model& model,
                                           const std::vector<Deviation>& tops,
                                           SynthesisOptions options,
                                           int threads) {
  if (threads <= 0) threads = static_cast<int>(ThreadPool::hardware_threads());
  threads = std::min<int>(threads, static_cast<int>(tops.size()));
  if (threads <= 1) return synthesise_parallel(model, tops, options, nullptr);
  ThreadPool pool(threads);
  return synthesise_parallel(model, tops, options, &pool);
}

std::vector<FaultTree> Synthesiser::synthesise_all() {
  std::vector<FaultTree> trees;
  for (const Port* port : model_.root().outputs()) {
    for (FailureClass cls : model_.registry().all()) {
      FaultTree tree = synthesise(Deviation{cls, port->name()});
      if (tree.top() != nullptr) trees.push_back(std::move(tree));
    }
  }
  return trees;
}

}  // namespace ftsynth
