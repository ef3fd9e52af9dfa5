#include "fta/synthesis.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/error.h"
#include "core/parallel.h"
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
        omission_(model.registry().omission()) {
    // One model walk up front turns every per-port lookup into O(1); the
    // naive connection scan made synthesis quadratic on flat models.
    model_.for_each_block([&](const Block& block) {
      if (block.is_subsystem()) {
        for (const Connection& connection : block.connections())
          feed_.emplace(connection.to, &connection);
      }
      if (block.kind() == BlockKind::kDataStoreWrite)
        writers_[block.store_name()].push_back(&block);
    });
  }

  /// Entry point: resolve a deviation at a boundary output of `subsystem`
  /// (used for the model root, and internally when crossing nested
  /// subsystem boundaries).
  FtNode* resolve_subsystem_output(const Block& subsystem, const Port& port,
                                   ChannelRange range, FailureClass cls) {
    // Inner propagation: through the Outport proxy of the same name.
    const Block* proxy = subsystem.find_child(port.name());
    if (options_.sink != nullptr &&
        (proxy == nullptr || proxy->kind() != BlockKind::kOutport ||
         proxy->inputs().size() != 1)) {
      // Partial model (recovered parse): the proxy is missing or mangled.
      return degraded(Deviation{cls, port.name()}, subsystem.path(),
                      "missing Outport proxy for " + port.qualified_name());
    }
    check_internal(proxy != nullptr && proxy->kind() == BlockKind::kOutport,
                   "missing Outport proxy for " + port.qualified_name());
    std::vector<Port*> proxy_inputs = proxy->inputs();
    check_internal(proxy_inputs.size() == 1, "malformed Outport proxy");
    FtNode* inner = resolve_input(*proxy_inputs.front(), range, cls);

    // Enclosing-level (hardware / environment) common cause: Figure 3.
    FtNode* common = nullptr;
    if (options_.subsystem_common_cause) {
      bool any_row = false;
      common = convert_rows(subsystem, Deviation{cls, port.name()}, any_row);
    }
    return make_or({inner, common},
                   describe(cls, port.name(), subsystem.path()));
  }

 private:
  // -- Gate construction (nullptr = false, kHouse = true) ---------------------

  static bool is_house(const FtNode* node) noexcept {
    return node != nullptr && node->kind() == NodeKind::kHouse;
  }

  FtNode* house() {
    return tree_.add_house(Symbol("always"), "condition fixed true");
  }

  FtNode* make_or(std::vector<FtNode*> children, std::string description) {
    std::vector<FtNode*> kept;
    for (FtNode* child : children) {
      if (child == nullptr) continue;
      if (is_house(child)) return child;
      if (std::find(kept.begin(), kept.end(), child) == kept.end())
        kept.push_back(child);
    }
    if (kept.empty()) return nullptr;
    if (kept.size() == 1) return kept.front();
    return tree_.add_gate(GateKind::kOr, std::move(description),
                          std::move(kept));
  }

  FtNode* make_and(std::vector<FtNode*> children, std::string description) {
    std::vector<FtNode*> kept;
    for (FtNode* child : children) {
      if (child == nullptr) return nullptr;
      if (is_house(child)) continue;
      if (std::find(kept.begin(), kept.end(), child) == kept.end())
        kept.push_back(child);
    }
    if (kept.empty()) return house();
    if (kept.size() == 1) return kept.front();
    return tree_.add_gate(GateKind::kAnd, std::move(description),
                          std::move(kept));
  }

  FtNode* make_not(FtNode* child, std::string description) {
    if (child == nullptr) return house();
    if (is_house(child)) return nullptr;
    return tree_.add_gate(GateKind::kNot, std::move(description), {child});
  }

  static std::string describe(FailureClass cls, Symbol port,
                              const std::string& where) {
    return Deviation{cls, port}.to_string() + " at " + where;
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
        Symbol name = expr.malfunction();
        double rate = 0.0;
        std::string description;
        if (auto malfunction = block.annotation().find_malfunction(name)) {
          rate = malfunction->rate;
          description = malfunction->description;
        }
        if (description.empty())
          description = "malfunction of " + block.path();
        return tree_.add_basic(Symbol(block.path() + "." + name.str()), rate,
                               std::move(description), block.path());
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
                        "NOT at " + block.path());
      case ExprOp::kAtLeast: {
        // Expand the k-of-N vote into the OR of all k-subsets; every
        // downstream engine then works unchanged. N is the handful of
        // redundant channels a voter sees, so C(N, k) stays small.
        std::vector<FtNode*> resolved;
        resolved.reserve(expr.children().size());
        for (const ExprPtr& child : expr.children())
          resolved.push_back(convert(*child, block));
        const int n = static_cast<int>(resolved.size());
        const int k = expr.threshold();
        std::vector<FtNode*> alternatives;
        std::vector<int> pick;
        auto choose = [&](auto&& self, int start) -> void {
          if (static_cast<int>(pick.size()) == k) {
            std::vector<FtNode*> conjuncts;
            for (int index : pick) {
              conjuncts.push_back(resolved[static_cast<std::size_t>(index)]);
            }
            alternatives.push_back(
                make_and(std::move(conjuncts),
                         std::to_string(k) + "-of-" + std::to_string(n) +
                             " at " + block.path()));
            return;
          }
          for (int i = start; i <= n - (k - static_cast<int>(pick.size()));
               ++i) {
            pick.push_back(i);
            self(self, i + 1);
            pick.pop_back();
          }
        };
        choose(choose, 0);
        return make_or(std::move(alternatives),
                       "vote causes at " + block.path());
      }
      case ExprOp::kAnd:
      case ExprOp::kOr: {
        std::vector<FtNode*> children;
        children.reserve(expr.children().size());
        for (const ExprPtr& child : expr.children())
          children.push_back(convert(*child, block));
        std::string description = "causes at " + block.path();
        return expr.op() == ExprOp::kAnd
                   ? make_and(std::move(children), std::move(description))
                   : make_or(std::move(children), std::move(description));
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
    std::vector<FtNode*> alternatives;
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
        node = make_and({node, condition},
                        describe(deviation.failure_class, deviation.port,
                                 block.path()) +
                            " [data-dependent]");
      }
      alternatives.push_back(node);
    }
    if (!any_row) return nullptr;
    return make_or(std::move(alternatives),
                   describe(deviation.failure_class, deviation.port,
                            block.path()));
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
      Deviation d{cls, port.name()};
      return tree_.add_basic(Symbol("env:" + d.to_string()), 0.0,
                             d.to_string() + " at the system boundary",
                             owner.path());
    }
    auto it = feed_.find(&port);
    const Connection* connection = it == feed_.end() ? nullptr : it->second;
    if (connection == nullptr) {
      // Validation normally rejects this; keep the synthesis total anyway.
      Deviation d{cls, port.name()};
      return tree_.add_undeveloped(
          Symbol("und:" + d.to_string() + "@" + owner.path()),
          d.to_string() + " on unconnected input", owner.path());
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
      Deviation d{cls, port.name()};
      return tree_.add_loop(
          Symbol("loop:" + d.to_string() + "@" + port.owner().path()),
          d.to_string() + " feeds back to itself through a control loop",
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
    for (std::size_t i = log_start; i < log_.size(); ++i) {
      const Fact& fact = log_[i];
      if (fact.nested != nullptr) {
        entry.nested.push_back(fact.nested);
      } else if (fact.cut_index < index &&
                 std::find(entry.cuts.begin(), entry.cuts.end(), fact.key) ==
                     entry.cuts.end()) {
        entry.cuts.push_back(fact.key);
      }
    }
    std::sort(entry.nested.begin(), entry.nested.end());
    entry.nested.erase(std::unique(entry.nested.begin(), entry.nested.end()),
                       entry.nested.end());
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
    std::vector<const Replay*> pending(entry.nested);
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
        (node->description().rfind("causes at", 0) == 0 ||
         node->description() == describe(cls, port.name(), block.path()));

    // Triggered blocks: loss of the control signal silences every output.
    if (options_.trigger_omission && cls == omission_) {
      if (const Port* trigger = block.trigger()) {
        FtNode* trigger_loss =
            resolve_input(*trigger, ChannelRange::whole(), omission_);
        if (owned_or_gate && trigger_loss != nullptr &&
            !is_house(trigger_loss)) {
          node->add_child(trigger_loss);
        } else {
          node = make_or({node, trigger_loss},
                         describe(cls, port.name(), block.path()));
        }
        explained = true;
      }
    }
    if (explained) {
      if (owned_gate && node->description().rfind("causes at", 0) == 0) {
        node->set_description(describe(cls, port.name(), block.path()));
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
        std::vector<FtNode*> children;
        for (const Port* input : block.inputs()) {
          if (input->is_trigger()) continue;
          children.push_back(
              resolve_input(*input, ChannelRange::whole(), cls));
        }
        if (children.empty()) break;  // a source block: fall through
        return make_or(std::move(children),
                       describe(cls, port.name(), block.path()));
      }
      case SynthesisOptions::UnannotatedPolicy::kUndeveloped:
        break;
    }
    return tree_.add_undeveloped(
        Symbol("und:" + deviation.to_string() + "@" + block.path()),
        deviation.to_string() + " not covered by the hazard analysis of " +
            block.path(),
        block.path());
  }

  FtNode* resolve_mux(const Block& block, const Port& port, ChannelRange range,
                      FailureClass cls) {
    // A deviation on a slice of the muxed flow is a deviation on any
    // overlapped constituent flow.
    const ChannelRange r = range.concrete(port.width());
    std::vector<FtNode*> children;
    int offset = 0;
    for (const Port* input : block.inputs()) {
      const int lo = std::max(r.lo, offset);
      const int hi = std::min(r.hi, offset + input->width());
      if (lo < hi) {
        children.push_back(resolve_input(
            *input, ChannelRange::slice(lo - offset, hi - offset), cls));
      }
      offset += input->width();
    }
    return make_or(std::move(children),
                   describe(cls, port.name(), block.path()) + " [channels " +
                       r.to_string() + "]");
  }

  FtNode* resolve_demux(const Block& block, const Port& port,
                        ChannelRange range, FailureClass cls) {
    const ChannelRange r = range.concrete(port.width());
    int offset = 0;
    for (const Port* output : block.outputs()) {
      if (output == &port) break;
      offset += output->width();
    }
    std::vector<Port*> inputs = block.inputs();
    if (options_.sink != nullptr && inputs.size() != 1) {
      // Partial model: the demux lost its input port during recovery.
      return degraded(Deviation{cls, port.name()}, block.path(),
                      "malformed Demux (expected exactly one input)");
    }
    check_internal(inputs.size() == 1, "malformed demux");
    return resolve_input(*inputs.front(),
                         ChannelRange::slice(offset + r.lo, offset + r.hi),
                         cls);
  }

  FtNode* resolve_store_read(const Block& block, FailureClass cls) {
    // Data-Store read/write pairs communicate remotely without explicit
    // links (paper, section 3): trace every writer of the store.
    static const std::vector<const Block*> kNone;
    auto it = writers_.find(block.store_name());
    const std::vector<const Block*>& writers =
        it == writers_.end() ? kNone : it->second;
    if (writers.empty()) {
      Deviation d{cls, Symbol("out")};
      return tree_.add_undeveloped(
          Symbol("und:store:" + block.store_name().str() + ":" +
                 d.to_string()),
          "store '" + block.store_name().str() + "' read by " + block.path() +
              " is never written",
          block.path());
    }
    std::vector<FtNode*> children;
    for (const Block* writer : writers) {
      std::vector<Port*> inputs = writer->inputs();
      if (options_.sink != nullptr && inputs.size() != 1) {
        children.push_back(degraded(Deviation{cls, Symbol("in")},
                                    writer->path(),
                                    "malformed DataStoreWrite"));
        continue;
      }
      check_internal(inputs.size() == 1, "malformed DataStoreWrite");
      children.push_back(
          resolve_input(*inputs.front(), ChannelRange::whole(), cls));
    }
    return make_or(std::move(children),
                   std::string(cls.view()) + " of data store '" +
                       block.store_name().str() + "'");
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
  std::unordered_map<const Port*, const Connection*> feed_;
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
  require(port != nullptr && port->is_output(), ErrorKind::kLookup,
          "model '" + model_.name() + "' has no boundary output port '" +
              top.port.str() + "' for top event " + top.to_string());

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
