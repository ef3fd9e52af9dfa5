// Automatic fault tree synthesis (the paper's core contribution).
//
// For a hazardous deviation observed at a system output, the synthesiser
// traverses the hierarchical model backwards -- from actuators towards
// sensors (paper, section 2) -- evaluating the local failure expressions of
// every component it encounters:
//
//   * a malfunction leaf becomes a basic event (named block.malfunction,
//     carrying the annotated failure rate);
//   * an input-deviation leaf is traced across the connection feeding that
//     input and resolved against the component upstream;
//   * subsystem boundaries are crossed through the Inport/Outport proxies,
//     OR-ing in the enclosing component's own (hardware / common-cause)
//     analysis on the way out (the Figure 3 concept);
//   * mux/demux blocks are traced channel-accurately, Data-Store read/write
//     pairs are followed as implicit remote connections, and trigger inputs
//     contribute omission causes automatically (section 3's "complications");
//   * deviations reaching an unconnected system boundary input become
//     environment basic events;
//   * feedback loops (the platform's distributed control loops) are cut at
//     the first repeated (port, channels, class) on the traversal stack.
//
// Results are memoised on (port, channels, class), so the output is a DAG in
// which shared causes appear once -- this makes common-cause dependencies
// explicit and keeps synthesis linear in the number of distinct targets on
// loop-free models. Results computed while a loop is open are context-
// dependent and never memoised; they are replayed exactly when a later
// request would retrace them (docs/ALGORITHM.md section 3). The cost is not
// linear in general: a loop region re-entered under a different stack is
// still re-expanded.

#pragma once

#include <cstddef>
#include <vector>

#include "core/budget.h"
#include "core/diagnostics.h"
#include "fta/fault_tree.h"
#include "model/model.h"

namespace ftsynth {

struct SynthesisOptions {
  /// What to do when a deviation reaches a basic block whose annotation has
  /// no row for it.
  enum class UnannotatedPolicy {
    kUndeveloped,  ///< emit an undeveloped event (default; flags analysis gaps)
    kPrune,        ///< assume the component stops the failure (no event)
    kError,        ///< throw ErrorKind::kAnalysis
    kPropagate,    ///< assume same-class propagation from every input
  };

  /// What to do at the cut point of a feedback loop.
  enum class LoopPolicy {
    kPrune,  ///< cut to `false`: exact least-fixpoint semantics (default)
    kEvent,  ///< emit a visible <loop> leaf marking the cut
  };

  /// What a deviation arriving at an unconnected system boundary input
  /// becomes.
  enum class EnvironmentPolicy {
    kBasicEvent,  ///< "env:<Class>-<port>" basic event (default)
    kPrune,       ///< assume a perfect environment
  };

  UnannotatedPolicy unannotated = UnannotatedPolicy::kUndeveloped;
  LoopPolicy loops = LoopPolicy::kPrune;
  EnvironmentPolicy environment = EnvironmentPolicy::kBasicEvent;

  /// Automatically OR "Omission-<trigger>" into every output omission of a
  /// triggered block (section 3: indirectly relayed control signals).
  bool trigger_omission = true;

  /// Apply enclosing-subsystem annotations as common-cause contributions
  /// when crossing subsystem outputs (Figure 3). Disabling reduces the
  /// analysis to a flat, software-only view.
  bool subsystem_common_cause = true;

  /// Memoise (port, channels, class) resolutions, producing a shared DAG.
  /// Disabling (which also disables the replay of loop-tainted results)
  /// re-expands shared subtrees into a plain tree -- exponentially larger
  /// on replicated architectures (ablation: bench_synthesis).
  bool memoise = true;

  /// Run a structural hash-consing pass (fta/simplify.h deduplicate) over
  /// the result, collapsing identical subtrees that escaped memoisation
  /// (loop-cut regions are not memoised, only replayed). Semantics-neutral.
  bool deduplicate = true;

  /// Degraded-mode synthesis: when a sink is given, an unresolvable
  /// propagation (a cause referencing a missing or non-input port, an
  /// unannotated deviation under UnannotatedPolicy::kError) becomes an
  /// explicitly-marked UndevelopedEvent leaf plus a diagnostic, instead of
  /// aborting the traversal -- the tree completes and stays analyzable.
  /// Not owned; null restores the historical fail-fast behaviour.
  DiagnosticSink* sink = nullptr;

  /// Resource guard for the backward traversal: recursion depth ceiling,
  /// optional fault-tree node ceiling (over the nodes actually allocated,
  /// before deduplication), optional wall-clock deadline.
  /// Violations cut the traversal with marked undeveloped leaves and are
  /// summarised in stats().budget (plus warnings on `sink` when set).
  Budget budget{};
};

/// Counters from the most recent synthesise() call.
struct SynthesisStats {
  std::size_t resolutions = 0;  ///< (port, channels, class) targets resolved
  std::size_t cache_hits = 0;   ///< memo hits plus exact replays
  std::size_t loops_cut = 0;
  std::size_t degraded = 0;     ///< unresolvable propagations made undeveloped
  BudgetReport budget;          ///< which resource limits fired, if any
};

/// Name of the condition event synthesised for a data-dependent annotation
/// row (condition_probability < 1): "cond:<Deviation>@<block path>#<row>".
/// Shared with the forward propagation engine so both sides agree.
std::string condition_event_name(const Block& block,
                                 const Deviation& deviation,
                                 std::size_t row_index);

/// Synthesises fault trees for deviations at the model's boundary outputs.
/// The model must outlive the synthesiser; it is not modified.
class Synthesiser {
 public:
  explicit Synthesiser(const Model& model, SynthesisOptions options = {});

  /// Synthesises the fault tree for `top`, whose port must name a boundary
  /// output port of the model root.
  FaultTree synthesise(const Deviation& top);

  /// Convenience: parses "Class-port" against the model registry.
  FaultTree synthesise(std::string_view top);

  /// Synthesises one tree per (boundary output port x failure class in the
  /// registry) whose tree is non-empty.
  std::vector<FaultTree> synthesise_all();

  const SynthesisStats& stats() const noexcept { return stats_; }

 private:
  const Model& model_;
  SynthesisOptions options_;
  SynthesisStats stats_;
};

class ThreadPool;

/// Synthesises one tree per top event concurrently (a campaign over many
/// top events is embarrassingly parallel: each tree gets its own traversal
/// state, and the shared model is read-only). Results are in `tops` order
/// and identical to sequential synthesis. Runs on `pool`'s workers plus
/// the calling thread; a null pool is the plain serial loop.
std::vector<FaultTree> synthesise_parallel(const Model& model,
                                           const std::vector<Deviation>& tops,
                                           const SynthesisOptions& options,
                                           ThreadPool* pool);

/// Convenience overload owning a transient pool of `threads` workers
/// (<= 0: hardware concurrency; 1: serial).
std::vector<FaultTree> synthesise_parallel(const Model& model,
                                           const std::vector<Deviation>& tops,
                                           SynthesisOptions options = {},
                                           int threads = 0);

}  // namespace ftsynth
