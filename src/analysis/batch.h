// Batch analysis orchestrator.
//
// The paper's workflow (sections 4-5) analyses *many* top events per
// model -- the BBW evaluation alone has 16 hazard-annotated outputs -- and
// per-top-event analysis is embarrassingly parallel: every top event gets
// its own synthesis traversal, cut-set expansion and probability
// evaluation over a read-only model. This module runs that whole pipeline
// per top event on a shared worker pool while keeping every observable
// output *deterministic*, i.e. byte-identical to the serial loop:
//
//   * results land in `tops` order, in pre-indexed slots;
//   * each item collects its diagnostics into a private sink; the caller
//     merges them into the shared sink in item order (merge_diagnostics),
//     so the rendered table and the --max-errors cap behave exactly as in
//     a serial run;
//   * exceptions are captured per item and surface in item order, so
//     --strict fail-fast semantics pick the same error the serial loop
//     would have died on;
//   * one Budget deadline latch is shared by every per-item copy: the
//     first worker to observe expiry stops them all, and each cut-short
//     item comes back flagged partial, exactly like serial items after
//     the deadline;
//   * items share nothing but the read-only model and that latch: no
//     analysis result passes from one item to another, so each item's
//     output is a function of its tree and the options alone.

#pragma once

#include <exception>
#include <optional>
#include <vector>

#include "analysis/report.h"
#include "core/diagnostics.h"
#include "fta/synthesis.h"
#include "model/model.h"

namespace ftsynth {

class ThreadPool;

struct BatchOptions {
  /// Per-item synthesis semantics. A non-null `synthesis.sink` enables
  /// degraded mode exactly as in Synthesiser; the batch reroutes it to a
  /// per-item sink and the shared sink only sees the merged, ordered
  /// stream.
  SynthesisOptions synthesis;
  /// Cut sets + probabilities + importance per tree, each tree on the
  /// one worker that runs its item.
  AnalysisOptions analysis;
  /// false: synthesise only (e.g. the CLI `synthesise` command); for
  /// analyse_trees, just label the trees.
  bool analyse = true;
};

/// One top event's pipeline result.
struct BatchItem {
  Deviation top;
  /// Display name override for tree batches (analyse_trees), where no
  /// Deviation exists; empty for model batches.
  std::string label;
  std::optional<FaultTree> tree;  ///< empty when synthesis threw
  /// Points INTO `tree` (FtNode pointers); moving the item is fine, the
  /// tree arena is stable, but `tree` must outlive the analysis.
  std::optional<TreeAnalysis> analysis;
  std::vector<Diagnostic> diagnostics;  ///< per-item, deterministic order
  std::exception_ptr error;             ///< set when a stage threw

  /// The name diagnostics and verbose stats report the item under.
  std::string display_name() const {
    return label.empty() ? top.to_string() : label;
  }
};

struct BatchResult {
  std::vector<BatchItem> items;  ///< in `tops` order

  /// First captured per-item error in item order, or nullptr.
  std::exception_ptr first_error() const noexcept {
    for (const BatchItem& item : items)
      if (item.error) return item.error;
    return nullptr;
  }
};

/// Synthesises (and, unless options.analyse is false, analyses) every top
/// event on `pool`'s workers plus the calling thread. A null pool runs the
/// identical pipeline serially. Item order, content and flags do not
/// depend on the pool.
BatchResult analyse_batch(const Model& model,
                          const std::vector<Deviation>& tops,
                          const BatchOptions& options = {},
                          ThreadPool* pool = nullptr);

/// Analyses already-built trees (e.g. Open-PSA imports: fault-tree roots
/// and event-tree sequence tops) through the identical deterministic
/// pipeline -- same per-item sinks, pool semantics and
/// ordering guarantees, minus the synthesis stage. Trees are moved into
/// the items; `labels[i]` becomes items[i].label (labels may be shorter
/// than `trees`; missing entries use the tree name). options.synthesis is
/// ignored (trees exist); with options.analyse false the items only carry
/// the labelled trees.
BatchResult analyse_trees(std::vector<FaultTree> trees,
                          const std::vector<std::string>& labels,
                          const BatchOptions& options = {},
                          ThreadPool* pool = nullptr);

/// Replays every item's private diagnostics into `sink` in item order --
/// the shared error cap bites exactly as it would have in a serial run.
void merge_diagnostics(const BatchResult& result, DiagnosticSink& sink);

}  // namespace ftsynth
