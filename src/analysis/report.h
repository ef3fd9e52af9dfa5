// One-call analysis reports.
//
// Bundles the downstream analyses the paper runs in Fault Tree Plus --
// minimal cut sets, reliability evaluation, importance ranking, common
// cause -- into a single result per tree, plus a rendered text report of
// the kind the demonstration plan (section 4) presents.

#pragma once

#include <optional>
#include <string>
#include <vector>

#include "analysis/common_cause.h"
#include "analysis/cutsets.h"
#include "analysis/importance.h"
#include "analysis/probability.h"
#include "fta/fault_tree.h"
#include "fta/synthesis.h"
#include "model/model.h"

namespace ftsynth {

struct AnalysisOptions {
  CutSetOptions cut_sets;
  ProbabilityOptions probability;
  /// Include the full tree rendering in render() output.
  bool render_tree = false;
  /// Limit importance rows shown by render().
  std::size_t max_importance_rows = 10;
  /// Ignored (zbdd always keeps its diagram); kept for perfbench/probe.cpp.
  ProbMode prob_mode = ProbMode::kDiagram;
};

/// Full analysis of one synthesized tree.
struct TreeAnalysis {
  std::string top_event;  ///< e.g. "Omission-brake_force at bbw"
  FaultTreeStats tree_stats;
  CutSetAnalysis cut_sets;
  CommonCauseReport common_cause;
  std::vector<ImportanceEntry> importance;
  double p_rare_event = 0.0;
  double p_esary_proschan = 0.0;
  double p_mcub = 0.0;
  double p_exact = 0.0;
  /// True when the family-derived numbers came from diagram traversal
  /// (see ReliabilitySummary::diagram_native). Deliberately absent from
  /// render() so clean-run reports stay byte-identical with and without
  /// the diagram; the CLI surfaces it behind --verbose.
  bool diagram_native = false;
  /// Bound engine only (mirrors CutSetAnalysis): certified interval on
  /// P(top), whether it converged to bound_epsilon, and the frontier's
  /// counters. render() prints the interval in place of the exact-BDD
  /// number -- the bound engine targets trees where whole-tree BDD
  /// encoding is off the table.
  std::optional<double> p_lower;
  std::optional<double> p_upper;
  bool bound_converged = false;
  std::optional<FrontierStats> frontier_stats;
};

/// Runs cut sets, probabilities, importance and common-cause on `tree`.
/// The result holds FtNode pointers INTO `tree`: the tree must outlive the
/// returned TreeAnalysis (do not pass a temporary).
TreeAnalysis analyse_tree(const FaultTree& tree,
                          const AnalysisOptions& options = {});

/// Renders one tree analysis as a text report.
std::string render(const FaultTree& tree, const TreeAnalysis& analysis,
                   const AnalysisOptions& options = {});

/// Synthesises and analyses several top events of a model, returning the
/// full textual report (the paper's demonstration output).
std::string analyse_model_report(const Model& model,
                                 const std::vector<std::string>& top_events,
                                 const SynthesisOptions& synthesis = {},
                                 const AnalysisOptions& options = {});

}  // namespace ftsynth
