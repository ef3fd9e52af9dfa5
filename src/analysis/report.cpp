#include "analysis/report.h"

#include "core/strings.h"

namespace ftsynth {

TreeAnalysis analyse_tree(const FaultTree& tree,
                          const AnalysisOptions& options) {
  TreeAnalysis analysis;
  analysis.top_event = tree.top_description();
  analysis.tree_stats = tree.stats();
  // The ZBDD engine always keeps its diagram: the reliability stage
  // evaluates it when extraction is cut short.
  CutSetOptions cut_options = options.cut_sets;
  cut_options.keep_diagram = cut_options.engine == CutSetEngine::kZbdd;
  // The bound engine consumes probabilities during enumeration; hand it
  // the same inputs the reporting stage below will use.
  cut_options.bound_mission_time_hours =
      options.probability.mission_time_hours;
  cut_options.bound_default_probability =
      options.probability.default_event_probability;
  analysis.cut_sets = compute_cut_sets(tree, cut_options);
  analysis.common_cause = analyse_common_cause(tree, analysis.cut_sets);
  // One call computes the whole probability stage: exact P(top) and all
  // importance measures share a single BDD encoding and probability memo,
  // and -- in the diagram regime -- the bounds, FV, counts and orders come
  // from ZBDD measure sweeps instead of the extracted family.
  ReliabilitySummary reliability =
      analyse_reliability(tree, analysis.cut_sets, options.probability);
  analysis.importance = std::move(reliability.importance);
  analysis.p_rare_event = reliability.p_rare_event;
  analysis.p_esary_proschan = reliability.p_esary_proschan;
  analysis.p_mcub = reliability.p_mcub;
  analysis.p_exact = reliability.p_exact;
  analysis.diagram_native = reliability.diagram_native;
  // The diagram has served its purpose; drop it so TreeAnalysis stays as
  // light as before for callers that hold many of them.
  analysis.cut_sets.diagram.reset();
  analysis.p_lower = analysis.cut_sets.p_lower;
  analysis.p_upper = analysis.cut_sets.p_upper;
  analysis.bound_converged = analysis.cut_sets.converged;
  analysis.frontier_stats = analysis.cut_sets.frontier_stats;
  return analysis;
}

std::string render(const FaultTree& tree, const TreeAnalysis& analysis,
                   const AnalysisOptions& options) {
  std::string out;
  out += "=== Top event: " + analysis.top_event + " ===\n";
  const FaultTreeStats& s = analysis.tree_stats;
  out += "tree: " + std::to_string(s.node_count) + " nodes (" +
         std::to_string(s.gate_count) + " gates, " +
         std::to_string(s.basic_event_count) + " basic events, " +
         std::to_string(s.undeveloped_count) + " undeveloped), depth " +
         std::to_string(s.depth) + ", expanded size " +
         std::to_string(s.expanded_size) + "\n";
  if (options.render_tree) out += tree.to_text();

  out += "minimal cut sets: " +
         std::to_string(analysis.cut_sets.cut_sets.size()) +
         (analysis.cut_sets.truncated ? " (TRUNCATED)" : "") +
         ", smallest order " +
         std::to_string(analysis.cut_sets.min_order()) + "\n";
  const std::size_t shown = std::min<std::size_t>(
      analysis.cut_sets.cut_sets.size(), 20);
  for (std::size_t i = 0; i < shown; ++i) {
    const CutSet& cs = analysis.cut_sets.cut_sets[i];
    out += "  {";
    for (std::size_t j = 0; j < cs.size(); ++j) {
      if (j != 0) out += ", ";
      if (cs[j].negated) out += "NOT ";
      out += cs[j].event->name().view();
    }
    out += "}\n";
  }
  if (analysis.cut_sets.cut_sets.size() > shown) {
    out += "  ... and " +
           std::to_string(analysis.cut_sets.cut_sets.size() - shown) +
           " more\n";
  }

  if (analysis.p_lower && analysis.p_upper) {
    // Bound-engine run: the certified interval replaces the exact-BDD
    // number (no whole-tree BDD is ever built on this path), and the
    // family bounds are omitted -- over an intentionally partial family
    // they would under-state every measure the interval already brackets.
    out += "P(top): certified [" + format_double(*analysis.p_lower) + ", " +
           format_double(*analysis.p_upper) + "], width " +
           format_double(*analysis.p_upper - *analysis.p_lower) +
           (analysis.bound_converged ? ", converged" : ", open frontier") +
           "  [t = " +
           format_double(options.probability.mission_time_hours) + " h]\n";
  } else {
    out += "P(top): rare-event " + format_double(analysis.p_rare_event) +
           ", Esary-Proschan " + format_double(analysis.p_esary_proschan) +
           ", MCUB " + format_double(analysis.p_mcub) +
           ", exact (BDD) " + format_double(analysis.p_exact) + "  [t = " +
           format_double(options.probability.mission_time_hours) + " h]\n";
  }

  out += analysis.common_cause.to_string();

  if (!analysis.importance.empty()) {
    std::vector<ImportanceEntry> top(
        analysis.importance.begin(),
        analysis.importance.begin() +
            static_cast<std::ptrdiff_t>(std::min(
                analysis.importance.size(), options.max_importance_rows)));
    out += render_importance(top);
  }
  return out;
}

std::string analyse_model_report(const Model& model,
                                 const std::vector<std::string>& top_events,
                                 const SynthesisOptions& synthesis,
                                 const AnalysisOptions& options) {
  std::string out = "Model: " + model.name() + " (" +
                    std::to_string(model.block_count()) + " blocks)\n\n";
  Synthesiser synthesiser(model, synthesis);
  for (const std::string& top : top_events) {
    FaultTree tree = synthesiser.synthesise(top);
    TreeAnalysis analysis = analyse_tree(tree, options);
    out += render(tree, analysis, options) + "\n";
  }
  return out;
}

}  // namespace ftsynth
