// Markdown safety report.
//
// One call renders the whole analysis campaign as a reviewable Markdown
// document -- the deliverable a safety engineer circulates after running
// the tool chain: model inventory, per-component hazard analyses, one
// section per top event (tree statistics, minimal cut sets, probabilities,
// importance), the cross-top-event dependency matrix, the system FMEA and
// the HAZOP completeness findings.

#pragma once

#include <string>
#include <vector>

#include "analysis/report.h"
#include "model/model.h"

namespace ftsynth {

struct MarkdownReportOptions {
  AnalysisOptions analysis;
  /// Cap for cut sets listed per top event (0 = all).
  std::size_t max_cut_sets = 25;
  /// Cap for importance rows per top event (0 = all).
  std::size_t max_importance_rows = 10;
  /// Include the per-component annotation tables.
  bool include_annotations = true;
  /// Include the system-level FMEA section.
  bool include_fmea = true;
  /// Include the HAZOP completeness audit section.
  bool include_audit = true;
};

/// Renders the full Markdown document over already synthesised and
/// analysed top events (`analyses[i]` belongs to `trees[i]`, e.g. the
/// items of one analyse_batch run). `options.analysis` supplies the
/// mission time the document states and the FMEA section quantifies.
std::string markdown_report(const Model& model,
                            const std::vector<const FaultTree*>& trees,
                            const std::vector<const TreeAnalysis*>& analyses,
                            const MarkdownReportOptions& options = {});

}  // namespace ftsynth
