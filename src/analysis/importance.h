// Importance measures -- ranking basic events by their contribution to the
// top event, the analysis that "helps identify weak areas of the design"
// (paper, sections 2 and 4, aim 3).
//
//   * Fussell-Vesely: fraction of the (rare-event) top probability carried
//     by cut sets containing the event.
//   * Birnbaum: dP(top)/dp(event), computed exactly on the BDD.
//   * RAW (Risk Achievement Worth): P(top | event occurred) / P(top) --
//     how much worse things get if the component is known failed.
//   * RRW (Risk Reduction Worth): P(top) / P(top | event perfect) -- how
//     much is gained by making the component perfect.

#pragma once

#include <optional>
#include <string>
#include <vector>

#include "analysis/cutsets.h"
#include "analysis/probability.h"
#include "bdd/zbdd_prob.h"

namespace ftsynth {

struct ImportanceEntry {
  const FtNode* event = nullptr;
  double fussell_vesely = 0.0;
  double birnbaum = 0.0;
  double raw = 0.0;  ///< risk achievement worth (1 = no effect)
  double rrw = 0.0;  ///< risk reduction worth (1 = no effect)
  std::size_t cut_set_count = 0;    ///< cut sets containing the event
  std::size_t smallest_order = 0;   ///< order of the smallest such cut set
};

/// Every probability-stage number of one tree analysis, computed together
/// so the expensive artefacts are built once: one BDD encoding serves the
/// exact top probability, the O(N) all-variables Birnbaum sweep and the
/// memo-sharing restricted evaluations behind RAW/RRW, and -- in the
/// diagram regime -- one set of ZBDD
/// measure sweeps serves Fussell-Vesely, the rare-event and Esary-Proschan
/// bounds, the per-event set counts and the smallest orders.
struct ReliabilitySummary {
  /// Every basic event of the tree, most important (by Fussell-Vesely,
  /// then Birnbaum) first.
  std::vector<ImportanceEntry> importance;
  double p_exact = 0.0;          ///< exact P(top) on the BDD
  double p_rare_event = 0.0;     ///< sum of cut-set probabilities
  double p_esary_proschan = 0.0; ///< 1 - prod(1 - P(set))
  double p_mcub = 0.0;           ///< same bound in log space (mcub_bound)
  /// True when the family-derived numbers above (rare-event, EP, FV,
  /// counts, orders) came from diagram traversal rather than the
  /// extracted cut-set list. Happens only when the analysis carries an
  /// exact diagram AND extraction was cut short -- the case where the
  /// diagram numbers are exact while the family numbers would have been
  /// partial. On clean runs both paths use the extracted family, keeping
  /// output byte-identical with and without a diagram.
  bool diagram_native = false;
};

/// Computes the full probability stage for one analysed tree. Without a
/// retained diagram this is the classic pipeline (family-derived FV and
/// the probability.h bounds); with one, the family-derived numbers switch
/// to diagram sweeps exactly under the conditions documented on
/// ReliabilitySummary::diagram_native. The trailing ProbMode is ignored;
/// kept for perfbench/probe.cpp.
ReliabilitySummary analyse_reliability(const FaultTree& tree,
                                       const CutSetAnalysis& analysis,
                                       const ProbabilityOptions& options,
                                       ProbMode = ProbMode::kDiagram);

/// The diagram regime that analyse_reliability and synthesise_fmea share:
/// the ZBDD measure sweep over `analysis`'s diagram when that diagram is
/// exact AND extraction was cut short (truncated or past the deadline) --
/// the case where the diagram numbers are exact while the family numbers
/// would be partial. ZBDD variable 2r is the plain polarity of
/// diagram->events[r] with probability q, 2r + 1 the negated one with
/// 1 - q, the convention cut_set_probability applies per literal. Empty
/// on clean runs (both regimes would print the same bytes, so the family
/// path runs), without a usable diagram, and when the deadline interrupts
/// the sweep: partial sweep results are unusable, while the equally
/// partial family numbers keep the classic deadline behaviour.
std::optional<ZbddMeasures> diagram_measures(const CutSetAnalysis& analysis,
                                             const ProbabilityOptions& options);

/// Renders the ranking as a text table.
std::string render_importance(const std::vector<ImportanceEntry>& ranking);

}  // namespace ftsynth
