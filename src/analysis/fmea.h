// FMEA synthesis.
//
// The companion output of the HiP-HOPS method (paper refs [5], [6]): once
// fault trees exist for every hazardous top event, inverting them yields a
// system-level Failure Modes and Effects Analysis -- for every component
// malfunction, the system-level effects it contributes to, whether it is a
// direct (single-point) cause or only acts in combination, and its
// quantitative contribution.

#pragma once

#include <string>
#include <vector>

#include "analysis/cutsets.h"
#include "analysis/probability.h"
#include "fta/fault_tree.h"

namespace ftsynth {

/// One FMEA row: a basic event and its effect on one top event.
struct FmeaEffect {
  std::string top_event;        ///< the affected system failure
  bool direct = false;          ///< order-1 cut set: single-point effect
  std::size_t smallest_order = 0;  ///< smallest cut set containing the event
  double fussell_vesely = 0.0;  ///< share of that top event's probability
};

struct FmeaRow {
  const FtNode* event = nullptr;
  std::string origin;              ///< block path the malfunction lives in
  double rate = 0.0;
  std::vector<FmeaEffect> effects;

  /// True if the event is a single-point cause of any analysed top event.
  bool has_direct_effect() const noexcept;
};

/// Inverts the (tree, cut-set) pairs into an FMEA, one row per distinct
/// basic event, rows ordered by origin then event name. Both vectors must
/// be parallel (cut_sets[i] computed from trees[i]) and must outlive the
/// result.
///
/// Each tree's quantitative columns follow the same regime as
/// analyse_reliability: an analysis that carries an exact retained diagram
/// AND whose extraction was cut short gets its FV shares, orders and direct
/// flags from ZBDD measure sweeps (exact despite the truncated listing);
/// every other tree uses the extracted family, so clean runs render
/// byte-identically with and without a diagram.
std::vector<FmeaRow> synthesise_fmea(
    const std::vector<const FaultTree*>& trees,
    const std::vector<const CutSetAnalysis*>& cut_sets,
    const ProbabilityOptions& options = {});

/// Renders the FMEA as a text table:
/// component | failure mode | lambda | effect | direct? | order | FV.
std::string render_fmea(const std::vector<FmeaRow>& rows);

}  // namespace ftsynth
