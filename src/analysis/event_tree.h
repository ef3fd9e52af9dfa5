// Event-tree sequence analysis.
//
// An event tree refines one initiating event into accident sequences: at
// each fork a functional event (a safety system) succeeds or fails, and
// every root-to-leaf path ends in a named sequence. Quantitatively each
// sequence is just a top event -- the conjunction of the formulas
// collected along its path, OR-ed over all paths that reach it -- so
// sequence analysis reduces to fault-tree analysis: collect each sequence
// into a top gate and push it through the existing per-top pipeline
// (engines, jobs and ordering all apply unchanged). This module
// holds the format-independent half: gate collection, per-sequence
// summaries and their text/markdown renderings. The Open-PSA importer
// (src/openpsa/) produces the paths.

#pragma once

#include <optional>
#include <string>
#include <vector>

#include "analysis/report.h"
#include "fta/fault_tree.h"

namespace ftsynth {

/// Collects one sequence's paths into a top gate inside `tree` and
/// returns it. Each path is the AND of its collected nodes (one node
/// passes through unchanged); several paths reaching the same sequence
/// are OR-ed. An empty path set -- a sequence no path reaches -- yields
/// nullptr (the "impossible top" convention, probability 0); a path with
/// no collected formulas contributes nothing and is skipped.
FtNode* collect_sequence_gate(FaultTree& tree,
                              const std::vector<std::vector<FtNode*>>& paths);

/// One analysed sequence, ready for the sequence table, the markdown
/// report and the wire (`sequences` response field).
struct SequenceSummary {
  std::string name;         ///< "event-tree/sequence"
  std::string description;  ///< the sequence top's description
  /// Point probability: the exact BDD number; for the bound engine the
  /// certified upper bound (the interval below is authoritative then).
  double probability = 0.0;
  /// Bound engine only: the certified interval replaces `probability`.
  std::optional<double> p_lower;
  std::optional<double> p_upper;
  std::size_t cut_set_count = 0;
  std::size_t min_order = 0;  ///< smallest cut-set order; 0 when no cut sets
  bool truncated = false;
};

/// Extracts the summary row for one analysed sequence top.
SequenceSummary summarise_sequence(std::string name,
                                   const TreeAnalysis& analysis);

/// Fixed-width text table appended to `analyse` output. Empty input
/// renders the empty string. Probabilities use format_double, so the
/// table is byte-stable across engines and job counts (clean runs).
std::string render_sequence_table(const std::vector<SequenceSummary>& rows);

/// Markdown section (### heading + pipe table) for the safety report.
std::string render_sequence_markdown(const std::vector<SequenceSummary>& rows);

}  // namespace ftsynth
