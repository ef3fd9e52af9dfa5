#include "analysis/fmea.h"

#include <algorithm>
#include <map>
#include <optional>

#include "analysis/importance.h"
#include "core/error.h"
#include "core/strings.h"
#include "core/text_table.h"

namespace ftsynth {

bool FmeaRow::has_direct_effect() const noexcept {
  return std::any_of(effects.begin(), effects.end(),
                     [](const FmeaEffect& effect) { return effect.direct; });
}

std::vector<FmeaRow> synthesise_fmea(
    const std::vector<const FaultTree*>& trees,
    const std::vector<const CutSetAnalysis*>& cut_sets,
    const ProbabilityOptions& options) {
  require(trees.size() == cut_sets.size(), ErrorKind::kAnalysis,
          "synthesise_fmea needs one cut-set analysis per tree");

  // Keyed by event name so the same malfunction in different trees lands
  // in one row. std::map keeps deterministic ordering.
  std::map<Symbol, FmeaRow> rows;

  // Shared by both regimes: find-or-create the row and its per-top effect
  // record for one failure-mode event.
  auto effect_of = [&rows](const FtNode* event,
                           const std::string& top) -> FmeaEffect& {
    FmeaRow& row = rows[event->name()];
    if (row.event == nullptr) {
      row.event = event;
      row.origin = event->origin();
      row.rate = event->rate();
    }
    for (FmeaEffect& existing : row.effects)
      if (existing.top_event == top) return existing;
    row.effects.push_back({top, false, 0, 0.0});
    return row.effects.back();
  };

  for (std::size_t i = 0; i < trees.size(); ++i) {
    const FaultTree& tree = *trees[i];
    const CutSetAnalysis& analysis = *cut_sets[i];

    // Diagram regime, per tree: the one analyse_reliability uses.
    if (const std::optional<ZbddMeasures> measures =
            diagram_measures(analysis, options)) {
      // Only the plain polarity is a failure mode (the family loop below
      // skips negated literals the same way).
      const CutSetDiagram& diagram = *analysis.diagram;
      for (std::size_t r = 0; r < diagram.events.size(); ++r) {
        const FtNode* event = diagram.events[r];
        if (event == nullptr) continue;
        if (event->kind() != NodeKind::kBasic) continue;
        if (event->has_fixed_probability()) continue;
        const std::size_t order = measures->var_min_order[2 * r];
        if (order == 0) continue;  // no set holds the plain literal
        FmeaEffect& effect = effect_of(event, tree.top_description());
        effect.direct = effect.direct || order == 1;
        if (effect.smallest_order == 0 || order < effect.smallest_order)
          effect.smallest_order = order;
        if (measures->total_mass > 0.0)
          effect.fussell_vesely +=
              measures->var_mass[2 * r] / measures->total_mass;
      }
      continue;
    }

    const std::vector<double> set_probs =
        cut_set_probabilities(analysis, options);
    const double total = rare_event_bound(set_probs);

    for (std::size_t s = 0; s < analysis.cut_sets.size(); ++s) {
      const CutSet cs = analysis.cut_sets[s];
      const double p = set_probs[s];
      for (const CutLiteral& literal : cs) {
        if (literal.negated) continue;  // an inhibitor is not a failure mode
        if (literal.event->kind() != NodeKind::kBasic) continue;
        // Data-condition events enable failures but are not failure modes.
        if (literal.event->has_fixed_probability()) continue;

        FmeaEffect& effect = effect_of(literal.event, tree.top_description());
        effect.direct = effect.direct || cs.size() == 1;
        if (effect.smallest_order == 0 || cs.size() < effect.smallest_order)
          effect.smallest_order = cs.size();
        if (total > 0.0) effect.fussell_vesely += p / total;
      }
    }
  }

  std::vector<FmeaRow> out;
  out.reserve(rows.size());
  for (auto& [name, row] : rows) out.push_back(std::move(row));
  std::sort(out.begin(), out.end(), [](const FmeaRow& a, const FmeaRow& b) {
    if (a.origin != b.origin) return a.origin < b.origin;
    return a.event->name() < b.event->name();
  });
  return out;
}

std::string render_fmea(const std::vector<FmeaRow>& rows) {
  TextTable table({"Component", "Failure mode", "lambda (f/h)",
                   "System effect", "Direct", "Min order", "FV"});
  for (const FmeaRow& row : rows) {
    bool first = true;
    for (const FmeaEffect& effect : row.effects) {
      table.add_row({first ? row.origin : "",
                     first ? std::string(row.event->name().view()) : "",
                     first && row.rate > 0.0 ? format_double(row.rate) : "",
                     effect.top_event, effect.direct ? "YES" : "no",
                     std::to_string(effect.smallest_order),
                     format_double(effect.fussell_vesely)});
      first = false;
    }
  }
  return table.render();
}

}  // namespace ftsynth
