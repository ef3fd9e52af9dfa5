#include "analysis/importance.h"

#include <algorithm>
#include <cstdint>
#include <limits>

#include "bdd/bdd_prob.h"
#include "bdd/zbdd_prob.h"
#include "core/strings.h"
#include "core/text_table.h"

namespace ftsynth {

namespace {

/// var_count sweeps return doubles (families can exceed 2^53 sets);
/// saturate instead of overflowing the size_t counters.
std::size_t count_from_double(double count) noexcept {
  if (count >= 1.8e19) return static_cast<std::size_t>(-1);
  return count <= 0.0 ? 0 : static_cast<std::size_t>(count + 0.5);
}

/// Combines the two polarities' smallest orders (0 = event absent).
std::size_t min_nonzero(std::size_t a, std::size_t b) noexcept {
  if (a == 0) return b;
  if (b == 0) return a;
  return std::min(a, b);
}

/// Rare-event ingredients for one basic event's Birnbaum/RAW/RRW when the
/// exact BDD stage is unavailable (bound-engine runs): total family mass
/// of sets mentioning the event, and the mass of those sets with the
/// mentioning literal forced true, per polarity.
struct RareEventMasses {
  bool mentioned = false;  ///< some set of the family holds the event
  double with_literal = 0.0;
  double pos_without = 0.0;
  double neg_without = 0.0;
};

/// The importance entries of a tree's basic events, found by node id:
/// literals point into the analysed tree, whose ids are dense. A literal
/// whose id slot holds another event is no basic event of the tree.
class EntryTable {
 public:
  explicit EntryTable(const FaultTree& tree)
      : slot_(tree.nodes().size(), kNone) {
    for (const FtNode* event : tree.basic_events()) {
      slot_[static_cast<std::size_t>(event->id())] =
          static_cast<std::uint32_t>(entries_.size());
      entries_.push_back(ImportanceEntry{event, 0.0, 0.0, 0.0, 0.0, 0, 0});
    }
  }

  /// Index of `event`'s entry, or kNone for undeveloped / loop leaves.
  std::uint32_t find(const FtNode* event) const noexcept {
    const auto id = static_cast<std::size_t>(event->id());
    if (id >= slot_.size() || slot_[id] == kNone) return kNone;
    return entries_[slot_[id]].event == event ? slot_[id] : kNone;
  }

  ImportanceEntry& operator[](std::uint32_t index) noexcept {
    return entries_[index];
  }
  std::size_t size() const noexcept { return entries_.size(); }
  std::vector<ImportanceEntry> release() && { return std::move(entries_); }

  static constexpr std::uint32_t kNone =
      std::numeric_limits<std::uint32_t>::max();

 private:
  std::vector<std::uint32_t> slot_;  ///< node id -> entry index
  std::vector<ImportanceEntry> entries_;
};

}  // namespace

std::optional<ZbddMeasures> diagram_measures(
    const CutSetAnalysis& analysis, const ProbabilityOptions& options) {
  const CutSetDiagram* diagram = analysis.diagram.get();
  if (diagram == nullptr || !diagram->exact ||
      !(analysis.truncated || analysis.deadline_exceeded))
    return std::nullopt;
  std::vector<double> var_probs(2 * diagram->events.size(), 0.0);
  for (std::size_t r = 0; r < diagram->events.size(); ++r) {
    const FtNode* event = diagram->events[r];
    if (event == nullptr) continue;  // variable absent from the diagram
    const double q = event_probability(*event, options);
    var_probs[2 * r] = q;
    var_probs[2 * r + 1] = 1.0 - q;
  }
  ZbddMeasures measures = zbdd_measures(diagram->zbdd, diagram->root,
                                        var_probs, options.budget);
  if (!measures.complete) return std::nullopt;
  return measures;
}

ReliabilitySummary analyse_reliability(const FaultTree& tree,
                                       const CutSetAnalysis& analysis,
                                       const ProbabilityOptions& options,
                                       ProbMode) {
  ReliabilitySummary out;
  EntryTable entries(tree);

  // Bound-engine runs target trees where whole-tree BDD encoding is off
  // the table (that is why the caller chose the engine), so the exact
  // block below must not run: encode_bdd has no budget and would blow up
  // precisely on those inputs. Birnbaum/RAW/RRW instead come from
  // rare-event conditionals over the emitted family.
  const bool bound_run = analysis.p_lower.has_value();
  std::vector<RareEventMasses> rare_masses(bound_run ? entries.size() : 0);

  if (const std::optional<ZbddMeasures> swept =
          diagram_measures(analysis, options)) {
    const ZbddMeasures& measures = *swept;
    const CutSetDiagram* diagram = analysis.diagram.get();
    out.diagram_native = true;
    out.p_rare_event = measures.total_mass;
    out.p_esary_proschan = measures.esary_proschan;
    out.p_mcub = measures.mcub;
    for (std::size_t r = 0; r < diagram->events.size(); ++r) {
      const FtNode* event = diagram->events[r];
      if (event == nullptr) continue;
      const std::uint32_t at = entries.find(event);
      if (at == EntryTable::kNone) continue;  // undeveloped / loop leaves
      ImportanceEntry& entry = entries[at];
      // Both polarities attribute to the event, exactly like the family
      // loop below (a set holding NOT x still counts against x).
      const double mass =
          measures.var_mass[2 * r] + measures.var_mass[2 * r + 1];
      if (out.p_rare_event > 0.0)
        entry.fussell_vesely = mass / out.p_rare_event;
      entry.cut_set_count = count_from_double(
          measures.var_count[2 * r] + measures.var_count[2 * r + 1]);
      entry.smallest_order = min_nonzero(measures.var_min_order[2 * r],
                                         measures.var_min_order[2 * r + 1]);
    }
  } else {
    // Classic path: Fussell-Vesely, counts and orders from the extracted
    // family; bounds from probability.h. Each set's probability is
    // computed once and feeds every sum.
    const std::vector<double> set_probs =
        cut_set_probabilities(analysis, options);
    out.p_rare_event = rare_event_bound(set_probs);
    out.p_esary_proschan = esary_proschan_bound(set_probs);
    out.p_mcub = mcub_bound(set_probs);
    std::vector<double> literal_probs;
    for (std::size_t s = 0; s < analysis.cut_sets.size(); ++s) {
      const CutSet cs = analysis.cut_sets[s];
      const double p = set_probs[s];
      // The set's share of the rare-event sum: one quotient, added to the
      // FV of each of its events (0 adds nothing when there is no mass).
      const double share =
          out.p_rare_event > 0.0 ? p / out.p_rare_event : 0.0;
      for (const CutLiteral& literal : cs) {
        const std::uint32_t at = entries.find(literal.event);
        if (at == EntryTable::kNone) continue;  // undeveloped / loop leaves
        ImportanceEntry& entry = entries[at];
        entry.fussell_vesely += share;
        ++entry.cut_set_count;
        if (entry.smallest_order == 0 || cs.size() < entry.smallest_order)
          entry.smallest_order = cs.size();
      }
      if (!bound_run) continue;
      // Rare-event conditionals: for each literal, the set's probability
      // with that literal forced true (product of the others). Products
      // rather than division by the literal's probability so zero-rate
      // events stay finite.
      literal_probs.clear();
      for (const CutLiteral& literal : cs) {
        const double q = event_probability(*literal.event, options);
        literal_probs.push_back(literal.negated ? 1.0 - q : q);
      }
      for (std::size_t j = 0; j < cs.size(); ++j) {
        const std::uint32_t at = entries.find(cs[j].event);
        if (at == EntryTable::kNone) continue;
        double without = 1.0;
        for (std::size_t i = 0; i < cs.size(); ++i)
          if (i != j) without *= literal_probs[i];
        RareEventMasses& m = rare_masses[at];
        m.mentioned = true;
        m.with_literal += p;
        if (cs[j].negated) m.neg_without += without;
        else m.pos_without += without;
      }
    }
  }

  if (bound_run) {
    // Rare-event Birnbaum/RAW/RRW from the family: with S the rare-event
    // sum, S(v=1) = S - with_literal + pos_without (sets mentioning v are
    // re-weighted with the literal forced; NOT-v sets vanish), likewise
    // S(v=0) with neg_without. BM = S(v=1) - S(v=0) needs no S at all.
    // p_exact stays 0: the interval in p_lower/p_upper is the probability
    // statement for these runs.
    const double s = out.p_rare_event;
    for (std::uint32_t at = 0; at < rare_masses.size(); ++at) {
      const RareEventMasses& m = rare_masses[at];
      if (!m.mentioned) continue;
      ImportanceEntry& entry = entries[at];
      const double s_with = s - m.with_literal + m.pos_without;
      const double s_without = s - m.with_literal + m.neg_without;
      entry.birnbaum = m.pos_without - m.neg_without;
      entry.raw = s > 0.0 ? s_with / s : 0.0;
      entry.rrw =
          s_without > 0.0 ? s / s_without
          : s > 0.0       ? std::numeric_limits<double>::infinity()
                          : 0.0;
    }
  } else {
    // Exact probability plus Birnbaum/RAW/RRW for every event from ONE
    // BDD encoding. The shared-memo engine computes P(top); the combined
    // upward/downward sweep then yields all Birnbaum measures in O(N)
    // where the per-variable restrict loop paid O(V*N). RAW and RRW keep
    // the restricted evaluations: deriving P(top | v = b) from the sweep
    // via P(top) - p_v * BM(v) cancels catastrophically when the
    // conditioned probability is orders of magnitude below P(top) --
    // exactly the rare events RRW exists to rank -- while the cofactor
    // evaluations reuse the engine's probability memo, so each one
    // touches only the nodes the restriction actually changed.
    BddEncoding encoding = encode_bdd(tree);
    const std::vector<double> probabilities =
        encoding.probabilities(options);
    BddProbabilityEngine engine(encoding.bdd, probabilities);
    const double p_top = engine.probability(encoding.root);
    out.p_exact = p_top;
    const std::vector<double> birnbaum = engine.birnbaum_all(encoding.root);
    for (std::size_t v = 0; v < encoding.events.size(); ++v) {
      const std::uint32_t at = entries.find(encoding.events[v]);
      if (at == EntryTable::kNone) continue;
      ImportanceEntry& entry = entries[at];
      const double bm = birnbaum[v];
      const double p_given =
          engine.probability_given(encoding.root, static_cast<int>(v), true);
      const double p_without = engine.probability_given(
          encoding.root, static_cast<int>(v), false);
      entry.birnbaum = bm;
      entry.raw = p_top > 0.0 ? p_given / p_top : 0.0;
      entry.rrw =
          p_without > 0.0 ? p_top / p_without
          : p_top > 0.0   ? std::numeric_limits<double>::infinity()
                          : 0.0;
    }
  }

  std::vector<ImportanceEntry> ranking = std::move(entries).release();
  std::sort(ranking.begin(), ranking.end(),
            [](const ImportanceEntry& a, const ImportanceEntry& b) {
              if (a.fussell_vesely != b.fussell_vesely)
                return a.fussell_vesely > b.fussell_vesely;
              if (a.birnbaum != b.birnbaum) return a.birnbaum > b.birnbaum;
              return a.event->name() < b.event->name();
            });
  out.importance = std::move(ranking);
  return out;
}

std::string render_importance(const std::vector<ImportanceEntry>& ranking) {
  TextTable table({"Basic event", "FV", "Birnbaum", "RAW", "RRW",
                   "#cut sets", "min order"});
  for (const ImportanceEntry& entry : ranking) {
    table.add_row({entry.event->name().str(),
                   format_double(entry.fussell_vesely),
                   format_double(entry.birnbaum), format_double(entry.raw),
                   format_double(entry.rrw),
                   std::to_string(entry.cut_set_count),
                   std::to_string(entry.smallest_order)});
  }
  return table.render();
}

}  // namespace ftsynth
