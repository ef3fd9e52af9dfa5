#include "analysis/importance.h"

#include <algorithm>
#include <limits>
#include <unordered_map>

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
  double with_literal = 0.0;
  double pos_without = 0.0;
  double neg_without = 0.0;
};

}  // namespace

ReliabilitySummary analyse_reliability(const FaultTree& tree,
                                       const CutSetAnalysis& analysis,
                                       const ProbabilityOptions& options,
                                       ProbMode) {
  ReliabilitySummary out;
  std::unordered_map<const FtNode*, ImportanceEntry> entries;
  for (const FtNode* event : tree.basic_events())
    entries.emplace(event, ImportanceEntry{event, 0.0, 0.0, 0.0, 0.0, 0, 0});

  // Bound-engine runs target trees where whole-tree BDD encoding is off
  // the table (that is why the caller chose the engine), so the exact
  // block below must not run: encode_bdd has no budget and would blow up
  // precisely on those inputs. Birnbaum/RAW/RRW instead come from
  // rare-event conditionals over the emitted family.
  const bool bound_run = analysis.p_lower.has_value();
  std::unordered_map<const FtNode*, RareEventMasses> rare_masses;

  // The diagram regime: an exact diagram is present AND extraction was
  // cut short. On clean runs both regimes evaluate the extracted family
  // with the same kernels, so the rendered output is byte-identical with
  // and without a diagram; once extraction truncates, the family numbers
  // are partial while the diagram's are exact -- the whole point of
  // keeping the diagram.
  const CutSetDiagram* diagram = analysis.diagram.get();
  bool use_diagram = diagram != nullptr && diagram->exact &&
                     (analysis.truncated || analysis.deadline_exceeded);
  ZbddMeasures measures;
  if (use_diagram) {
    // ZBDD variable 2r is the plain polarity of events[r], 2r + 1 the
    // negated one with probability 1 - q -- the same convention
    // cut_set_probability applies per literal.
    std::vector<double> var_probs(2 * diagram->events.size(), 0.0);
    for (std::size_t r = 0; r < diagram->events.size(); ++r) {
      const FtNode* event = diagram->events[r];
      if (event == nullptr) continue;  // variable absent from the diagram
      const double q = event_probability(*event, options);
      var_probs[2 * r] = q;
      var_probs[2 * r + 1] = 1.0 - q;
    }
    measures = zbdd_measures(diagram->zbdd, diagram->root, var_probs,
                             options.budget);
    // A deadline mid-sweep degrades to the family numbers: partial sweep
    // results are unusable, while the (equally partial) family numbers
    // preserve the classic deadline behaviour.
    if (!measures.complete) use_diagram = false;
  }

  if (use_diagram) {
    out.diagram_native = true;
    out.p_rare_event = measures.total_mass;
    out.p_esary_proschan = measures.esary_proschan;
    out.p_mcub = measures.mcub;
    for (std::size_t r = 0; r < diagram->events.size(); ++r) {
      const FtNode* event = diagram->events[r];
      if (event == nullptr) continue;
      auto it = entries.find(event);
      if (it == entries.end()) continue;  // undeveloped / loop leaves
      ImportanceEntry& entry = it->second;
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
    // family; bounds from probability.h.
    out.p_rare_event = rare_event_bound(analysis, options);
    out.p_esary_proschan = esary_proschan_bound(analysis, options);
    out.p_mcub = mcub_bound(analysis, options);
    std::vector<double> literal_probs;
    for (const CutSet& cs : analysis.cut_sets) {
      const double p = cut_set_probability(cs, options);
      for (const CutLiteral& literal : cs) {
        auto it = entries.find(literal.event);
        if (it == entries.end()) continue;  // undeveloped / loop leaves
        ImportanceEntry& entry = it->second;
        if (out.p_rare_event > 0.0)
          entry.fussell_vesely += p / out.p_rare_event;
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
        auto it = entries.find(cs[j].event);
        if (it == entries.end()) continue;
        double without = 1.0;
        for (std::size_t i = 0; i < cs.size(); ++i)
          if (i != j) without *= literal_probs[i];
        RareEventMasses& m = rare_masses[cs[j].event];
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
    for (const auto& [event, m] : rare_masses) {
      auto it = entries.find(event);
      if (it == entries.end()) continue;
      const double s_with = s - m.with_literal + m.pos_without;
      const double s_without = s - m.with_literal + m.neg_without;
      it->second.birnbaum = m.pos_without - m.neg_without;
      it->second.raw = s > 0.0 ? s_with / s : 0.0;
      it->second.rrw =
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
      auto it = entries.find(encoding.events[v]);
      if (it == entries.end()) continue;
      const double bm = birnbaum[v];
      const double p_given =
          engine.probability_given(encoding.root, static_cast<int>(v), true);
      const double p_without = engine.probability_given(
          encoding.root, static_cast<int>(v), false);
      it->second.birnbaum = bm;
      it->second.raw = p_top > 0.0 ? p_given / p_top : 0.0;
      it->second.rrw =
          p_without > 0.0 ? p_top / p_without
          : p_top > 0.0   ? std::numeric_limits<double>::infinity()
                          : 0.0;
    }
  }

  std::vector<ImportanceEntry> ranking;
  ranking.reserve(entries.size());
  for (auto& [event, entry] : entries) ranking.push_back(entry);
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
