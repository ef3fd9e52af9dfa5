// Diagram-native probability and importance: the ZBDD engine keeps its
// minimal-family diagram, and the reliability stage evaluates it whenever
// extraction is cut short.
//
// The contract under test has three legs:
//
//   1. Differential: every number the ZBDD measure sweeps produce (mass,
//      count, order, Esary-Proschan, per-variable splits) must agree with
//      the same number computed the classic way -- by enumerating the
//      extracted family -- to 1e-12 relative, over a seeded fuzz corpus
//      of random AND/OR/NOT DAGs. Likewise the one-pass Birnbaum sweep
//      against the per-variable restricted evaluations it replaced.
//
//   2. Regimes: on a CLEAN run the report must be byte-identical with
//      the diagram present and with keep_diagram=false (both paths
//      evaluate the same extracted family); on a TRUNCATED run the
//      diagram must deliver the numbers of the untruncated reference
//      exactly, and a deadline that fires mid-sweep must degrade back to
//      the family-derived partials instead of reporting garbage.
//
//   3. Plumbing: the retired prob_mode wire field, and the cone cache's
//      diagram records -- cones whose family outgrows kMaxCachedSets
//      round-trip through disk as serialised diagrams (byte-identical
//      warm runs), while the set-based engines count an oversize skip for
//      the same cone.

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <string>
#include <unordered_map>
#include <variant>
#include <vector>

#include "analysis/cutsets.h"
#include "analysis/importance.h"
#include "analysis/probability.h"
#include "analysis/report.h"
#include "bdd/bdd_prob.h"
#include "bdd/zbdd_prob.h"
#include "casestudy/synthetic.h"
#include "core/budget.h"
#include "core/diagnostics.h"
#include "core/symbol.h"
#include "fta/fault_tree.h"
#include "fta/synthesis.h"
#include "service/protocol.h"

namespace ftsynth {
namespace {

// -- Helpers ------------------------------------------------------------------

/// Relative 1e-12 agreement (absolute near zero): the diagram sweeps and
/// the family enumeration sum the same products in different orders, so
/// they match to rounding, not bit-for-bit.
void expect_close(double actual, double expected, const char* what) {
  EXPECT_NEAR(actual, expected, 1e-12 * std::max(1.0, std::abs(expected)))
      << what;
}

/// Random AND/OR/NOT DAG, same shape discipline as test_differential_fuzz.cpp:
/// small enough that no engine truncates, NOT only over leaves (the
/// supported non-coherent fragment), shared subtrees arising naturally.
FaultTree random_tree(std::mt19937& rng, int tag) {
  FaultTree tree("prob_fuzz_" + std::to_string(tag));
  std::uniform_int_distribution<int> event_count(4, 10);
  const int events = event_count(rng);

  std::vector<FtNode*> pool;
  std::uniform_real_distribution<double> rate(1e-6, 1e-2);
  for (int i = 0; i < events; ++i)
    pool.push_back(tree.add_basic(Symbol("e" + std::to_string(i)), rate(rng),
                                  "fuzz event", "fuzz"));
  std::uniform_int_distribution<int> not_count(0, 2);
  std::uniform_int_distribution<int> leaf_pick(0, events - 1);
  const int nots = not_count(rng);
  for (int i = 0; i < nots; ++i)
    pool.push_back(tree.add_gate(GateKind::kNot, "not gate",
                                 {pool[leaf_pick(rng)]}));

  std::uniform_int_distribution<int> gate_count(3, 8);
  std::uniform_int_distribution<int> child_count(2, 4);
  std::uniform_int_distribution<int> kind_pick(0, 1);
  const int gates = gate_count(rng);
  FtNode* last = nullptr;
  for (int g = 0; g < gates; ++g) {
    std::uniform_int_distribution<int> pick(0,
                                            static_cast<int>(pool.size()) - 1);
    const int arity = child_count(rng);
    std::vector<FtNode*> children;
    for (int c = 0; c < arity; ++c) {
      FtNode* child = pool[pick(rng)];
      bool duplicate = false;
      for (FtNode* seen : children) duplicate |= seen == child;
      if (!duplicate) children.push_back(child);
    }
    if (children.size() < 2) children.push_back(pool[leaf_pick(rng)]);
    last = tree.add_gate(kind_pick(rng) == 0 ? GateKind::kAnd : GateKind::kOr,
                         "gate " + std::to_string(g), std::move(children));
    pool.push_back(last);
  }
  tree.set_top(last);
  tree.set_top_description("fuzz top " + std::to_string(tag));
  return tree;
}

/// Literal probabilities for a retained diagram: event r owns variable 2r
/// (plain, probability p) and 2r + 1 (negated, 1 - p).
std::vector<double> diagram_probabilities(const CutSetDiagram& diagram,
                                          const ProbabilityOptions& options) {
  std::vector<double> probs(2 * diagram.events.size(), 0.0);
  for (std::size_t r = 0; r < diagram.events.size(); ++r) {
    if (diagram.events[r] == nullptr) continue;
    const double p = event_probability(*diagram.events[r], options);
    probs[2 * r] = p;
    probs[2 * r + 1] = 1.0 - p;
  }
  return probs;
}

/// The replicated-voter fixture whose minimal family (stages^channels ways
/// to lose all lanes, plus the shared supply) dwarfs its linear diagram.
FaultTree replicated_tree(int channels, int stages) {
  synthetic::ReplicatedConfig config;
  config.channels = channels;
  config.stages = stages;
  static std::vector<Model> keep_alive;  // trees point into their models
  keep_alive.push_back(synthetic::build_replicated(config));
  return Synthesiser(keep_alive.back()).synthesise("Omission-sink");
}

// -- The retired prob_mode wire field -----------------------------------------

/// Parses `line`, which must be a valid request.
service::ServiceRequest parse_ok(const std::string& line) {
  const auto parsed = service::parse_wire_request(line);
  const auto* wire = std::get_if<service::WireRequest>(&parsed);
  EXPECT_NE(wire, nullptr) << line;
  return wire != nullptr ? wire->request : service::ServiceRequest{};
}

TEST(ProbModeWireTest, ParsesEveryModeAndDefaultsToAuto) {
  // Every former mode value still parses, into exactly the request a
  // line without the field gives: there is one evaluation path, the one
  // the old default (auto) chose.
  const std::string head =
      R"({"command":"analyse","model":"m.mdl","engine":"zbdd",)"
      R"("deadline_ms":1000)";
  const service::ServiceRequest plain = parse_ok(head + "}");
  for (const char* mode : {"cutsets", "diagram", "auto"}) {
    const service::ServiceRequest request =
        parse_ok(head + R"(,"prob_mode":")" + mode + R"("})");
    EXPECT_EQ(request.command, plain.command) << mode;
    EXPECT_EQ(request.model_path, plain.model_path) << mode;
    EXPECT_EQ(request.engine, plain.engine) << mode;
    EXPECT_EQ(request.deadline_ms, plain.deadline_ms) << mode;
  }
  EXPECT_EQ(plain.engine, CutSetEngine::kZbdd);
}

TEST(ProbModeWireTest, RejectsUnknownMode) {
  // prob_mode and order are no longer fields, so no value of either is
  // rejected; an unknown value of a field that remains (engine) still is.
  for (const char* field : {R"("prob_mode":"exact")",
                            R"("order":"sift-converge")"}) {
    const service::ServiceRequest ignored = parse_ok(
        R"({"command":"analyse","model":"m.mdl","deadline_ms":1000,)" +
        std::string(field) + "}");
    EXPECT_EQ(ignored.command, "analyse") << field;
  }
  const char* line =
      R"({"command":"analyse","model":"m.mdl","deadline_ms":1000,)"
      R"("engine":"exact"})";
  const auto parsed = service::parse_wire_request(line);
  const auto* error = std::get_if<service::WireError>(&parsed);
  ASSERT_NE(error, nullptr) << line;
  EXPECT_EQ(error->code, service::WireErrorCode::kBadRequest) << line;
  EXPECT_NE(error->message.find("unknown engine"), std::string::npos)
      << error->message;
}

/// analyse_tree with the ZBDD diagram withheld (keep_diagram=false): the
/// cut-set reference path, every number evaluated over the extracted
/// family.
TreeAnalysis analyse_without_diagram(const FaultTree& tree,
                                     const AnalysisOptions& options) {
  TreeAnalysis analysis;
  analysis.top_event = tree.top_description();
  analysis.tree_stats = tree.stats();
  CutSetOptions cut_options = options.cut_sets;
  cut_options.keep_diagram = false;
  analysis.cut_sets = compute_cut_sets(tree, cut_options);
  analysis.common_cause = analyse_common_cause(tree, analysis.cut_sets);
  ReliabilitySummary reliability =
      analyse_reliability(tree, analysis.cut_sets, options.probability);
  analysis.importance = std::move(reliability.importance);
  analysis.p_rare_event = reliability.p_rare_event;
  analysis.p_esary_proschan = reliability.p_esary_proschan;
  analysis.p_mcub = reliability.p_mcub;
  analysis.p_exact = reliability.p_exact;
  analysis.diagram_native = reliability.diagram_native;
  return analysis;
}

// -- Differential: diagram sweeps vs family enumeration -----------------------

TEST(DiagramMeasuresFuzz, SweepsMatchFamilyDerivedNumbers) {
  ProbabilityOptions prob_options;
  for (int seed = 1; seed <= 8; ++seed) {
    std::mt19937 rng(static_cast<unsigned>(seed) * 2654435761u + 17u);
    for (int t = 0; t < 6; ++t) {
      FaultTree tree = random_tree(rng, seed * 100 + t);
      CutSetOptions options;
      options.engine = CutSetEngine::kZbdd;
      options.keep_diagram = true;
      CutSetAnalysis analysis = compute_cut_sets(tree, options);
      ASSERT_FALSE(analysis.truncated) << "seed=" << seed << " tree=" << t;
      ASSERT_NE(analysis.diagram, nullptr);
      ASSERT_TRUE(analysis.diagram->exact);
      const CutSetDiagram& diagram = *analysis.diagram;

      const std::vector<double> probs =
          diagram_probabilities(diagram, prob_options);
      const ZbddMeasures measures =
          zbdd_measures(diagram.zbdd, diagram.root, probs);
      ASSERT_TRUE(measures.complete);

      // Family-level measures against the probability.h reference path.
      EXPECT_EQ(measures.set_count,
                static_cast<double>(analysis.cut_sets.size()));
      EXPECT_EQ(measures.min_order, analysis.min_order());
      const std::vector<double> set_probs =
          cut_set_probabilities(analysis, prob_options);
      expect_close(measures.total_mass, rare_event_bound(set_probs),
                   "total mass");
      const double esary = esary_proschan_bound(set_probs);
      if (measures.esary_converged) {
        expect_close(measures.esary_proschan, esary, "esary-proschan");
      } else {
        // A near-probability-1 set (a negated rare literal) can cap out
        // the power-sum series; the partial bound is documented to come
        // back slightly LOW. Tolerate the truncated tail, never an
        // overshoot.
        EXPECT_LE(measures.esary_proschan, esary + 1e-15);
        EXPECT_NEAR(measures.esary_proschan, esary, 1e-8);
      }
      // MCUB: the same product bound through -expm1, so the sweep value
      // and the family-derived log-space evaluation agree to rounding.
      const double mcub = mcub_bound(set_probs);
      EXPECT_EQ(measures.mcub_converged, measures.esary_converged);
      if (measures.mcub_converged) {
        EXPECT_NEAR(measures.mcub, mcub,
                    1e-12 * std::max(1.0, std::abs(mcub)))
            << "seed=" << seed << " tree=" << t;
      } else {
        EXPECT_LE(measures.mcub, mcub + 1e-15);
      }
      // The bound itself sits between its cruder neighbours: never above
      // the rare-event sum, never meaningfully below EP's evaluation.
      EXPECT_LE(mcub, rare_event_bound(set_probs) + 1e-15);

      // Per-event splits against a direct sweep over the extracted sets.
      std::unordered_map<const FtNode*, std::size_t> index;
      for (std::size_t r = 0; r < diagram.events.size(); ++r)
        if (diagram.events[r] != nullptr) index.emplace(diagram.events[r], r);
      std::vector<double> family_mass(diagram.events.size(), 0.0);
      std::vector<double> family_count(diagram.events.size(), 0.0);
      std::vector<std::size_t> family_min(diagram.events.size(), 0);
      for (const CutSet& cs : analysis.cut_sets) {
        const double p = cut_set_probability(cs, prob_options);
        for (const CutLiteral& literal : cs) {
          auto it = index.find(literal.event);
          ASSERT_NE(it, index.end());
          const std::size_t r = it->second;
          family_mass[r] += p;
          family_count[r] += 1.0;
          if (family_min[r] == 0 || cs.size() < family_min[r])
            family_min[r] = cs.size();
        }
      }
      for (std::size_t r = 0; r < diagram.events.size(); ++r) {
        if (diagram.events[r] == nullptr) continue;
        // Either polarity of the event counts toward its importance,
        // exactly as the classic literal loop attributes them.
        expect_close(
            measures.var_mass[2 * r] + measures.var_mass[2 * r + 1],
            family_mass[r], "per-event mass");
        EXPECT_EQ(
            measures.var_count[2 * r] + measures.var_count[2 * r + 1],
            family_count[r]);
        std::size_t sweep_min = measures.var_min_order[2 * r];
        const std::size_t negated = measures.var_min_order[2 * r + 1];
        if (sweep_min == 0 || (negated != 0 && negated < sweep_min))
          sweep_min = negated;
        EXPECT_EQ(sweep_min, family_min[r]);
      }
    }
  }
}

TEST(BirnbaumSweepFuzz, MatchesPerVariableEvaluation) {
  ProbabilityOptions options;
  for (int seed = 1; seed <= 6; ++seed) {
    std::mt19937 rng(static_cast<unsigned>(seed) * 40503u + 3u);
    for (int t = 0; t < 6; ++t) {
      FaultTree tree = random_tree(rng, seed * 100 + t);
      BddEncoding encoding = encode_bdd(tree);
      const std::vector<double> probs = encoding.probabilities(options);
      BddProbabilityEngine engine(encoding.bdd, probs);
      const std::vector<double> sweep = engine.birnbaum_all(encoding.root);
      ASSERT_EQ(sweep.size(), probs.size());
      for (std::size_t v = 0; v < encoding.events.size(); ++v) {
        const double reference =
            bdd_birnbaum(encoding.bdd, encoding.root, probs,
                         static_cast<int>(v));
        EXPECT_NEAR(sweep[v], reference,
                    1e-12 * std::max(1.0, std::abs(reference)))
            << "seed=" << seed << " tree=" << t << " var=" << v;
      }
    }
  }
}

// -- Regimes: clean runs, truncated runs, deadline degradation ----------------

TEST(ProbModeFuzz, CleanRunRendersByteIdenticalAcrossModes) {
  // The diagram present (analyse_tree under zbdd) vs withheld
  // (keep_diagram=false): clean runs render the same bytes.
  for (int seed = 1; seed <= 4; ++seed) {
    std::mt19937 rng(static_cast<unsigned>(seed) * 69069u + 7u);
    for (int t = 0; t < 4; ++t) {
      FaultTree tree = random_tree(rng, seed * 100 + t);
      AnalysisOptions options;
      options.cut_sets.engine = CutSetEngine::kZbdd;
      const TreeAnalysis reference = analyse_without_diagram(tree, options);
      ASSERT_FALSE(reference.cut_sets.truncated);
      EXPECT_FALSE(reference.diagram_native);
      const std::string expected = render(tree, reference, options);

      const TreeAnalysis analysis = analyse_tree(tree, options);
      // Clean run: even with the diagram present the extracted family is
      // evaluated.
      EXPECT_FALSE(analysis.diagram_native);
      EXPECT_EQ(render(tree, analysis, options), expected)
          << "seed=" << seed << " tree=" << t;
    }
  }
}

TEST(DiagramNativeTest, TruncatedRunKeepsExactNumbers) {
  FaultTree tree = replicated_tree(3, 12);  // 12^3 lane sets + supply

  AnalysisOptions reference_options;
  reference_options.cut_sets.engine = CutSetEngine::kZbdd;
  const TreeAnalysis reference =
      analyse_without_diagram(tree, reference_options);
  ASSERT_FALSE(reference.cut_sets.truncated);
  ASSERT_GT(reference.cut_sets.cut_sets.size(), 1000u);

  AnalysisOptions truncated_options = reference_options;
  truncated_options.cut_sets.max_sets = 256;
  const TreeAnalysis truncated = analyse_tree(tree, truncated_options);
  ASSERT_TRUE(truncated.cut_sets.truncated);
  EXPECT_TRUE(truncated.diagram_native);
  // The listing is a bounded sample, not the family...
  EXPECT_LE(truncated.cut_sets.cut_sets.size(), 257u);
  // ...but every reliability number matches the untruncated reference.
  expect_close(truncated.p_exact, reference.p_exact, "p_exact");
  expect_close(truncated.p_rare_event, reference.p_rare_event,
               "rare-event bound");
  expect_close(truncated.p_esary_proschan, reference.p_esary_proschan,
               "esary-proschan bound");
  ASSERT_EQ(truncated.importance.size(), reference.importance.size());
  std::unordered_map<const FtNode*, const ImportanceEntry*> by_event;
  for (const ImportanceEntry& entry : reference.importance)
    by_event.emplace(entry.event, &entry);
  for (const ImportanceEntry& entry : truncated.importance) {
    const auto it = by_event.find(entry.event);
    ASSERT_NE(it, by_event.end());
    const ImportanceEntry& expected = *it->second;
    expect_close(entry.fussell_vesely, expected.fussell_vesely, "FV");
    expect_close(entry.birnbaum, expected.birnbaum, "Birnbaum");
    EXPECT_EQ(entry.cut_set_count, expected.cut_set_count)
        << entry.event->name().str();
    EXPECT_EQ(entry.smallest_order, expected.smallest_order)
        << entry.event->name().str();
  }

  // The same truncated run without the diagram reports the partial sums:
  // the truncated listing carries strictly less mass than the full family.
  const TreeAnalysis partial =
      analyse_without_diagram(tree, truncated_options);
  EXPECT_FALSE(partial.diagram_native);
  EXPECT_LT(partial.p_rare_event, reference.p_rare_event);
}

TEST(DiagramNativeTest, DeadlineMidSweepFallsBackToFamily) {
  FaultTree tree = replicated_tree(3, 12);
  CutSetOptions cut_options;
  cut_options.engine = CutSetEngine::kZbdd;
  cut_options.max_sets = 256;
  cut_options.keep_diagram = true;
  const CutSetAnalysis analysis = compute_cut_sets(tree, cut_options);
  ASSERT_TRUE(analysis.truncated);
  ASSERT_NE(analysis.diagram, nullptr);
  ASSERT_TRUE(analysis.diagram->exact);

  ProbabilityOptions expired;
  expired.budget.force_expire();
  // The sweep itself reports the interrupt...
  const ZbddMeasures measures = zbdd_measures(
      analysis.diagram->zbdd, analysis.diagram->root,
      diagram_probabilities(*analysis.diagram, expired), expired.budget);
  EXPECT_FALSE(measures.complete);

  // ...and the reliability stage degrades to the family-derived partials
  // instead of using them: the numbers of the same listing without the
  // diagram.
  const ReliabilitySummary degraded =
      analyse_reliability(tree, analysis, expired);
  EXPECT_FALSE(degraded.diagram_native);
  CutSetAnalysis listing = analysis;
  listing.diagram.reset();
  ProbabilityOptions fresh;
  const ReliabilitySummary family =
      analyse_reliability(tree, listing, fresh);
  EXPECT_EQ(degraded.p_rare_event, family.p_rare_event);
  EXPECT_EQ(degraded.p_esary_proschan, family.p_esary_proschan);
  ASSERT_EQ(degraded.importance.size(), family.importance.size());
  for (std::size_t i = 0; i < family.importance.size(); ++i) {
    EXPECT_EQ(degraded.importance[i].event, family.importance[i].event);
    EXPECT_EQ(degraded.importance[i].fussell_vesely,
              family.importance[i].fussell_vesely);
    EXPECT_EQ(degraded.importance[i].cut_set_count,
              family.importance[i].cut_set_count);
  }
}

}  // namespace
}  // namespace ftsynth
