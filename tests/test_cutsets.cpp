// Unit and property tests for the cut-set engines.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "analysis/cutsets.h"
#include "analysis/probability.h"
#include "analysis/report.h"
#include "casestudy/setta.h"
#include "casestudy/synthetic.h"
#include "fta/fault_tree.h"
#include "fta/synthesis.h"

namespace ftsynth {
namespace {

FtNode* basic(FaultTree& tree, const char* name) {
  return tree.add_basic(Symbol(name), 1e-6, "", "");
}

TEST(CutSets, SingleEvent) {
  FaultTree tree("t");
  tree.set_top(basic(tree, "a"));
  CutSetAnalysis analysis = minimal_cut_sets(tree);
  ASSERT_EQ(analysis.cut_sets.size(), 1u);
  EXPECT_EQ(analysis.cut_sets[0].size(), 1u);
  EXPECT_EQ(analysis.cut_sets[0][0].event->name(), Symbol("a"));
  EXPECT_EQ(analysis.min_order(), 1u);
}

TEST(CutSets, EmptyTreeHasNone) {
  FaultTree tree("t");
  EXPECT_TRUE(minimal_cut_sets(tree).cut_sets.empty());
  EXPECT_TRUE(zbdd_cut_sets(tree).cut_sets.empty());
}

TEST(CutSets, AbsorptionRemovesSupersets) {
  // top = a OR (a AND b): {a} absorbs {a, b}.
  FaultTree tree("t");
  FtNode* a = basic(tree, "a");
  FtNode* b = basic(tree, "b");
  FtNode* conj = tree.add_gate(GateKind::kAnd, "", {a, b});
  tree.set_top(tree.add_gate(GateKind::kOr, "", {a, conj}));
  CutSetAnalysis analysis = minimal_cut_sets(tree);
  EXPECT_EQ(analysis.to_string(), "{a}\n");
}

TEST(CutSets, SharedEventCollapsesProduct) {
  // (a OR x) AND (b OR x): minimal sets {x}, {a, b}.
  FaultTree tree("t");
  FtNode* a = basic(tree, "a");
  FtNode* b = basic(tree, "b");
  FtNode* x = basic(tree, "x");
  FtNode* left = tree.add_gate(GateKind::kOr, "", {a, x});
  FtNode* right = tree.add_gate(GateKind::kOr, "", {b, x});
  tree.set_top(tree.add_gate(GateKind::kAnd, "", {left, right}));
  CutSetAnalysis analysis = minimal_cut_sets(tree);
  EXPECT_EQ(analysis.to_string(), "{x}\n{a, b}\n");
}

TEST(CutSets, ContradictionsAreDropped) {
  // a AND NOT a is impossible.
  FaultTree tree("t");
  FtNode* a = basic(tree, "a");
  FtNode* na = tree.add_gate(GateKind::kNot, "", {a});
  tree.set_top(tree.add_gate(GateKind::kAnd, "", {a, na}));
  EXPECT_TRUE(minimal_cut_sets(tree).cut_sets.empty());
}

TEST(CutSets, NegatedLiteralsSurvive) {
  FaultTree tree("t");
  FtNode* fault = basic(tree, "fault");
  FtNode* detector = basic(tree, "detector_ok");
  FtNode* nd = tree.add_gate(GateKind::kNot, "", {detector});
  tree.set_top(tree.add_gate(GateKind::kAnd, "", {fault, nd}));
  CutSetAnalysis analysis = minimal_cut_sets(tree);
  EXPECT_EQ(analysis.to_string(), "{NOT detector_ok, fault}\n");
}

TEST(CutSets, OrderTruncationFlagged) {
  // (a1 AND a2 AND a3) OR b with max_order 2 keeps only {b}.
  FaultTree tree("t");
  FtNode* conj = tree.add_gate(
      GateKind::kAnd, "",
      {basic(tree, "a1"), basic(tree, "a2"), basic(tree, "a3")});
  tree.set_top(tree.add_gate(GateKind::kOr, "", {conj, basic(tree, "b")}));
  CutSetOptions options;
  options.max_order = 2;
  CutSetAnalysis analysis = minimal_cut_sets(tree, options);
  EXPECT_TRUE(analysis.truncated);
  EXPECT_EQ(analysis.to_string(), "{b}\n(truncated: limits reached)\n");
}

TEST(CutSets, HouseTopYieldsEmptyCutSet) {
  FaultTree tree("t");
  tree.set_top(tree.add_house(Symbol("always"), ""));
  CutSetAnalysis analysis = minimal_cut_sets(tree);
  ASSERT_EQ(analysis.cut_sets.size(), 1u);
  EXPECT_TRUE(analysis.cut_sets[0].empty());
}

TEST(CutSets, CanonicalOrderingIsByOrderThenName) {
  FaultTree tree("t");
  FtNode* z = basic(tree, "z");
  FtNode* m = basic(tree, "m");
  FtNode* a = basic(tree, "a");
  FtNode* pair = tree.add_gate(GateKind::kAnd, "", {z, a});
  tree.set_top(tree.add_gate(GateKind::kOr, "", {pair, m}));
  CutSetAnalysis analysis = minimal_cut_sets(tree);
  EXPECT_EQ(analysis.to_string(), "{m}\n{a, z}\n");
  EXPECT_EQ(analysis.of_order(1).size(), 1u);
  EXPECT_EQ(analysis.of_order(2).size(), 1u);
  EXPECT_TRUE(analysis.of_order(3).empty());
}

/// Ground truth by exhaustion: the minimal sets of events whose failure
/// (all other events working) triggers the top, over every assignment of
/// `events`, rendered like CutSetAnalysis::to_string. `events` must be
/// listed in name order and the tree must hold only AND and OR gates.
std::string brute_force_minimal_sets(const FaultTree& tree,
                                     const std::vector<FtNode*>& events) {
  const std::uint32_t rows = 1u << events.size();
  auto fails = [&](std::uint32_t mask) {
    auto eval = [&](auto&& self, const FtNode* node) -> bool {
      if (node->kind() == NodeKind::kBasic) {
        const auto it = std::find(events.begin(), events.end(), node);
        return ((mask >> (it - events.begin())) & 1u) != 0;
      }
      const bool is_and = node->gate() == GateKind::kAnd;
      for (const FtNode* child : node->children())
        if (self(self, child) != is_and) return !is_and;
      return is_and;
    };
    return eval(eval, tree.top());
  };
  std::vector<std::uint32_t> minimal;
  for (std::uint32_t mask = 0; mask < rows; ++mask) {
    if (!fails(mask)) continue;
    bool has_failing_subset = false;
    for (std::uint32_t bit = 1; bit < rows; bit <<= 1)
      if ((mask & bit) != 0 && fails(mask & ~bit)) has_failing_subset = true;
    if (!has_failing_subset) minimal.push_back(mask);
  }
  // Canonical listing order: by size, then lexicographically by names.
  std::vector<std::vector<std::string>> sets;
  for (std::uint32_t mask : minimal) {
    std::vector<std::string> names;
    for (std::size_t e = 0; e < events.size(); ++e)
      if (((mask >> e) & 1u) != 0) names.push_back(events[e]->name().str());
    sets.push_back(std::move(names));
  }
  std::sort(sets.begin(), sets.end(), [](const auto& a, const auto& b) {
    return a.size() != b.size() ? a.size() < b.size() : a < b;
  });
  std::string out;
  for (const std::vector<std::string>& names : sets) {
    out += "{";
    for (std::size_t i = 0; i < names.size(); ++i)
      out += (i != 0 ? ", " : "") + names[i];
    out += "}\n";
  }
  return out;
}

/// Property: on random coherent DAG trees over 6 events, every engine
/// lists exactly the minimal failing sets that exhaustion over the 2^6
/// assignments finds, and the rare-event bound dominates the exact
/// probability.
class CutSetEngines : public ::testing::TestWithParam<int> {};

TEST_P(CutSetEngines, AgreeOnRandomTrees) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()));
  std::uniform_real_distribution<double> uniform(0.0, 1.0);

  FaultTree tree("random");
  std::vector<FtNode*> pool;
  for (int i = 0; i < 6; ++i) {
    pool.push_back(
        tree.add_basic(Symbol("e" + std::to_string(i)), 1e-3, "", ""));
  }
  auto pick = [&](std::size_t size) {
    return std::uniform_int_distribution<std::size_t>(0, size - 1)(rng);
  };
  for (int step = 0; step < 10; ++step) {
    FtNode* a = pool[pick(pool.size())];
    FtNode* b = pool[pick(pool.size())];
    if (a == b) continue;
    pool.push_back(tree.add_gate(
        uniform(rng) < 0.5 ? GateKind::kAnd : GateKind::kOr, "", {a, b}));
  }
  tree.set_top(pool.back());

  const std::vector<FtNode*> events(pool.begin(), pool.begin() + 6);
  const std::string truth = brute_force_minimal_sets(tree, events);
  ASSERT_FALSE(truth.empty());
  CutSetAnalysis bottom_up = minimal_cut_sets(tree);
  EXPECT_EQ(bottom_up.to_string(), truth);
  EXPECT_EQ(zbdd_cut_sets(tree).to_string(), truth);

  // Probability sandwich (coherent trees only -- no NOT here).
  ProbabilityOptions probability;
  probability.mission_time_hours = 1.0;
  const double exact = exact_probability(tree, probability);
  // The per-set probabilities the bounds are summed from are exactly the
  // sets' own cut_set_probability values.
  const std::vector<double> set_probs =
      cut_set_probabilities(bottom_up, probability);
  ASSERT_EQ(set_probs.size(), bottom_up.cut_sets.size());
  for (std::size_t i = 0; i < set_probs.size(); ++i) {
    EXPECT_EQ(set_probs[i],
              cut_set_probability(bottom_up.cut_sets[i], probability));
  }
  EXPECT_LE(exact, rare_event_bound(set_probs) + 1e-12);
  EXPECT_LE(esary_proschan_bound(set_probs),
            rare_event_bound(set_probs) + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CutSetEngines, ::testing::Range(0, 30));

TEST(ZbddCutSets, AgreesOnHandExamples) {
  // Absorption: a OR (a AND b) = {a}.
  FaultTree tree("t");
  FtNode* a = basic(tree, "a");
  FtNode* b = basic(tree, "b");
  FtNode* conj = tree.add_gate(GateKind::kAnd, "", {a, b});
  tree.set_top(tree.add_gate(GateKind::kOr, "", {a, conj}));
  EXPECT_EQ(zbdd_cut_sets(tree).to_string(), "{a}\n");

  // Shared event: (a OR x) AND (b OR x) = {x}, {a, b}.
  FaultTree shared("s");
  FtNode* sa = basic(shared, "a");
  FtNode* sb = basic(shared, "b");
  FtNode* sx = basic(shared, "x");
  FtNode* left = shared.add_gate(GateKind::kOr, "", {sa, sx});
  FtNode* right = shared.add_gate(GateKind::kOr, "", {sb, sx});
  shared.set_top(shared.add_gate(GateKind::kAnd, "", {left, right}));
  EXPECT_EQ(zbdd_cut_sets(shared).to_string(), "{x}\n{a, b}\n");
}

TEST(ZbddCutSets, HandlesEmptyHouseAndNegatedTrees) {
  FaultTree empty("e");
  EXPECT_TRUE(zbdd_cut_sets(empty).cut_sets.empty());

  FaultTree house("h");
  house.set_top(house.add_house(Symbol("always"), ""));
  CutSetAnalysis analysis = zbdd_cut_sets(house);
  ASSERT_EQ(analysis.cut_sets.size(), 1u);
  EXPECT_TRUE(analysis.cut_sets[0].empty());

  // a AND NOT a: contradictory, no cut sets.
  FaultTree contra("c");
  FtNode* ca = basic(contra, "a");
  FtNode* cn = contra.add_gate(GateKind::kNot, "", {ca});
  contra.set_top(contra.add_gate(GateKind::kAnd, "", {ca, cn}));
  EXPECT_TRUE(zbdd_cut_sets(contra).cut_sets.empty());

  // fault AND NOT detector survives with the negated literal.
  FaultTree guarded("g");
  FtNode* fault = basic(guarded, "fault");
  FtNode* detector = basic(guarded, "detector_ok");
  FtNode* nd = guarded.add_gate(GateKind::kNot, "", {detector});
  guarded.set_top(guarded.add_gate(GateKind::kAnd, "", {fault, nd}));
  EXPECT_EQ(zbdd_cut_sets(guarded).to_string(),
            "{NOT detector_ok, fault}\n");
}

TEST(ZbddCutSets, HonoursOrderAndSetLimits) {
  // (a1 AND a2 AND a3) OR b with max_order 2 keeps only {b}.
  FaultTree tree("t");
  FtNode* conj = tree.add_gate(
      GateKind::kAnd, "",
      {basic(tree, "a1"), basic(tree, "a2"), basic(tree, "a3")});
  tree.set_top(tree.add_gate(GateKind::kOr, "", {conj, basic(tree, "b")}));
  CutSetOptions options;
  options.max_order = 2;
  CutSetAnalysis analysis = zbdd_cut_sets(tree, options);
  EXPECT_TRUE(analysis.truncated);
  EXPECT_EQ(analysis.to_string(), "{b}\n(truncated: limits reached)\n");
}

TEST(ComputeCutSets, DispatchesOnTheEngineOption) {
  FaultTree tree("t");
  FtNode* a = basic(tree, "a");
  FtNode* b = basic(tree, "b");
  tree.set_top(tree.add_gate(GateKind::kOr, "", {a, b}));
  for (CutSetEngine engine : {CutSetEngine::kMicsup, CutSetEngine::kZbdd,
                              CutSetEngine::kBound}) {
    CutSetOptions options;
    options.engine = engine;
    options.bound_epsilon = -1.0;  // the bound engine runs to exhaustion
    EXPECT_EQ(compute_cut_sets(tree, options).to_string(), "{a}\n{b}\n");
  }
}

TEST(CutSetEnginesDeadline, PartialResultsKeepTheFlags) {
  // An already-expired deadline: every engine must return (possibly empty)
  // partial results with both flags latched, on every engine.
  FaultTree tree("t");
  std::vector<FtNode*> ors;
  for (int g = 0; g < 8; ++g) {
    std::vector<FtNode*> leaves;
    for (int e = 0; e < 8; ++e) {
      leaves.push_back(
          basic(tree, ("g" + std::to_string(g) + "e" + std::to_string(e))
                          .c_str()));
    }
    ors.push_back(tree.add_gate(GateKind::kOr, "", std::move(leaves)));
  }
  tree.set_top(tree.add_gate(GateKind::kAnd, "", std::move(ors)));
  for (CutSetEngine engine : {CutSetEngine::kMicsup, CutSetEngine::kZbdd}) {
    CutSetOptions options;
    options.engine = engine;
    options.budget.set_deadline_ms(0);  // expired before the run starts
    CutSetAnalysis analysis = compute_cut_sets(tree, options);
    EXPECT_TRUE(analysis.deadline_exceeded) << static_cast<int>(engine);
    EXPECT_TRUE(analysis.truncated) << static_cast<int>(engine);
    EXPECT_NE(analysis.to_string().find("deadline exceeded"),
              std::string::npos);
  }
}

/// Property: random trees WITH NOT gates: the two exact engines agree,
/// including on contradictory products (DifferentialFuzz checks the same
/// family against brute force).
class NegatedCutSetEngines : public ::testing::TestWithParam<int> {};

TEST_P(NegatedCutSetEngines, AgreeOnRandomNegatedTrees) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 7919u + 13u);
  std::uniform_real_distribution<double> uniform(0.0, 1.0);

  FaultTree tree("random_negated");
  std::vector<FtNode*> pool;
  for (int i = 0; i < 5; ++i) {
    FtNode* event =
        tree.add_basic(Symbol("e" + std::to_string(i)), 1e-3, "", "");
    pool.push_back(event);
    // Both polarities of some events circulate, so AND products can hit
    // x AND NOT x contradictions.
    if (uniform(rng) < 0.6)
      pool.push_back(tree.add_gate(GateKind::kNot, "", {event}));
  }
  auto pick = [&](std::size_t size) {
    return std::uniform_int_distribution<std::size_t>(0, size - 1)(rng);
  };
  for (int step = 0; step < 9; ++step) {
    FtNode* a = pool[pick(pool.size())];
    FtNode* b = pool[pick(pool.size())];
    if (a == b) continue;
    pool.push_back(tree.add_gate(
        uniform(rng) < 0.5 ? GateKind::kAnd : GateKind::kOr, "", {a, b}));
  }
  tree.set_top(pool.back());

  EXPECT_EQ(minimal_cut_sets(tree).to_string(),
            zbdd_cut_sets(tree).to_string());
}

INSTANTIATE_TEST_SUITE_P(Seeds, NegatedCutSetEngines, ::testing::Range(0, 30));

TEST(CutSetEngines, AgreeOnCaseStudyModels) {
  // The synthesized case-study trees are the representative workload: both
  // exact engines must produce identical canonical families on them.
  struct Case {
    Model model;
    std::string top;
  };
  std::vector<Case> cases;
  cases.push_back({setta::build_bbw(), "Omission-brake_force_fl"});
  synthetic::ReplicatedConfig config;
  config.channels = 3;
  config.stages = 3;
  cases.push_back({synthetic::build_replicated(config), "Omission-sink"});
  for (Case& c : cases) {
    Synthesiser synthesiser(c.model);
    FaultTree tree = synthesiser.synthesise(c.top);
    ASSERT_NE(tree.top(), nullptr) << c.top;
    EXPECT_EQ(zbdd_cut_sets(tree).to_string(),
              minimal_cut_sets(tree).to_string())
        << c.top;
  }

  // The 4-lane top is the heavyweight case: the symbolic engine must match
  // the default engine set-for-set (2412 sets on the seed BBW model).
  Synthesiser bbw(cases.front().model);
  FaultTree total = bbw.synthesise("Omission-total_braking");
  CutSetAnalysis reference = minimal_cut_sets(total);
  CutSetAnalysis symbolic = zbdd_cut_sets(total);
  EXPECT_FALSE(reference.truncated);
  EXPECT_FALSE(symbolic.truncated);
  EXPECT_EQ(symbolic.to_string(), reference.to_string());
}

/// (name, polarity) of every literal: the canonical order's key, built
/// from the names themselves rather than from any engine's ids.
std::vector<std::pair<std::string, bool>> literal_keys(const CutSet& cs) {
  std::vector<std::pair<std::string, bool>> keys;
  for (const CutLiteral& literal : cs)
    keys.emplace_back(literal.event->name().str(), literal.negated);
  return keys;
}

/// Asserts `analysis` lists its sets in the canonical (size, name,
/// polarity) order -- literals within a set ascending, sets by size then
/// lexicographically -- with every literal a leaf of the caller's `tree`.
void expect_canonical(const CutSetAnalysis& analysis, const FaultTree& tree,
                      const std::string& label) {
  const CutSetList& sets = analysis.cut_sets;
  for (std::size_t i = 0; i < sets.size(); ++i) {
    const auto keys = literal_keys(sets[i]);
    EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end())) << label << " #" << i;
    EXPECT_EQ(std::adjacent_find(keys.begin(), keys.end()), keys.end())
        << label << " #" << i;
    for (const CutLiteral& literal : sets[i]) {
      EXPECT_EQ(tree.find_event(literal.event->name()), literal.event)
          << label << ": literal outside the caller's tree";
    }
    if (i == 0) continue;
    const auto previous = literal_keys(sets[i - 1]);
    const bool in_order = previous.size() != keys.size()
                              ? previous.size() < keys.size()
                              : previous <= keys;
    EXPECT_TRUE(in_order) << label << " #" << i;
  }
}

/// Leaves z, y, x, ... are met depth-first in the reverse of their name
/// order, so an engine that listed sets in its interning order would print
/// them backwards. NOT leaves make both polarities of y and z circulate.
FaultTree reverse_named_tree() {
  FaultTree tree("reverse");
  FtNode* z = basic(tree, "z");
  FtNode* y = basic(tree, "y");
  FtNode* x = basic(tree, "x");
  FtNode* w = basic(tree, "w");
  FtNode* v = basic(tree, "v");
  FtNode* u = basic(tree, "u");
  FtNode* not_y = tree.add_gate(GateKind::kNot, "", {y});
  FtNode* not_z = tree.add_gate(GateKind::kNot, "", {z});
  FtNode* first = tree.add_gate(GateKind::kOr, "", {z, not_y, x});
  FtNode* second = tree.add_gate(GateKind::kOr, "", {w, not_z, v});
  FtNode* third = tree.add_gate(GateKind::kOr, "", {u, y, x});
  FtNode* product = tree.add_gate(GateKind::kAnd, "", {first, second, third});
  tree.set_top(tree.add_gate(GateKind::kOr, "", {product, tree.add_gate(
      GateKind::kAnd, "", {v, u})}));
  return tree;
}

TEST(CanonicalOrder, EveryEngineListsByOrderNameAndPolarity) {
  FaultTree reverse = reverse_named_tree();
  synthetic::ReplicatedConfig config;
  config.channels = 3;
  config.stages = 6;
  const Model model = synthetic::build_replicated(config);
  Synthesiser synthesiser(model);
  FaultTree replicated = synthesiser.synthesise("Omission-sink");
  ASSERT_NE(replicated.top(), nullptr);
  for (const FaultTree* tree : {&reverse, &replicated}) {
    for (CutSetEngine engine : {CutSetEngine::kMicsup, CutSetEngine::kZbdd,
                                CutSetEngine::kBound}) {
      CutSetOptions options;
      options.engine = engine;
      options.bound_epsilon = -1.0;  // the bound engine runs to exhaustion
      const CutSetAnalysis analysis = compute_cut_sets(*tree, options);
      const std::string label = tree->name() + "/" + to_string(engine);
      EXPECT_FALSE(analysis.truncated) << label;
      EXPECT_FALSE(analysis.cut_sets.empty()) << label;
      expect_canonical(analysis, *tree, label);
    }
  }
}

TEST(CanonicalOrder, TruncatedAndPartialListingsStayCanonical) {
  // max_sets truncation keeps a canonical listing.
  synthetic::ReplicatedConfig config;
  config.channels = 3;
  config.stages = 6;
  const Model model = synthetic::build_replicated(config);
  Synthesiser synthesiser(model);
  FaultTree replicated = synthesiser.synthesise("Omission-sink");
  ASSERT_NE(replicated.top(), nullptr);
  const CutSetAnalysis clean = minimal_cut_sets(replicated);
  ASSERT_GT(clean.cut_sets.size(), 20u);
  for (CutSetEngine engine : {CutSetEngine::kMicsup, CutSetEngine::kZbdd,
                              CutSetEngine::kBound}) {
    CutSetOptions limited;
    limited.engine = engine;
    limited.max_sets = 20;
    limited.bound_epsilon = -1.0;
    const CutSetAnalysis truncated = compute_cut_sets(replicated, limited);
    const std::string label = "max_sets/" + to_string(engine);
    EXPECT_TRUE(truncated.truncated) << label;
    ASSERT_EQ(truncated.cut_sets.size(), 20u) << label;
    expect_canonical(truncated, replicated, label);
    if (engine != CutSetEngine::kZbdd) continue;
    // zbdd samples the complete family, so it keeps exactly the clean
    // listing's first 20 sets: ties at the cut-off size go by name.
    for (std::size_t i = 0; i < 20; ++i) {
      EXPECT_EQ(literal_keys(truncated.cut_sets[i]),
                literal_keys(clean.cut_sets[i]))
          << label << " #" << i;
    }
  }

  // A deadline-partial run returns unminimised products in no particular
  // order; the listing must still come out canonical. The deadline is
  // doubled until one bites mid-expansion with sets in hand.
  FaultTree lanes("lanes");
  std::vector<FtNode*> ors;
  for (int g = 0; g < 8; ++g) {
    std::vector<FtNode*> leaves;
    for (int e = 9; e >= 0; --e) {
      FtNode* leaf = basic(
          lanes, ("e" + std::to_string(e) + "g" + std::to_string(g)).c_str());
      leaves.push_back(e % 3 == 0 ? lanes.add_gate(GateKind::kNot, "", {leaf})
                                  : leaf);
    }
    ors.push_back(lanes.add_gate(GateKind::kOr, "", std::move(leaves)));
  }
  lanes.set_top(lanes.add_gate(GateKind::kAnd, "", std::move(ors)));
  bool partial_seen = false;
  for (long ms = 1; ms <= 256 && !partial_seen; ms *= 2) {
    CutSetOptions options;
    options.max_sets = 1u << 14;  // keeps the post-expiry unwind cheap
    options.budget.set_deadline_ms(ms);
    const CutSetAnalysis analysis = minimal_cut_sets(lanes, options);
    expect_canonical(analysis, lanes, "deadline " + std::to_string(ms));
    partial_seen = analysis.deadline_exceeded && !analysis.cut_sets.empty();
  }
  EXPECT_TRUE(partial_seen);
}

TEST(CutSets, AndOperandsAbsorbPairwise) {
  // Four lanes, each OR(cc1, cc2, five own events): the full cross product
  // has 7^4 = 2401 sets, but absorbing after every operand keeps at most
  // 127 x 7 = 889 products alive. The minimal family: the two common
  // causes plus 5^4 one-event-per-lane sets.
  FaultTree tree("lanes");
  FtNode* cc1 = basic(tree, "cc1");
  FtNode* cc2 = basic(tree, "cc2");
  std::vector<FtNode*> lanes;
  for (int lane = 0; lane < 4; ++lane) {
    std::vector<FtNode*> causes{cc1, cc2};
    for (int e = 0; e < 5; ++e) {
      causes.push_back(basic(
          tree, ("l" + std::to_string(lane) + "e" + std::to_string(e)).c_str()));
    }
    lanes.push_back(tree.add_gate(GateKind::kOr, "", std::move(causes)));
  }
  tree.set_top(tree.add_gate(GateKind::kAnd, "", std::move(lanes)));
  const CutSetAnalysis analysis = minimal_cut_sets(tree);
  EXPECT_EQ(analysis.cut_sets.size(), 2u + 625u);
  EXPECT_LT(analysis.peak_sets, 2401u);
  expect_canonical(analysis, tree, "lanes");
}

TEST(CutSets, OrScreensEachOperandAgainstTheOthers) {
  // The OR's operands are each minimal; across them a set repeats ({b, c}
  // twice), small sets absorb larger ones ({a} absorbs {a, d}, {a, f} and
  // {a, g}; {b, c} absorbs {b, c, h}), and the two-row operands hold the
  // largest sets, so every operand is both screened and a screener.
  FaultTree tree("t");
  FtNode* a = basic(tree, "a");
  FtNode* b = basic(tree, "b");
  FtNode* c = basic(tree, "c");
  FtNode* d = basic(tree, "d");
  FtNode* e = basic(tree, "e");
  FtNode* f = basic(tree, "f");
  FtNode* g = basic(tree, "g");
  FtNode* h = basic(tree, "h");
  FtNode* bc = tree.add_gate(GateKind::kAnd, "", {b, c});
  FtNode* cb = tree.add_gate(GateKind::kAnd, "", {c, b});
  FtNode* ad = tree.add_gate(GateKind::kAnd, "", {a, d});
  FtNode* fg_ha = tree.add_gate(
      GateKind::kAnd, "",
      {tree.add_gate(GateKind::kOr, "", {f, g}),
       tree.add_gate(GateKind::kOr, "", {h, a})});
  FtNode* bch = tree.add_gate(GateKind::kAnd, "", {b, c, h});
  FtNode* top =
      tree.add_gate(GateKind::kOr, "", {fg_ha, bch, ad, bc, e, cb, a});
  tree.set_top(top);
  const char* expected = "{a}\n{e}\n{b, c}\n{f, h}\n{g, h}\n";
  EXPECT_EQ(minimal_cut_sets(tree).to_string(), expected);
  EXPECT_EQ(zbdd_cut_sets(tree).to_string(), expected);

  // An operand holding the empty set absorbs every other operand.
  tree.set_top(tree.add_gate(
      GateKind::kOr, "", {top, tree.add_house(Symbol("always"), "")}));
  EXPECT_EQ(minimal_cut_sets(tree).to_string(), "{}\n");
}

// -- The flat listing ---------------------------------------------------------

TEST(CutSetList, EmptyFamilyListsNothing) {
  FaultTree tree("t");
  const CutSetAnalysis analysis = minimal_cut_sets(tree);
  EXPECT_TRUE(analysis.cut_sets.empty());
  EXPECT_EQ(analysis.cut_sets.size(), 0u);
  EXPECT_TRUE(analysis.cut_sets.begin() == analysis.cut_sets.end());
  EXPECT_EQ(analysis.min_order(), 0u);
  EXPECT_TRUE(analysis.of_order(0).empty());
  EXPECT_TRUE(analysis.of_order(1).empty());
  EXPECT_EQ(analysis.to_string(), "");
  EXPECT_TRUE(analysis.cut_sets == CutSetList{});
}

TEST(CutSetList, HouseLeafListsTheEmptySet) {
  FaultTree tree("t");
  tree.set_top(tree.add_house(Symbol("always"), ""));
  for (const CutSetEngine engine :
       {CutSetEngine::kMicsup, CutSetEngine::kZbdd}) {
    CutSetOptions options;
    options.engine = engine;
    const CutSetAnalysis analysis = compute_cut_sets(tree, options);
    ASSERT_EQ(analysis.cut_sets.size(), 1u);
    EXPECT_FALSE(analysis.cut_sets.empty());
    EXPECT_TRUE(analysis.cut_sets.front().empty());
    EXPECT_EQ(analysis.min_order(), 0u);
    EXPECT_EQ(analysis.of_order(0).size(), 1u);
    EXPECT_TRUE(analysis.of_order(1).empty());
    EXPECT_EQ(analysis.to_string(), "{}\n");
  }

  // An empty set between two others is a zero-length view between equal
  // offsets, and its neighbours keep their own literals.
  FtNode* a = basic(tree, "a");
  FtNode* b = basic(tree, "b");
  CutSetList list;
  list.push_literal({a, false});
  list.end_set();
  list.end_set();
  list.push_literal({b, true});
  list.end_set();
  ASSERT_EQ(list.size(), 3u);
  ASSERT_EQ(list[0].size(), 1u);
  EXPECT_EQ(list[0][0], (CutLiteral{a, false}));
  EXPECT_TRUE(list[1].empty());
  EXPECT_EQ(list[1].data(), list[0].data() + 1);
  ASSERT_EQ(list[2].size(), 1u);
  EXPECT_EQ(list[2][0], (CutLiteral{b, true}));
}

TEST(CutSetList, NegatedLiteralsKeepTheirPolarity) {
  FaultTree tree("t");
  FtNode* a = basic(tree, "a");
  FtNode* b = basic(tree, "b");
  FtNode* c = basic(tree, "c");
  FtNode* not_b = tree.add_gate(GateKind::kNot, "", {b});
  tree.set_top(tree.add_gate(
      GateKind::kOr, "", {tree.add_gate(GateKind::kAnd, "", {a, not_b}), c}));
  for (const CutSetEngine engine :
       {CutSetEngine::kMicsup, CutSetEngine::kZbdd}) {
    CutSetOptions options;
    options.engine = engine;
    const CutSetAnalysis analysis = compute_cut_sets(tree, options);
    EXPECT_EQ(analysis.to_string(), "{c}\n{a, NOT b}\n");
    ASSERT_EQ(analysis.cut_sets.size(), 2u);
    const CutSet pair = analysis.cut_sets[1];
    ASSERT_EQ(pair.size(), 2u);
    EXPECT_EQ(pair[0], (CutLiteral{a, false}));
    EXPECT_EQ(pair[1], (CutLiteral{b, true}));
  }
}

TEST(CutSetList, OrderRunsToStringAndEquality) {
  FaultTree tree("t");
  FtNode* m = basic(tree, "m");
  FtNode* a = basic(tree, "a");
  FtNode* z = basic(tree, "z");
  FtNode* x = basic(tree, "x");
  FtNode* y = basic(tree, "y");
  FtNode* b = basic(tree, "b");
  FtNode* c = basic(tree, "c");
  FtNode* d = basic(tree, "d");
  tree.set_top(tree.add_gate(
      GateKind::kOr, "",
      {tree.add_gate(GateKind::kAnd, "", {x, y}), m,
       tree.add_gate(GateKind::kAnd, "", {b, c, d}),
       tree.add_gate(GateKind::kAnd, "", {z, a})}));
  const CutSetAnalysis analysis = minimal_cut_sets(tree);
  EXPECT_EQ(analysis.to_string(), "{m}\n{a, z}\n{x, y}\n{b, c, d}\n");
  EXPECT_EQ(analysis.min_order(), 1u);
  EXPECT_TRUE(analysis.of_order(0).empty());
  EXPECT_EQ(analysis.of_order(1).size(), 1u);
  const auto pairs = analysis.of_order(2);
  ASSERT_EQ(pairs.size(), 2u);
  EXPECT_EQ(pairs[0][0].event, a);
  EXPECT_EQ(pairs[1][0].event, x);
  std::size_t order_three = 0;
  for (const CutSet cs : analysis.of_order(3)) {
    EXPECT_EQ(cs.size(), 3u);
    ++order_three;
  }
  EXPECT_EQ(order_three, 1u);
  EXPECT_TRUE(analysis.of_order(4).empty());

  // Equal listings compare equal whichever engine or path built them; a
  // polarity or a set of difference does not.
  EXPECT_TRUE(analysis.cut_sets == minimal_cut_sets(tree).cut_sets);
  EXPECT_TRUE(analysis.cut_sets == zbdd_cut_sets(tree).cut_sets);
  const auto rebuild = [&](const FtNode* negate) {
    CutSetList list;
    for (const CutSet cs : analysis.cut_sets) {
      for (CutLiteral literal : cs) {
        literal.negated = literal.event == negate;
        list.push_literal(literal);
      }
      list.end_set();
    }
    return list;
  };
  CutSetList rebuilt = rebuild(nullptr);
  EXPECT_TRUE(rebuilt == analysis.cut_sets);
  EXPECT_FALSE(rebuild(d) == analysis.cut_sets);
  rebuilt.push_literal(analysis.cut_sets.front().front());
  rebuilt.end_set();
  EXPECT_FALSE(rebuilt == analysis.cut_sets);
}

TEST(CutSetList, CopiesAndMovesReadTheirOwnArena) {
  FaultTree tree("t");
  FtNode* a = basic(tree, "a");
  FtNode* b = basic(tree, "b");
  FtNode* c = basic(tree, "c");
  tree.set_top(tree.add_gate(
      GateKind::kOr, "", {a, tree.add_gate(GateKind::kAnd, "", {b, c})}));
  auto original = std::make_unique<CutSetAnalysis>(minimal_cut_sets(tree));
  const std::string text = original->to_string();
  ASSERT_EQ(text, "{a}\n{b, c}\n");

  CutSetAnalysis copy = *original;
  EXPECT_TRUE(copy.cut_sets == original->cut_sets);
  EXPECT_NE(copy.cut_sets[1].data(), original->cut_sets[1].data());
  CutSetAnalysis assigned = minimal_cut_sets(tree);
  const CutSetAnalysis other = zbdd_cut_sets(tree);
  assigned = other;
  EXPECT_NE(assigned.cut_sets[0].data(), other.cut_sets[0].data());
  const CutLiteral* arena = original->cut_sets[1].data();
  CutSetAnalysis moved = std::move(*original);
  EXPECT_EQ(moved.cut_sets[1].data(), arena);  // the arena moved with it
  original.reset();

  // The original is gone; every copy still lists from its own arena.
  for (const CutSetAnalysis* analysis : {&copy, &assigned, &moved}) {
    EXPECT_EQ(analysis->to_string(), text);
    ASSERT_EQ(analysis->cut_sets.size(), 2u);
    EXPECT_EQ(analysis->cut_sets[1][0], (CutLiteral{b, false}));
    EXPECT_EQ(analysis->cut_sets[1][1], (CutLiteral{c, false}));
  }
}

// The listing and the reliability report, pinned byte for byte: FNV-1a
// digests of CutSetAnalysis::to_string() and of the full analyse render
// (every importance row) on the replicated 5-lane x 7-stage model and on
// the 22 tops `ftsynth analyse` derives for the brake-by-wire case study,
// under both exact engines. A change to the set or literal order, or to
// the order of any floating-point sum (the bounds, Fussell-Vesely), moves
// a digest.
TEST(ListingPin, ListingAndReliabilityBytesArePinned) {
  struct Digest {
    std::uint64_t value = 14695981039346656037ull;
    void add(const std::string& text) {
      for (const unsigned char c : text) value = (value ^ c) * 1099511628211ull;
    }
  };
  synthetic::ReplicatedConfig config;
  config.channels = 5;
  config.stages = 7;
  const Model replicated = synthetic::build_replicated(config);
  const Model bbw = setta::build_bbw();
  SynthesisOptions prune;
  prune.unannotated = SynthesisOptions::UnannotatedPolicy::kPrune;
  std::vector<Deviation> tops;
  for (const Port* port : bbw.root().outputs()) {
    for (FailureClass cls : bbw.registry().all()) {
      const Deviation candidate{cls, port->name()};
      if (Synthesiser(bbw, prune).synthesise(candidate).top() != nullptr)
        tops.push_back(candidate);
    }
  }
  ASSERT_EQ(tops.size(), 22u);
  for (const CutSetEngine engine :
       {CutSetEngine::kMicsup, CutSetEngine::kZbdd}) {
    SCOPED_TRACE(to_string(engine));
    AnalysisOptions options;
    options.cut_sets.engine = engine;
    options.max_importance_rows = 1000;
    Digest listing;
    Digest report;
    const FaultTree lanes = Synthesiser(replicated).synthesise("Omission-sink");
    TreeAnalysis analysis = analyse_tree(lanes, options);
    listing.add(analysis.cut_sets.to_string());
    report.add(render(lanes, analysis, options));
    EXPECT_EQ(listing.value, 16326437288365522903ull);
    EXPECT_EQ(report.value, 16460221580336576423ull);

    options.probability.mission_time_hours = 1000.0;
    listing = {};
    report = {};
    for (const Deviation& top : tops) {
      const FaultTree tree = Synthesiser(bbw).synthesise(top);
      analysis = analyse_tree(tree, options);
      listing.add(analysis.cut_sets.to_string());
      report.add(render(tree, analysis, options));
    }
    EXPECT_EQ(listing.value, 1003892776150964457ull);
    EXPECT_EQ(report.value, 8807651630476002862ull);
  }
}

TEST(MinimiseLiteralSets, KernelDedupsAbsorbsAndDropsContradictions) {
  // Universe of 3 events = 6 literal ids; even = plain, odd = negated.
  std::vector<std::vector<int>> sets = {
      {0, 2},     // {e0, e1}
      {2, 0},     // duplicate in another order
      {0},        // absorbs {e0, e1}
      {2, 3},     // e1 AND NOT e1: contradictory
      {4, 1},     // {NOT e0, e2}
      {0, 4, 2},  // superset of {e0}
  };
  std::vector<std::vector<int>> minimal = minimise_literal_sets(sets, 6);
  ASSERT_EQ(minimal.size(), 2u);
  EXPECT_EQ(minimal[0], (std::vector<int>{0}));
  EXPECT_EQ(minimal[1], (std::vector<int>{1, 4}));
}

TEST(MinimiseLiteralSets, WideUniverseCrossesWordBoundaries) {
  // Literal ids beyond 64 exercise the multi-word bitset path.
  std::vector<std::vector<int>> sets = {
      {2, 130}, {2}, {130, 2, 66}, {66, 130},
  };
  std::vector<std::vector<int>> minimal = minimise_literal_sets(sets, 192);
  ASSERT_EQ(minimal.size(), 2u);
  EXPECT_EQ(minimal[0], (std::vector<int>{2}));
  EXPECT_EQ(minimal[1], (std::vector<int>{66, 130}));
}

// -- Kernel edge cases against a plain sort ---------------------------------------
//
// minimise_literal_sets sorts through a 64-bit prefix key: the popcount,
// then the lowest ids, each in a field as wide as the universe's largest
// id (three 18-bit fields for 2^18 ids, seven 7-bit fields for 128, nine
// 6-bit fields for 64), with a full comparison on ties. Each case below is
// checked against the family worked out by plain set operations and
// ordered by a std::sort of the id lists: size first, then lexicographic.

/// The minimal family of `sets`: duplicates collapsed, sets holding both
/// 2k and 2k + 1 dropped, supersets of another set dropped, listed by
/// (size, ascending ids).
std::vector<std::vector<int>> reference_minimise(
    std::vector<std::vector<int>> sets) {
  for (std::vector<int>& set : sets) {
    std::sort(set.begin(), set.end());
    set.erase(std::unique(set.begin(), set.end()), set.end());
  }
  std::erase_if(sets, [](const std::vector<int>& set) {
    for (int id : set) {
      if (id % 2 == 0 && std::binary_search(set.begin(), set.end(), id + 1))
        return true;
    }
    return false;
  });
  std::sort(sets.begin(), sets.end(),
            [](const std::vector<int>& a, const std::vector<int>& b) {
              if (a.size() != b.size()) return a.size() < b.size();
              return a < b;
            });
  sets.erase(std::unique(sets.begin(), sets.end()), sets.end());
  std::vector<std::vector<int>> kept;
  for (const std::vector<int>& set : sets) {
    const bool subsumed = std::any_of(
        kept.begin(), kept.end(), [&](const std::vector<int>& small) {
          return std::includes(set.begin(), set.end(), small.begin(),
                               small.end());
        });
    if (!subsumed) kept.push_back(set);
  }
  return kept;
}

/// Runs the kernel on `sets` in the given order and in reverse (so the
/// sort has work to do either way) and checks both against the reference.
void expect_kernel_matches_reference(
    const std::vector<std::vector<int>>& sets, int universe) {
  const std::vector<std::vector<int>> expected = reference_minimise(sets);
  EXPECT_EQ(minimise_literal_sets(sets, universe), expected);
  const std::vector<std::vector<int>> reversed(sets.rbegin(), sets.rend());
  EXPECT_EQ(minimise_literal_sets(reversed, universe), expected);
}

TEST(MinimiseLiteralSets, EqualKeyPrefixesLeaveTheOrderToTheTieBreak) {
  // Every set of one universe shares as many lowest ids as its key has
  // fields, so the keys of equal-size sets tie and the word comparison
  // decides the order.
  const auto sharing = [](std::vector<int> shared,
                          std::vector<std::vector<int>> tails) {
    for (std::vector<int>& tail : tails)
      tail.insert(tail.begin(), shared.begin(), shared.end());
    return tails;
  };
  // 2^18 ids: three 18-bit fields.
  const std::vector<std::vector<int>> wide =
      sharing({0, 2, 4}, {{10, 12}, {8, 30}, {8, 14}, {6, 100},
                          {66, 70}, {6, 98}, {126}, {64}, {200000}});
  std::vector<std::vector<int>> minimal = minimise_literal_sets(wide, 1 << 18);
  ASSERT_EQ(minimal.size(), wide.size());
  EXPECT_EQ(minimal.front(), (std::vector<int>{0, 2, 4, 64}));
  EXPECT_EQ(minimal.back(), (std::vector<int>{0, 2, 4, 66, 70}));
  expect_kernel_matches_reference(wide, 1 << 18);

  // 128 ids: seven 7-bit fields.
  const std::vector<int> seven = {0, 2, 4, 6, 8, 10, 12};
  const std::vector<std::vector<int>> mid = sharing(
      seven, {{30, 32}, {14, 126}, {14, 100}, {120}, {16}, {15, 20}});
  minimal = minimise_literal_sets(mid, 128);
  ASSERT_EQ(minimal.size(), mid.size());
  EXPECT_EQ(minimal[2], sharing(seven, {{14, 100}}).front());
  expect_kernel_matches_reference(mid, 128);

  // 64 ids: nine 6-bit fields, the narrowest.
  const std::vector<int> nine = {0, 2, 4, 6, 8, 10, 12, 14, 16};
  const std::vector<std::vector<int>> narrow = sharing(
      nine, {{40, 62}, {18, 60}, {18, 22}, {19, 20}, {63}, {21}, {17}});
  expect_kernel_matches_reference(narrow, 64);
}

TEST(MinimiseLiteralSets, LongSetsMatchAPlainSort) {
  // Sets of 4..9 literals over 32 ids, drawn with repeats so that some
  // lists collapse to duplicates and some hold x and NOT x.
  for (unsigned seed = 0; seed < 20; ++seed) {
    std::mt19937 rng(seed);
    std::uniform_int_distribution<int> id(0, 31);
    std::uniform_int_distribution<int> size(4, 9);
    std::vector<std::vector<int>> sets(200);
    for (std::vector<int>& set : sets) {
      const int n = size(rng);
      for (int i = 0; i < n; ++i) set.push_back(id(rng));
    }
    SCOPED_TRACE(seed);
    expect_kernel_matches_reference(sets, 32);
  }
}

TEST(MinimiseLiteralSets, PopcountsAroundTheKeyCapSortByCountFirst) {
  // 1022 literals fit the key's 10-bit count field with literal fields;
  // from 1023 on the key is the capped count alone and the comparison
  // decides. The larger sets start at lower ids, so a key that kept its
  // literal fields past the cap would list them first. Each set misses
  // one id that every other set holds, so none contains another.
  const auto evens = [](int first, int count, int hole) {
    std::vector<int> set;
    for (int k = first; static_cast<int>(set.size()) < count; ++k) {
      if (k != hole) set.push_back(2 * k);
    }
    return set;
  };
  const std::vector<std::vector<int>> sets = {
      evens(0, 1100, 900), evens(0, 1100, 950), evens(2, 1024, 800),
      evens(4, 1023, 700), evens(6, 1022, 600),
  };
  const std::vector<std::vector<int>> minimal =
      minimise_literal_sets(sets, 4096);
  ASSERT_EQ(minimal.size(), 5u);
  EXPECT_EQ(minimal[0], evens(6, 1022, 600));
  EXPECT_EQ(minimal[1], evens(4, 1023, 700));
  EXPECT_EQ(minimal[2], evens(2, 1024, 800));
  EXPECT_EQ(minimal[3], evens(0, 1100, 950));
  EXPECT_EQ(minimal[4], evens(0, 1100, 900));
  expect_kernel_matches_reference(sets, 4096);
}

TEST(MinimiseLiteralSets, WideUniversesFallBackToThePopcountKey) {
  // 2^18 literal ids is the widest universe whose ids all fit an 18-bit
  // key field; one word more and the key is the popcount alone.
  constexpr int kTop = (1 << 18) - 1;
  const std::vector<std::vector<int>> fitting = {
      {kTop},           {kTop - 3, kTop - 1},    {0, kTop - 3},
      {2, 4, kTop - 1}, {2, 4, kTop - 5},        {2, 6, 8, kTop - 5},
      {kTop - 5, kTop - 3},
  };
  EXPECT_EQ(minimise_literal_sets(fitting, 1 << 18).size(), fitting.size());
  expect_kernel_matches_reference(fitting, 1 << 18);

  constexpr int kWide = (1 << 18) + 64;
  const std::vector<std::vector<int>> wide = {
      {kWide - 2},           {kTop + 1, 6},      {kTop - 1, kTop + 1},
      {0, kWide - 4},        {2, 4, kWide - 6},  {2, 4, kTop + 3},
      {kTop + 3, kTop + 5},  {6, 8, kTop + 3},
  };
  const std::vector<std::vector<int>> minimal =
      minimise_literal_sets(wide, kWide);
  ASSERT_EQ(minimal.size(), wide.size());
  EXPECT_EQ(minimal.front(), (std::vector<int>{kWide - 2}));
  EXPECT_EQ(minimal[1], (std::vector<int>{0, kWide - 4}));
  expect_kernel_matches_reference(wide, kWide);
}

TEST(MinimiseLiteralSets, DuplicatesContradictionsAndTheEmptySet) {
  // Duplicates in any literal order collapse to one set, x AND NOT x sets
  // vanish (also when duplicated), and survivors stay in canonical order.
  const std::vector<std::vector<int>> sets = {
      {6, 4}, {4, 6},    {4, 6, 4}, {2, 3},    {3, 2},   {8, 9, 10},
      {5, 8}, {8, 5},    {0, 1, 6}, {12, 14},  {14, 12}, {5, 8, 12},
  };
  expect_kernel_matches_reference(sets, 16);
  const std::vector<std::vector<int>> minimal = minimise_literal_sets(sets, 16);
  EXPECT_EQ(minimal, (std::vector<std::vector<int>>{{4, 6}, {5, 8}, {12, 14}}));

  // The empty set is a subset of every set: it alone survives, duplicated
  // or not, whatever else the family holds.
  std::vector<std::vector<int>> with_empty = sets;
  with_empty.push_back({});
  with_empty.insert(with_empty.begin(), std::vector<int>{});
  EXPECT_EQ(minimise_literal_sets(with_empty, 16),
            (std::vector<std::vector<int>>{{}}));
  expect_kernel_matches_reference(with_empty, 16);

  // A family of nothing but contradictions minimises to nothing.
  EXPECT_TRUE(minimise_literal_sets({{0, 1}, {1, 0}, {2, 3, 4}}, 6).empty());
}

}  // namespace
}  // namespace ftsynth
