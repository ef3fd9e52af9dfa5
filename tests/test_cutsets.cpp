// Unit and property tests for the cut-set engines.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "analysis/cutsets.h"
#include "analysis/probability.h"
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
  const std::vector<CutSet>& sets = analysis.cut_sets;
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

}  // namespace
}  // namespace ftsynth
