// Unit tests for quantitative evaluation (experiment E8): event
// probabilities from rates, cut-set bounds, inclusion-exclusion, exact BDD.

#include <gtest/gtest.h>

#include <cmath>

#include "analysis/cutsets.h"
#include "analysis/probability.h"
#include "core/error.h"
#include "fta/fault_tree.h"

namespace ftsynth {
namespace {

TEST(Probability, EventProbabilityFromRate) {
  FaultTree tree("t");
  FtNode* quantified = tree.add_basic(Symbol("q"), 1e-4, "", "");
  FtNode* unquantified = tree.add_basic(Symbol("u"), 0.0, "", "");
  FtNode* house = tree.add_house(Symbol("always"), "");

  ProbabilityOptions options;
  options.mission_time_hours = 100.0;
  EXPECT_NEAR(event_probability(*quantified, options),
              1.0 - std::exp(-1e-4 * 100.0), 1e-15);
  EXPECT_DOUBLE_EQ(event_probability(*unquantified, options), 0.0);
  EXPECT_DOUBLE_EQ(event_probability(*house, options), 1.0);

  options.default_event_probability = 0.01;
  EXPECT_DOUBLE_EQ(event_probability(*unquantified, options), 0.01);
}

TEST(Probability, EventProbabilityScalesWithMissionTime) {
  FaultTree tree("t");
  FtNode* event = tree.add_basic(Symbol("e"), 1e-5, "", "");
  ProbabilityOptions short_mission{1.0, 0.0};
  ProbabilityOptions long_mission{10000.0, 0.0};
  EXPECT_LT(event_probability(*event, short_mission),
            event_probability(*event, long_mission));
  EXPECT_LT(event_probability(*event, long_mission), 1.0);
}

TEST(Probability, GateNodesRejected) {
  FaultTree tree("t");
  FtNode* a = tree.add_basic(Symbol("a"), 1e-6, "", "");
  FtNode* gate = tree.add_gate(GateKind::kOr, "", {a});
  EXPECT_THROW(event_probability(*gate, ProbabilityOptions{}), Error);
}

class ProbabilityBounds : public ::testing::Test {
 protected:
  // (a AND b) OR (a AND c): shared event a makes the bounds differ.
  void SetUp() override {
    a_ = tree_.add_basic(Symbol("a"), 1e-2, "", "");
    b_ = tree_.add_basic(Symbol("b"), 2e-2, "", "");
    c_ = tree_.add_basic(Symbol("c"), 3e-2, "", "");
    FtNode* ab = tree_.add_gate(GateKind::kAnd, "", {a_, b_});
    FtNode* ac = tree_.add_gate(GateKind::kAnd, "", {a_, c_});
    tree_.set_top(tree_.add_gate(GateKind::kOr, "", {ab, ac}));
    analysis_ = minimal_cut_sets(tree_);
    options_.mission_time_hours = 1000.0;
  }

  FaultTree tree_{"t"};
  FtNode* a_ = nullptr;
  FtNode* b_ = nullptr;
  FtNode* c_ = nullptr;
  CutSetAnalysis analysis_;
  ProbabilityOptions options_;
};

TEST_F(ProbabilityBounds, OrderingRareEventVsExact) {
  const double exact = exact_probability(tree_, options_);
  const std::vector<double> probs = cut_set_probabilities(analysis_, options_);
  const double rare = rare_event_bound(probs);
  const double esary = esary_proschan_bound(probs);
  EXPECT_GT(exact, 0.0);
  EXPECT_LE(exact, rare + 1e-15);
  EXPECT_LE(esary, rare + 1e-15);
  // With a shared event the rare-event sum strictly overestimates.
  EXPECT_GT(rare, exact);
}

TEST_F(ProbabilityBounds, InclusionExclusionConvergesToExact) {
  const double exact = exact_probability(tree_, options_);
  // Full expansion (2 cut sets -> exact at 2 terms) must match the BDD.
  EXPECT_NEAR(inclusion_exclusion(analysis_, options_, 2), exact, 1e-12);
  // One term is the rare-event bound.
  EXPECT_NEAR(inclusion_exclusion(analysis_, options_, 1),
              rare_event_bound(cut_set_probabilities(analysis_, options_)),
              1e-15);
}

TEST_F(ProbabilityBounds, CutSetProbabilityIsLiteralProduct) {
  // Both cut sets have order 2; P({a, b}) = p_a * p_b.
  const double pa = event_probability(*a_, options_);
  const double pb = event_probability(*b_, options_);
  bool found = false;
  for (const CutSet& cs : analysis_.cut_sets) {
    if (cs.size() == 2 && cs[0].event->name() == Symbol("a") &&
        cs[1].event->name() == Symbol("b")) {
      EXPECT_NEAR(cut_set_probability(cs, options_), pa * pb, 1e-15);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Probability, NegatedLiteralUsesComplement) {
  FaultTree tree("t");
  FtNode* fault = tree.add_basic(Symbol("fault"), 1e-2, "", "");
  FtNode* mon = tree.add_basic(Symbol("mon"), 5e-2, "", "");
  FtNode* nm = tree.add_gate(GateKind::kNot, "", {mon});
  tree.set_top(tree.add_gate(GateKind::kAnd, "", {fault, nm}));

  ProbabilityOptions options;
  options.mission_time_hours = 1000.0;
  CutSetAnalysis analysis = minimal_cut_sets(tree);
  ASSERT_EQ(analysis.cut_sets.size(), 1u);
  const double pf = event_probability(*fault, options);
  const double pm = event_probability(*mon, options);
  EXPECT_NEAR(cut_set_probability(analysis.cut_sets[0], options),
              pf * (1.0 - pm), 1e-15);
  EXPECT_NEAR(exact_probability(tree, options), pf * (1.0 - pm), 1e-12);
}

TEST(Probability, EmptyTreeIsImpossible) {
  FaultTree tree("t");
  EXPECT_DOUBLE_EQ(exact_probability(tree, ProbabilityOptions{}), 0.0);
  CutSetAnalysis analysis = minimal_cut_sets(tree);
  EXPECT_DOUBLE_EQ(
      rare_event_bound(cut_set_probabilities(analysis, ProbabilityOptions{})),
      0.0);
  EXPECT_DOUBLE_EQ(inclusion_exclusion(analysis, ProbabilityOptions{}), 0.0);
}

TEST(Probability, EncodingExposesEventsInStableOrder) {
  FaultTree tree("t");
  FtNode* a = tree.add_basic(Symbol("a"), 1e-6, "", "");
  FtNode* b = tree.add_basic(Symbol("b"), 2e-6, "", "");
  tree.set_top(tree.add_gate(GateKind::kOr, "", {a, b}));
  BddEncoding encoding = encode_bdd(tree);
  ASSERT_EQ(encoding.events.size(), 2u);
  EXPECT_EQ(encoding.events[0], a);  // leaf id order
  EXPECT_EQ(encoding.events[1], b);
  ProbabilityOptions options;
  std::vector<double> p = encoding.probabilities(options);
  EXPECT_NEAR(p[0], 1.0 - std::exp(-1e-6), 1e-18);
}

}  // namespace
}  // namespace ftsynth
