// Property-based validation of the synthesis algorithm (experiment E9).
//
// For random small monotone models, the synthesized fault tree must agree
// EXHAUSTIVELY with forward failure propagation: for every subset of leaf
// events, the tree (evaluated on its BDD encoding) predicts a deviation at
// the system output exactly when the forward simulator propagates one.
// This is the strongest correctness statement the paper's algorithm
// admits, checked bit-for-bit.

#include <gtest/gtest.h>

#include <unordered_set>

#include "analysis/cutsets.h"
#include "analysis/probability.h"
#include "casestudy/synthetic.h"
#include "fta/simplify.h"
#include "fta/synthesis.h"
#include "sim/propagation.h"

namespace ftsynth {
namespace {

/// Parameter: (seed, with_conditions).
class SynthesisAgreesWithSimulation
    : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(SynthesisAgreesWithSimulation, ExhaustivelyOnRandomModels) {
  const int seed = std::get<0>(GetParam());
  synthetic::RandomModelConfig config;
  config.seed = static_cast<unsigned>(seed);
  config.blocks = 4 + seed % 4;
  config.inports = 1;
  config.max_fanin = 2;
  config.with_loops = seed % 3 == 0;
  if (std::get<1>(GetParam())) {
    config.condition_chance = 0.4;
    config.vote_chance = 0.3;  // 2-of-3 votes are monotone: same oracle
  }
  Model model = synthetic::build_random(config);

  const Deviation top{model.registry().omission(), Symbol("sink")};
  Synthesiser synthesiser(model);
  FaultTree tree = synthesiser.synthesise(top);
  ASSERT_NE(tree.top(), nullptr);
  BddEncoding encoding = encode_bdd(tree);

  PropagationEngine engine(model);

  // Enumerable leaf universe: every malfunction and data-condition event
  // (from the engine's own enumeration), plus the env deviations of the
  // two classes the generator uses.
  std::vector<Symbol> universe;
  for (const PropagationEngine::LeafEvent& leaf : engine.leaf_events()) {
    if (leaf.rate > 0.0 || leaf.fixed_probability >= 0.0)
      universe.push_back(leaf.name);
  }
  universe.push_back(Symbol("env:Omission-env1"));
  universe.push_back(Symbol("env:Value-env1"));
  if (universe.size() > 16u)
    GTEST_SKIP() << "universe too big to enumerate";

  // Every tree leaf must be in the universe (nothing invented).
  for (const FtNode* leaf : tree.leaves()) {
    EXPECT_NE(std::find(universe.begin(), universe.end(), leaf->name()),
              universe.end())
        << leaf->name().view();
  }

  const std::size_t combinations = 1u << universe.size();
  for (std::size_t bits = 0; bits < combinations; ++bits) {
    std::unordered_set<Symbol> active;
    for (std::size_t i = 0; i < universe.size(); ++i) {
      if (bits & (1u << i)) active.insert(universe[i]);
    }
    const bool simulated =
        engine.propagate(active).at_system_output(top.port,
                                                  top.failure_class);
    std::vector<bool> assignment(encoding.events.size());
    for (std::size_t v = 0; v < encoding.events.size(); ++v) {
      assignment[v] = active.count(encoding.events[v]->name()) != 0;
    }
    const bool predicted =
        encoding.bdd.evaluate(encoding.root, assignment);
    ASSERT_EQ(predicted, simulated)
        << "disagreement at bits=" << bits << " (seed " << seed << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SynthesisAgreesWithSimulation,
                         ::testing::Combine(::testing::Range(0, 24),
                                            ::testing::Bool()));

class EnginesAgreeOnSynthesizedTrees : public ::testing::TestWithParam<int> {
};

// The name predates the retired MOCUS engine, whose leg zbdd (a separate
// algorithm) now fills; it is kept so the seeded instances keep their
// history.
TEST_P(EnginesAgreeOnSynthesizedTrees, MocusEqualsBottomUpEqualsBdd) {
  synthetic::RandomModelConfig config;
  config.seed = 1000u + static_cast<unsigned>(GetParam());
  config.blocks = 6 + GetParam() % 6;
  config.max_fanin = 3;
  config.with_loops = GetParam() % 2 == 0;
  Model model = synthetic::build_random(config);

  Synthesiser synthesiser(model);
  for (const char* top : {"Omission-sink", "Value-sink"}) {
    FaultTree tree = synthesiser.synthesise(top);
    if (tree.top() == nullptr) continue;
    CutSetAnalysis bottom_up = minimal_cut_sets(tree);
    EXPECT_EQ(bottom_up.to_string(), zbdd_cut_sets(tree).to_string()) << top;

    // The disjunction of the minimal cut sets must be BDD-equivalent to
    // the tree itself (exactness of the cut-set representation).
    BddEncoding encoding = encode_bdd(tree);
    Bdd::Ref from_cut_sets = Bdd::kFalse;
    for (const CutSet& cs : bottom_up.cut_sets) {
      Bdd::Ref conj = Bdd::kTrue;
      for (const CutLiteral& literal : cs) {
        int var = -1;
        for (std::size_t v = 0; v < encoding.events.size(); ++v) {
          if (encoding.events[v] == literal.event) var = static_cast<int>(v);
        }
        ASSERT_GE(var, 0);
        conj = encoding.bdd.apply_and(conj, literal.negated
                                                ? encoding.bdd.nvar(var)
                                                : encoding.bdd.var(var));
      }
      from_cut_sets = encoding.bdd.apply_or(from_cut_sets, conj);
    }
    EXPECT_EQ(from_cut_sets, encoding.root) << top;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EnginesAgreeOnSynthesizedTrees,
                         ::testing::Range(0, 20));

class NormaliseIsSemanticsPreserving : public ::testing::TestWithParam<int> {
};

TEST_P(NormaliseIsSemanticsPreserving, OnSynthesizedTrees) {
  synthetic::RandomModelConfig config;
  config.seed = 2000u + static_cast<unsigned>(GetParam());
  config.blocks = 8;
  Model model = synthetic::build_random(config);
  FaultTree tree = Synthesiser(model).synthesise("Omission-sink");
  ASSERT_NE(tree.top(), nullptr);
  FaultTree flat = normalise(tree);
  EXPECT_TRUE(is_normalised(flat));

  // Same exact probability before and after.
  ProbabilityOptions options;
  options.mission_time_hours = 100.0;
  options.default_event_probability = 0.05;
  EXPECT_NEAR(exact_probability(tree, options),
              exact_probability(flat, options), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, NormaliseIsSemanticsPreserving,
                         ::testing::Range(0, 10));

TEST(SynthesisDeterminism, SameModelSameTree) {
  synthetic::RandomModelConfig config;
  config.seed = 7;
  config.blocks = 10;
  Model model = synthetic::build_random(config);
  FaultTree first = Synthesiser(model).synthesise("Omission-sink");
  FaultTree second = Synthesiser(model).synthesise("Omission-sink");
  EXPECT_EQ(first.to_text(), second.to_text());
  EXPECT_EQ(minimal_cut_sets(first).to_string(),
            minimal_cut_sets(second).to_string());
}

}  // namespace
}  // namespace ftsynth
