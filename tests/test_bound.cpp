// The anytime best-first bound engine (src/bound/): PDAG compilation,
// certified-interval frontier drain, exact-engine agreement on
// exhaustion, limit/deadline diagnostics, and --jobs determinism.
//
// Suites are named Bound* so the TSan job's suite regex
// (Concurrency|Parallel|Service|Bound|...) covers bound-engine trees
// drained concurrently under batch-level --jobs.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "analysis/batch.h"
#include "analysis/cutsets.h"
#include "analysis/ordering.h"
#include "analysis/probability.h"
#include "bound/frontier.h"
#include "bound/pdag.h"
#include "core/symbol.h"
#include "core/thread_pool.h"
#include "fta/fault_tree.h"
#include "fta/simplify.h"

namespace ftsynth {
namespace {

/// P(top) ground truth for small trees, from the exact BDD engine.
double bdd_exact(const FaultTree& tree) {
  return exact_probability(tree, ProbabilityOptions{});
}

/// OR of `ladder` AND pairs (the dominant, quickly-converging mass) plus
/// a guarded product spine with 2^pairs minimal cut sets hidden behind a
/// 1e-6 guard -- the committed examples/bound_frontier.mdl shape. The
/// leading AND chain pins the DFS order to all a's before all b's, the
/// grouped order that blows the decision-diagram engines up.
FaultTree frontier_tree(int ladder, int pairs) {
  FaultTree tree("bound_frontier");
  std::vector<FtNode*> disjuncts;
  for (int i = 0; i < ladder; ++i) {
    FtNode* a = tree.add_basic(Symbol("la" + std::to_string(i)), 0.05,
                               "ladder primary", "core");
    FtNode* b = tree.add_basic(Symbol("lb" + std::to_string(i)), 0.05,
                               "ladder backup", "core");
    disjuncts.push_back(tree.add_gate(GateKind::kAnd, "ladder pair", {a, b}));
  }
  FtNode* guard = tree.add_basic(Symbol("guard"), 1e-6, "guard", "core");
  if (pairs > 0) {
    std::vector<FtNode*> as, ors;
    for (int i = 0; i < pairs; ++i) {
      FtNode* a = tree.add_basic(Symbol("a" + std::to_string(i)), 0.02,
                                 "spine primary", "core");
      FtNode* b = tree.add_basic(Symbol("b" + std::to_string(i)), 0.02,
                                 "spine backup", "core");
      as.push_back(a);
      ors.push_back(tree.add_gate(GateKind::kOr, "spine pair", {a, b}));
    }
    FtNode* chain = tree.add_gate(GateKind::kAnd, "order-forcing chain", as);
    FtNode* product = tree.add_gate(GateKind::kAnd, "spine product", ors);
    FtNode* inner = tree.add_gate(GateKind::kOr, "spine", {chain, product});
    disjuncts.push_back(
        tree.add_gate(GateKind::kAnd, "guarded spine", {guard, inner}));
  } else {
    disjuncts.push_back(guard);
  }
  FtNode* top = tree.add_gate(GateKind::kOr, "top", std::move(disjuncts));
  tree.set_top(top);
  tree.set_top_description("Omission-sink");
  return tree;
}

/// A small mixed tree: two overlapping AND pairs under an OR, plus a
/// single-event disjunct.
FaultTree small_tree() {
  FaultTree tree("small");
  FtNode* e1 = tree.add_basic(Symbol("e1"), 1e-3, "", "");
  FtNode* e2 = tree.add_basic(Symbol("e2"), 2e-3, "", "");
  FtNode* e3 = tree.add_basic(Symbol("e3"), 5e-4, "", "");
  FtNode* e4 = tree.add_basic(Symbol("e4"), 1e-4, "", "");
  FtNode* g1 = tree.add_gate(GateKind::kAnd, "g1", {e1, e2});
  FtNode* g2 = tree.add_gate(GateKind::kAnd, "g2", {e2, e3});
  FtNode* top = tree.add_gate(GateKind::kOr, "top", {g1, g2, e4});
  tree.set_top(top);
  tree.set_top_description("small top");
  return tree;
}

TEST(BoundPdag, GateBoundsFollowStructure) {
  FaultTree tree("pdag");
  FtNode* a = tree.add_basic(Symbol("a"), 0.0, "", "");
  FtNode* b = tree.add_basic(Symbol("b"), 0.0, "", "");
  FtNode* c = tree.add_basic(Symbol("c"), 0.0, "", "");
  FtNode* g1 = tree.add_gate(GateKind::kOr, "g1", {a, b});
  FtNode* g2 = tree.add_gate(GateKind::kOr, "g2", {a, c});
  FtNode* top = tree.add_gate(GateKind::kAnd, "top", {g1, g2});
  tree.set_top(top);
  tree.set_top_description("pdag top");

  FaultTree flat = normalise(tree);
  std::vector<const FtNode*> order = dfs_variable_order(flat);
  std::vector<double> probabilities(order.size(), 0.25);
  bound::Pdag pdag = bound::compile_pdag(flat, order, probabilities);

  ASSERT_FALSE(pdag.constant_false);
  ASSERT_FALSE(bound::is_literal(pdag.root));
  const bound::PdagGate& root = pdag.gates[pdag.root];
  EXPECT_TRUE(root.conjunction);
  // The two OR children share `a`: the conjunction cannot multiply their
  // bounds, it must fall back to the weakest conjunct (each OR's union
  // bound is 0.5).
  EXPECT_FALSE(root.disjoint_children);
  EXPECT_NEAR(root.ub, 0.5, 1e-12);
  for (bound::Ref child : root.children) {
    ASSERT_FALSE(bound::is_literal(child));
    EXPECT_FALSE(pdag.gates[child].conjunction);
    EXPECT_NEAR(pdag.gates[child].ub, 0.5, 1e-12);
  }
}

TEST(BoundPdag, DisjointConjunctionMultiplies) {
  FaultTree tree("pdag2");
  FtNode* a = tree.add_basic(Symbol("a"), 0.0, "", "");
  FtNode* b = tree.add_basic(Symbol("b"), 0.0, "", "");
  FtNode* top = tree.add_gate(GateKind::kAnd, "top", {a, b});
  tree.set_top(top);
  tree.set_top_description("pdag2 top");

  FaultTree flat = normalise(tree);
  std::vector<const FtNode*> order = dfs_variable_order(flat);
  std::vector<double> probabilities(order.size(), 0.5);
  bound::Pdag pdag = bound::compile_pdag(flat, order, probabilities);
  ASSERT_FALSE(bound::is_literal(pdag.root));
  EXPECT_TRUE(pdag.gates[pdag.root].disjoint_children);
  EXPECT_NEAR(pdag.gates[pdag.root].ub, 0.25, 1e-12);
}

TEST(BoundFrontier, ConvergesToExactOnSmallTree) {
  FaultTree tree = small_tree();
  const double exact = bdd_exact(tree);

  CutSetOptions options;
  options.engine = CutSetEngine::kBound;
  CutSetAnalysis analysis = compute_cut_sets(tree, options);
  ASSERT_TRUE(analysis.p_lower.has_value());
  ASSERT_TRUE(analysis.p_upper.has_value());
  EXPECT_TRUE(analysis.converged);
  EXPECT_LE(*analysis.p_upper - *analysis.p_lower, 1e-6);
  // Containment with a whisker of floating-point slack: the SDP lower
  // bound and the BDD evaluation take different arithmetic routes.
  EXPECT_LE(*analysis.p_lower, exact + 1e-12);
  EXPECT_GE(*analysis.p_upper, exact - 1e-12);
  ASSERT_TRUE(analysis.frontier_stats.has_value());
  EXPECT_GT(analysis.frontier_stats->rounds, 0u);
}

TEST(BoundFrontier, HouseLeavesAreConstantTrue) {
  // AND drops a house; an OR it reaches is true, so the top below has the
  // empty cut set as its whole family. The set engine is the reference.
  FaultTree tree("houses");
  FtNode* a = tree.add_basic(Symbol("a"), 0.1, "", "");
  FtNode* b = tree.add_basic(Symbol("b"), 0.2, "", "");
  FtNode* house = tree.add_house(Symbol("h"), "");
  FtNode* guarded = tree.add_gate(GateKind::kAnd, "", {house, a});
  tree.set_top(tree.add_gate(GateKind::kAnd, "", {guarded, b}));
  CutSetOptions options;
  options.engine = CutSetEngine::kBound;
  options.bound_epsilon = -1.0;
  const CutSetAnalysis both = compute_cut_sets(tree, options);
  EXPECT_EQ(both.to_string(), compute_cut_sets(tree).to_string());
  EXPECT_EQ(both.to_string(), "{a, b}\n");

  tree.set_top(tree.add_gate(GateKind::kOr, "", {house, guarded}));
  const CutSetAnalysis always = compute_cut_sets(tree, options);
  EXPECT_EQ(always.to_string(), compute_cut_sets(tree).to_string());
  ASSERT_TRUE(always.p_lower.has_value());
  EXPECT_DOUBLE_EQ(*always.p_lower, 1.0);
}

TEST(BoundFrontier, ExhaustedRunMatchesExactEnginesByteIdentically) {
  FaultTree tree = small_tree();
  CutSetOptions exact_options;
  const std::string expected = compute_cut_sets(tree, exact_options).to_string();

  CutSetOptions options;
  options.engine = CutSetEngine::kBound;
  options.bound_epsilon = -1.0;  // never stop early: run to exhaustion
  CutSetAnalysis analysis = compute_cut_sets(tree, options);
  EXPECT_EQ(analysis.to_string(), expected);
  ASSERT_TRUE(analysis.p_lower.has_value());
  // Exhausted with nothing deferred: the interval closes completely.
  ASSERT_TRUE(analysis.frontier_stats.has_value());
  EXPECT_EQ(analysis.frontier_stats->deferred, 0u);
  EXPECT_NEAR(*analysis.p_upper, *analysis.p_lower, 1e-15);
}

TEST(BoundFrontier, HandlesNegatedLeaves) {
  FaultTree tree("notty");
  FtNode* a = tree.add_basic(Symbol("a"), 1e-2, "", "");
  FtNode* b = tree.add_basic(Symbol("b"), 2e-2, "", "");
  FtNode* c = tree.add_basic(Symbol("c"), 5e-3, "", "");
  FtNode* not_b = tree.add_gate(GateKind::kNot, "not b", {b});
  FtNode* g1 = tree.add_gate(GateKind::kAnd, "g1", {a, not_b});
  FtNode* g2 = tree.add_gate(GateKind::kAnd, "g2", {b, c});
  FtNode* top = tree.add_gate(GateKind::kOr, "top", {g1, g2});
  tree.set_top(top);
  tree.set_top_description("notty top");

  CutSetOptions exact_options;
  const std::string expected = compute_cut_sets(tree, exact_options).to_string();
  const double exact = bdd_exact(tree);

  CutSetOptions options;
  options.engine = CutSetEngine::kBound;
  options.bound_epsilon = -1.0;
  CutSetAnalysis analysis = compute_cut_sets(tree, options);
  EXPECT_EQ(analysis.to_string(), expected);
  EXPECT_LE(*analysis.p_lower, exact + 1e-12);
  EXPECT_GE(*analysis.p_upper, exact - 1e-12);
}

TEST(BoundFrontier, WideEpsilonStopsBeforeExpanding) {
  FaultTree tree = frontier_tree(10, 0);
  CutSetOptions options;
  options.engine = CutSetEngine::kBound;
  options.bound_epsilon = 0.5;  // total mass is ~0.024: converged at once
  CutSetAnalysis analysis = compute_cut_sets(tree, options);
  EXPECT_TRUE(analysis.converged);
  ASSERT_TRUE(analysis.frontier_stats.has_value());
  EXPECT_EQ(analysis.frontier_stats->emitted, 0u);
  const double exact = bdd_exact(tree);
  EXPECT_LE(*analysis.p_lower, exact + 1e-12);
  EXPECT_GE(*analysis.p_upper, exact - 1e-12);
}

TEST(BoundFrontier, ExpiredDeadlineLatchesDiagnosticsFlags) {
  FaultTree tree = frontier_tree(10, 0);
  CutSetOptions options;
  options.engine = CutSetEngine::kBound;
  options.bound_epsilon = -1.0;
  options.budget.force_expire();
  CutSetAnalysis analysis = compute_cut_sets(tree, options);
  // Same staged diagnostics as the exact engines: deadline implies
  // truncated, and the (empty) partial result keeps a sound interval.
  EXPECT_TRUE(analysis.deadline_exceeded);
  EXPECT_TRUE(analysis.truncated);
  EXPECT_FALSE(analysis.converged);
  EXPECT_LE(*analysis.p_lower, *analysis.p_upper);
}

TEST(BoundFrontier, MaxOrderKeepsDroppedMassInUpperBound) {
  FaultTree tree = small_tree();
  const double exact = bdd_exact(tree);
  CutSetOptions options;
  options.engine = CutSetEngine::kBound;
  options.bound_epsilon = -1.0;
  options.max_order = 1;  // drops both AND pairs, keeps {e4}
  CutSetAnalysis analysis = compute_cut_sets(tree, options);
  EXPECT_TRUE(analysis.truncated);
  EXPECT_EQ(analysis.cut_sets.size(), 1u);
  EXPECT_LE(*analysis.p_lower, exact + 1e-12);
  EXPECT_GE(*analysis.p_upper, exact - 1e-12);
}

TEST(BoundFrontier, MaxSetsStopsDraining) {
  FaultTree tree = frontier_tree(8, 0);
  CutSetOptions options;
  options.engine = CutSetEngine::kBound;
  options.bound_epsilon = -1.0;
  options.max_sets = 2;
  CutSetAnalysis analysis = compute_cut_sets(tree, options);
  EXPECT_TRUE(analysis.truncated);
  EXPECT_LE(analysis.cut_sets.size(), 2u);
  const double exact = bdd_exact(tree);
  EXPECT_LE(*analysis.p_lower, exact + 1e-12);
  EXPECT_GE(*analysis.p_upper, exact - 1e-12);
}

TEST(BoundFrontier, ExpansionBudgetTruncates) {
  FaultTree tree = frontier_tree(10, 4);
  CutSetOptions options;
  options.engine = CutSetEngine::kBound;
  options.bound_epsilon = -1.0;
  options.budget.max_nodes = 1;  // the bound engine's expansion cap
  CutSetAnalysis analysis = compute_cut_sets(tree, options);
  EXPECT_TRUE(analysis.truncated);
  ASSERT_TRUE(analysis.frontier_stats.has_value());
  EXPECT_LE(analysis.frontier_stats->expansions, 1u);
  EXPECT_LE(*analysis.p_lower, *analysis.p_upper);
}

TEST(BoundParallel, OutputByteIdenticalAcrossJobs) {
  // Batch-level --jobs: the trees of one batch run concurrently, each
  // drained on its own worker. Both the anytime stop and the run to
  // exhaustion must print the serial bytes and the bit-identical interval.
  auto trees = [] {
    std::vector<FaultTree> out;
    out.push_back(frontier_tree(12, 6));
    out.push_back(frontier_tree(10, 4));
    out.push_back(frontier_tree(8, 5));
    return out;
  };
  for (double epsilon : {1e-6, -1.0}) {
    BatchOptions options;
    options.analysis.cut_sets.engine = CutSetEngine::kBound;
    options.analysis.cut_sets.bound_epsilon = epsilon;
    const BatchResult serial = analyse_trees(trees(), {}, options, nullptr);
    for (int jobs : {2, 8}) {
      ThreadPool pool(jobs);
      const BatchResult pooled = analyse_trees(trees(), {}, options, &pool);
      ASSERT_EQ(pooled.items.size(), serial.items.size());
      for (std::size_t i = 0; i < serial.items.size(); ++i) {
        const CutSetAnalysis& a = serial.items[i].analysis->cut_sets;
        const CutSetAnalysis& b = pooled.items[i].analysis->cut_sets;
        EXPECT_EQ(b.to_string(), a.to_string())
            << "eps=" << epsilon << " jobs=" << jobs << " item=" << i;
        EXPECT_EQ(*b.p_lower, *a.p_lower) << "jobs=" << jobs << " item=" << i;
        EXPECT_EQ(*b.p_upper, *a.p_upper) << "jobs=" << jobs << " item=" << i;
      }
    }
  }
}

TEST(BoundAdversarial, CertifiesIntervalWhereZbddExhaustsNodeBudget) {
  FaultTree tree = frontier_tree(12, 20);  // 2^20 sets behind the guard

  // The bound engine: a few expansions price the guarded region via its
  // precomputed gate bound and the interval converges far below the
  // 1e-3 acceptance width.
  CutSetOptions options;
  options.engine = CutSetEngine::kBound;
  options.budget.max_nodes = 10000;
  CutSetAnalysis analysis = compute_cut_sets(tree, options);
  ASSERT_TRUE(analysis.p_lower.has_value());
  EXPECT_TRUE(analysis.converged);
  EXPECT_LE(*analysis.p_upper - *analysis.p_lower, 1e-3);
  ASSERT_TRUE(analysis.frontier_stats.has_value());
  EXPECT_LT(analysis.frontier_stats->expansions, 100u);
  // The dominant mass is the union of the 12 independent ladder pairs.
  const double pair = std::pow(1.0 - std::exp(-0.05), 2);
  const double ladder = 1.0 - std::pow(1.0 - pair, 12);
  EXPECT_NEAR(*analysis.p_lower, ladder, 1e-9);

  // The ZBDD engine under a node ceiling 10x the bound engine's whole
  // expansion budget: the grouped variable order forces an exponential
  // diagram, so extraction is cut short and the family is flagged.
  CutSetOptions zopts;
  zopts.engine = CutSetEngine::kZbdd;
  zopts.max_sets = 4304;  // node ceiling = 8 * max_sets + 2^16 = 100'000
  zopts.budget.set_deadline_ms(30000);  // backstop only; the ceiling fires
  CutSetAnalysis zbdd = compute_cut_sets(tree, zopts);
  EXPECT_TRUE(zbdd.truncated);
}

}  // namespace
}  // namespace ftsynth
