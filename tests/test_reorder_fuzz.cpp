// Cross-engine differential fuzzing for the cut-set pipeline.
//
// A seeded generator produces random AND/OR/NOT fault trees (shared
// subtrees included, so they are DAGs); every tree is analysed by all
// four engines (micsup, mocus, zbdd, bound) under both --order policies.
// All renderings must be byte-identical: the canonical minimal cut-set
// family is order- and engine-invariant. Ground truth does not rest on the engines
// agreeing with each other: a brute-force oracle enumerates every
// assignment of the tree's events, and its exact probability must match
// the BDD engine's, and (for trees without NOT) its minimal satisfying
// event sets must equal the engines' family. The bound engine
// additionally certifies a probability interval, which must always
// contain the exact BDD probability -- both when run to exhaustion and
// when stopped early at the default epsilon.
//
// Failures report the offending seed; rerun a single seed with
//   ctest -R 'DifferentialFuzz.*/<seed>'
// and shrink by lowering kTreesPerSeed locally. The suite name is NOT
// matched by the TSan regex (Concurrency|Parallel|Reorder) on purpose:
// the sanitizer fuzz budget belongs to the ASan/UBSan job, which runs
// the full ctest suite.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/cutsets.h"
#include "analysis/probability.h"
#include "bdd/bdd_prob.h"
#include "bdd_prob_reference.h"
#include "casestudy/synthetic.h"
#include "core/symbol.h"
#include "fta/fault_tree.h"
#include "fta/synthesis.h"

namespace ftsynth {
namespace {

constexpr int kTreesPerSeed = 10;

/// Builds one random fault tree. Shapes are deliberately small enough
/// that no engine truncates: truncated enumerations may legitimately
/// differ across variable orders, so only CLEAN analyses are compared.
FaultTree random_tree(std::mt19937& rng, int tag) {
  FaultTree tree("fuzz_" + std::to_string(tag));
  std::uniform_int_distribution<int> event_count(4, 10);
  const int events = event_count(rng);

  // Leaves: basic events with varied rates, plus up to two NOT-over-leaf
  // gates (NOT over composite subtrees is rejected by the non-coherent
  // front end, so the generator stays within the supported fragment).
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
  // Up to two house leaves (constant true, no variable): an AND drops
  // them, an OR they reach becomes true, and a top they reach through ORs
  // alone has the empty cut set as its whole family.
  std::uniform_int_distribution<int> house_count(0, 2);
  const int houses = house_count(rng);
  for (int i = 0; i < houses; ++i)
    pool.push_back(tree.add_house(Symbol("h" + std::to_string(i)),
                                  "fuzz house"));

  // Internal gates draw children from everything built so far, so shared
  // subtrees (DAG structure) arise naturally.
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

/// Ground truth by exhaustion over the reachable basic events (at most 10
/// in these trees, so at most 1024 assignments). House leaves are true in
/// every row.
struct BruteForce {
  double probability = 0.0;  ///< exact P(top), summed over satisfying rows
  bool coherent = true;      ///< no NOT gate: the family below is meaningful
  /// Minimal satisfying event sets, rendered like CutSetAnalysis::to_string.
  std::string minimal_family;
};

BruteForce brute_force(const FaultTree& tree) {
  // Postorder over the DAG: children always precede their parents.
  std::vector<const FtNode*> order;
  std::unordered_map<const FtNode*, std::size_t> index;
  std::vector<const FtNode*> events;
  auto visit = [&](auto&& self, const FtNode* node) -> void {
    if (index.count(node) != 0) return;
    for (const FtNode* child : node->children()) self(self, child);
    index.emplace(node, order.size());
    order.push_back(node);
    if (node->kind() == NodeKind::kBasic) events.push_back(node);
  };
  visit(visit, tree.top());
  std::sort(events.begin(), events.end(), [](const FtNode* a, const FtNode* b) {
    return a->name().str() < b->name().str();
  });
  std::unordered_map<const FtNode*, int> bit;
  for (std::size_t i = 0; i < events.size(); ++i)
    bit.emplace(events[i], static_cast<int>(i));

  BruteForce out;
  std::vector<double> p;
  for (const FtNode* event : events)
    p.push_back(event_probability(*event, ProbabilityOptions{}));
  const std::uint32_t rows = 1u << events.size();
  std::vector<char> satisfied(rows, 0);
  std::vector<char> value(order.size(), 0);
  for (std::uint32_t mask = 0; mask < rows; ++mask) {
    for (std::size_t i = 0; i < order.size(); ++i) {
      const FtNode* node = order[i];
      if (node->kind() == NodeKind::kBasic) {
        value[i] = (mask >> bit.at(node)) & 1u;
        continue;
      }
      if (node->kind() == NodeKind::kHouse) {
        value[i] = 1;
        continue;
      }
      const std::vector<FtNode*>& children = node->children();
      auto child = [&](std::size_t c) { return value[index.at(children[c])]; };
      switch (node->gate()) {
        case GateKind::kNot:
          out.coherent = false;
          value[i] = !child(0);
          break;
        case GateKind::kAnd:
          value[i] = 1;
          for (std::size_t c = 0; c < children.size(); ++c)
            value[i] = value[i] && child(c);
          break;
        default:  // the generator builds only NOT, AND and OR gates
          value[i] = 0;
          for (std::size_t c = 0; c < children.size(); ++c)
            value[i] = value[i] || child(c);
          break;
      }
    }
    satisfied[mask] = value.back();
    if (!satisfied[mask]) continue;
    double row = 1.0;
    for (std::size_t e = 0; e < events.size(); ++e)
      row *= (mask >> e) & 1u ? p[e] : 1.0 - p[e];
    out.probability += row;
  }
  if (!out.coherent) return out;

  // Monotone function: a satisfying set is minimal exactly when dropping
  // any one of its events falsifies the top.
  std::vector<std::vector<std::string>> family;
  for (std::uint32_t mask = 0; mask < rows; ++mask) {
    if (!satisfied[mask]) continue;
    bool minimal = true;
    for (std::size_t e = 0; e < events.size() && minimal; ++e)
      if ((mask >> e) & 1u) minimal = !satisfied[mask & ~(1u << e)];
    if (!minimal) continue;
    std::vector<std::string> names;
    for (std::size_t e = 0; e < events.size(); ++e)
      if ((mask >> e) & 1u) names.push_back(events[e]->name().str());
    family.push_back(std::move(names));
  }
  // The engines' canonical order: by size, then lexicographic names.
  std::sort(family.begin(), family.end(),
            [](const std::vector<std::string>& a,
               const std::vector<std::string>& b) {
              if (a.size() != b.size()) return a.size() < b.size();
              return a < b;
            });
  for (const std::vector<std::string>& names : family) {
    out.minimal_family += "{";
    for (std::size_t i = 0; i < names.size(); ++i) {
      if (i != 0) out.minimal_family += ", ";
      out.minimal_family += names[i];
    }
    out.minimal_family += "}\n";
  }
  return out;
}

class DifferentialFuzz : public ::testing::TestWithParam<int> {};

// The name predates the retired cone cache, whose cold and warm legs this
// test used to run; it is kept so the 25 seeded instances keep their
// history.
TEST_P(DifferentialFuzz, EnginesOrdersAndCachesAgree) {
  const int seed = GetParam();
  std::mt19937 rng(static_cast<unsigned>(seed) * 2654435761u + 1u);
  for (int t = 0; t < kTreesPerSeed; ++t) {
    FaultTree tree = random_tree(rng, seed * kTreesPerSeed + t);

    CutSetOptions options;
    CutSetAnalysis reference = compute_cut_sets(tree, options);
    ASSERT_FALSE(reference.truncated)
        << "generator produced a truncating tree; seed=" << seed
        << " tree=" << t;
    const std::string expected = reference.to_string();

    options.engine = CutSetEngine::kMocus;
    EXPECT_EQ(compute_cut_sets(tree, options).to_string(), expected)
        << "mocus diverged; seed=" << seed << " tree=" << t;

    options.engine = CutSetEngine::kZbdd;
    for (OrderPolicy policy : {OrderPolicy::kStatic, OrderPolicy::kSift}) {
      options.order = policy;
      EXPECT_EQ(compute_cut_sets(tree, options).to_string(), expected)
          << "zbdd/" << to_string(policy) << " diverged; seed=" << seed
          << " tree=" << t;
    }

    // The brute-force oracle: the BDD probability to 1e-12 relative, and
    // on coherent trees the engines' family itself.
    BddEncoding encoding = encode_bdd(tree);
    BddProbabilityEngine prob_engine(
        encoding.bdd, encoding.probabilities(ProbabilityOptions{}));
    const double exact = prob_engine.probability(encoding.root);
    const BruteForce truth = brute_force(tree);
    EXPECT_LE(std::abs(exact - truth.probability),
              1e-12 * std::max(std::abs(exact), std::abs(truth.probability)))
        << "BDD probability " << exact << " vs brute force "
        << truth.probability << "; seed=" << seed << " tree=" << t;
    // The array-memo kernels against the map-memo reference, bit for bit.
    testing_reference::expect_matches_reference(prob_engine, encoding.bdd,
                                                encoding.root);
    if (truth.coherent) {
      EXPECT_EQ(expected, truth.minimal_family)
          << "engines' family differs from brute force; seed=" << seed
          << " tree=" << t;
    }

    // The bound engine, run to exhaustion (negative epsilon disables
    // early stopping): same canonical family, byte-identical.

    CutSetOptions bound;
    bound.engine = CutSetEngine::kBound;
    bound.bound_epsilon = -1.0;
    CutSetAnalysis exhausted = compute_cut_sets(tree, bound);
    EXPECT_EQ(exhausted.to_string(), expected)
        << "bound exhaustion diverged; seed=" << seed << " tree=" << t;
    // Certified containment: the SDP lower bound and the BDD take
    // different arithmetic routes, so allow a 1e-9 rounding whisker.
    ASSERT_TRUE(exhausted.p_lower.has_value());
    ASSERT_TRUE(exhausted.p_upper.has_value());
    EXPECT_LE(*exhausted.p_lower, exact + 1e-9)
        << "bound lower bound above exact; seed=" << seed << " tree=" << t;
    EXPECT_GE(*exhausted.p_upper, exact - 1e-9)
        << "bound upper bound below exact; seed=" << seed << " tree=" << t;

    // And again at the default epsilon: the run may stop early, but the
    // interval must still bracket the exact probability.
    bound.bound_epsilon = 1e-6;
    CutSetAnalysis anytime = compute_cut_sets(tree, bound);
    ASSERT_TRUE(anytime.p_lower.has_value());
    ASSERT_TRUE(anytime.p_upper.has_value());
    EXPECT_LE(*anytime.p_lower, exact + 1e-9)
        << "anytime lower bound above exact; seed=" << seed << " tree=" << t;
    EXPECT_GE(*anytime.p_upper, exact - 1e-9)
        << "anytime upper bound below exact; seed=" << seed << " tree=" << t;
  }
}

// 25 seeds x 10 trees = 250 random DAGs per CI run, each analysed nine
// ways (including two bound-engine runs checked against the exact BDD
// probability) and checked against the brute-force oracle. The
// acceptance floor is 200 trees.
INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialFuzz, ::testing::Range(0, 25));

}  // namespace
}  // namespace ftsynth
