// Cross-engine differential fuzzing for the cut-set pipeline.
//
// A seeded generator produces random AND/OR/NOT fault trees (shared
// subtrees included, so they are DAGs), with k-of-n votes in the
// take/skip shape the Open-PSA importer expands `atleast` into; every
// tree is analysed by the three engines (micsup, zbdd, bound). All
// renderings must be byte-identical: the canonical minimal cut-set family
// is engine-invariant. Ground truth
// does not rest on the engines agreeing with each other: a brute-force
// oracle enumerates every assignment of the tree's events. Its minimal
// satisfying literal sets (NOT x a variable of its own, sets holding x
// and NOT x dropped) must equal the engines' family on every tree, and
// its exact probability (NOT x the complement of x) must match the BDD
// engine's. The bound engine additionally certifies a probability
// interval, which must always contain the exact BDD probability -- both
// when run to exhaustion and when stopped early at the default epsilon.
//
// Failures report the offending seed; rerun a single seed with
//   ctest -R 'DifferentialFuzz.*/<seed>'
// and shrink by lowering kTreesPerSeed locally. The suite name is NOT
// matched by the TSan regex on purpose: the sanitizer fuzz budget belongs
// to the ASan/UBSan job, which runs the full ctest suite.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <string>
#include <unordered_map>
#include <unordered_set>
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
/// Seeds from here on draw 11-14 events instead of 4-10.
constexpr int kFirstLargeSeed = 25;

/// "At least k of `operands`", 2 <= k < n, in the take/skip shape the
/// Open-PSA importer expands `atleast` into (mef_reader.cpp make_atleast):
/// f(i, need) = OR(AND(op[i], f(i+1, need-1)), f(i+1, need)), memoised
/// into an O(n*k) DAG, with the same constant folding.
FtNode* add_at_least(FaultTree& tree, const std::vector<FtNode*>& operands,
                     int k, const std::string& label) {
  const int n = static_cast<int>(operands.size());
  std::unordered_map<int, FtNode*> memo;
  // Only called with 1 <= need <= n - i, where the result is a node.
  auto at_least = [&](auto&& self, int i, int need) -> FtNode* {
    const int key = i * (n + 1) + need;
    if (auto it = memo.find(key); it != memo.end()) return it->second;
    FtNode* take =
        need == 1 ? operands[static_cast<std::size_t>(i)]
                  : tree.add_gate(GateKind::kAnd, label,
                                  {operands[static_cast<std::size_t>(i)],
                                   self(self, i + 1, need - 1)});
    FtNode* result =
        need > n - i - 1
            ? take
            : tree.add_gate(GateKind::kOr, label,
                            {take, self(self, i + 1, need)});
    memo.emplace(key, result);
    return result;
  };
  return at_least(at_least, 0, k);
}

/// Builds one random fault tree over `min_events`..`max_events` basic
/// events. Shapes are deliberately small enough that no engine truncates:
/// truncated enumerations may legitimately differ across engines,
/// so only CLEAN analyses are compared.
FaultTree random_tree(std::mt19937& rng, int tag, int min_events,
                      int max_events) {
  FaultTree tree("fuzz_" + std::to_string(tag));
  std::uniform_int_distribution<int> event_count(min_events, max_events);
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
  std::unordered_set<const FtNode*> used;  ///< nodes some gate has as child
  for (int i = 0; i < nots; ++i) {
    FtNode* leaf = pool[leaf_pick(rng)];
    used.insert(leaf);
    pool.push_back(tree.add_gate(GateKind::kNot, "not gate", {leaf}));
  }
  // Up to two house leaves (constant true, no variable): an AND drops
  // them, an OR they reach becomes true, and a top they reach through ORs
  // alone has the empty cut set as its whole family. That last case needs
  // no more than a few trees, so most trees get none.
  std::discrete_distribution<int> house_count({6, 3, 1});
  const int houses = house_count(rng);
  for (int i = 0; i < houses; ++i)
    pool.push_back(tree.add_house(Symbol("h" + std::to_string(i)),
                                  "fuzz house"));

  // Internal gates draw children from everything built so far, so shared
  // subtrees (DAG structure) arise naturally. While some event or gate is
  // still loose (no gate has it as a child yet), a gate's first child is
  // one of them, so most events end up under the top. One gate in five is
  // a k-of-n vote over 3-5 children with 2 <= k < n.
  const auto loose = [&] {
    std::vector<FtNode*> out;
    for (FtNode* node : pool)
      if (used.count(node) == 0 && node->kind() != NodeKind::kHouse)
        out.push_back(node);
    return out;
  };
  std::uniform_int_distribution<int> gate_count(3, std::max(8, events));
  std::uniform_int_distribution<int> child_count(2, 4);
  std::uniform_int_distribution<int> kind_pick(0, 4);
  const int gates = gate_count(rng);
  FtNode* last = nullptr;
  for (int g = 0; g < gates; ++g) {
    std::uniform_int_distribution<int> pick(0,
                                            static_cast<int>(pool.size()) - 1);
    const int kind = kind_pick(rng);
    const int arity = kind == 4 ? child_count(rng) + 1 : child_count(rng);
    std::vector<FtNode*> children;
    if (const std::vector<FtNode*> fresh = loose(); !fresh.empty())
      children.push_back(fresh[std::uniform_int_distribution<std::size_t>(
          0, fresh.size() - 1)(rng)]);
    while (static_cast<int>(children.size()) < arity) {
      FtNode* child = pool[pick(rng)];
      bool duplicate = false;
      for (FtNode* seen : children) duplicate |= seen == child;
      if (duplicate) break;
      children.push_back(child);
    }
    if (children.size() < 2) children.push_back(pool[leaf_pick(rng)]);
    for (FtNode* child : children) used.insert(child);
    const std::string label = "gate " + std::to_string(g);
    if (kind == 4 && children.size() >= 3) {
      std::uniform_int_distribution<int> k_pick(
          2, static_cast<int>(children.size()) - 1);
      last = add_at_least(tree, children, k_pick(rng), label);
    } else {
      last = tree.add_gate(kind % 2 == 0 ? GateKind::kAnd : GateKind::kOr,
                           label, std::move(children));
    }
    pool.push_back(last);
  }
  // Whatever is still loose -- the last gate at least -- joins an OR top,
  // so the top reaches every event. Loose house leaves stay out: they
  // would make the top constant true.
  if (std::vector<FtNode*> rest = loose(); rest.size() >= 2)
    last = tree.add_gate(GateKind::kOr, "top gate", std::move(rest));
  tree.set_top(last);
  tree.set_top_description("fuzz top " + std::to_string(tag));
  return tree;
}

/// Ground truth by exhaustion over the reachable basic events (at most 14
/// in these trees). House leaves are true in every row.
struct BruteForce {
  double probability = 0.0;  ///< exact P(top), summed over satisfying rows
  /// Minimal cut sets, rendered like CutSetAnalysis::to_string.
  std::string minimal_family;
};

BruteForce brute_force(const FaultTree& tree) {
  // Postorder over the DAG: children always precede their parents.
  std::vector<const FtNode*> order;
  std::unordered_map<const FtNode*, std::size_t> index;
  std::vector<const FtNode*> events;
  std::vector<const FtNode*> negated;  ///< leaves under a NOT gate
  auto visit = [&](auto&& self, const FtNode* node) -> void {
    if (index.count(node) != 0) return;
    for (const FtNode* child : node->children()) self(self, child);
    index.emplace(node, order.size());
    order.push_back(node);
    if (node->kind() == NodeKind::kBasic) events.push_back(node);
    if (node->kind() == NodeKind::kGate && node->gate() == GateKind::kNot &&
        std::find(negated.begin(), negated.end(), node->children()[0]) ==
            negated.end())
      negated.push_back(node->children()[0]);
  };
  visit(visit, tree.top());
  auto by_name = [](const FtNode* a, const FtNode* b) {
    return a->name().str() < b->name().str();
  };
  std::sort(events.begin(), events.end(), by_name);
  std::sort(negated.begin(), negated.end(), by_name);
  // Variable v < n is events[v]; variable n + j is "NOT negated[j]".
  const std::size_t n = events.size();
  std::unordered_map<const FtNode*, std::size_t> event_bit;
  std::unordered_map<const FtNode*, std::size_t> negated_bit;
  for (std::size_t e = 0; e < n; ++e) event_bit.emplace(events[e], e);
  for (std::size_t j = 0; j < negated.size(); ++j)
    negated_bit.emplace(negated[j], n + j);
  std::vector<std::vector<std::size_t>> kids(order.size());
  for (std::size_t i = 0; i < order.size(); ++i)
    for (const FtNode* child : order[i]->children())
      kids[i].push_back(index.at(child));

  // The top's value under `mask`. `literals` selects the engines' cut-set
  // semantics, where NOT x is a variable of its own; otherwise NOT x is
  // the complement of x.
  std::vector<char> value(order.size(), 0);
  auto satisfied = [&](std::uint32_t mask, bool literals) {
    for (std::size_t i = 0; i < order.size(); ++i) {
      const FtNode* node = order[i];
      if (node->kind() == NodeKind::kBasic) {
        value[i] = (mask >> event_bit.at(node)) & 1u;
        continue;
      }
      if (node->kind() == NodeKind::kHouse) {
        value[i] = 1;
        continue;
      }
      const std::vector<std::size_t>& children = kids[i];
      switch (node->gate()) {
        case GateKind::kNot:
          value[i] = literals
                         ? (mask >> negated_bit.at(node->children()[0])) & 1u
                         : !value[children[0]];
          break;
        case GateKind::kAnd:
          value[i] = 1;
          for (std::size_t c : children) value[i] = value[i] && value[c];
          break;
        default:  // the generator builds only NOT, AND and OR gates
          value[i] = 0;
          for (std::size_t c : children) value[i] = value[i] || value[c];
          break;
      }
    }
    return value.back() != 0;
  };

  BruteForce out;
  std::vector<double> p;
  for (const FtNode* event : events)
    p.push_back(event_probability(*event, ProbabilityOptions{}));
  for (std::uint32_t mask = 0; mask < (1u << n); ++mask) {
    if (!satisfied(mask, false)) continue;
    double row = 1.0;
    for (std::size_t e = 0; e < n; ++e)
      row *= (mask >> e) & 1u ? p[e] : 1.0 - p[e];
    out.probability += row;
  }

  // With NOT x a variable of its own the top is monotone, so a satisfying
  // literal set is minimal exactly when dropping any one literal falsifies
  // the top. A set holding x and NOT x is then dropped: it can only absorb
  // supersets that hold both too, so dropping it after minimisation gives
  // the family the engines compute by dropping contradictions as they go.
  const std::size_t vars = n + negated.size();
  const std::uint32_t rows = 1u << vars;
  std::vector<char> sat(rows, 0);
  for (std::uint32_t mask = 0; mask < rows; ++mask)
    sat[mask] = satisfied(mask, true);
  // Each set as its ascending (2 * name rank + negated) keys: the engines'
  // canonical order is by size, then lexicographic keys.
  std::vector<std::vector<std::size_t>> family;
  for (std::uint32_t mask = 0; mask < rows; ++mask) {
    if (!sat[mask]) continue;
    bool minimal = true;
    for (std::size_t v = 0; v < vars && minimal; ++v)
      if ((mask >> v) & 1u) minimal = !sat[mask & ~(1u << v)];
    if (!minimal) continue;
    std::vector<std::size_t> keys;
    bool contradictory = false;
    for (std::size_t v = 0; v < vars; ++v) {
      if (((mask >> v) & 1u) == 0) continue;
      if (v < n) {
        keys.push_back(2 * v);
        continue;
      }
      const std::size_t e = event_bit.at(negated[v - n]);
      contradictory = contradictory || ((mask >> e) & 1u) != 0;
      keys.push_back(2 * e + 1);
    }
    if (contradictory) continue;
    std::sort(keys.begin(), keys.end());
    family.push_back(std::move(keys));
  }
  std::sort(family.begin(), family.end(),
            [](const std::vector<std::size_t>& a,
               const std::vector<std::size_t>& b) {
              if (a.size() != b.size()) return a.size() < b.size();
              return a < b;
            });
  for (const std::vector<std::size_t>& keys : family) {
    out.minimal_family += "{";
    for (std::size_t i = 0; i < keys.size(); ++i) {
      if (i != 0) out.minimal_family += ", ";
      if (keys[i] & 1u) out.minimal_family += "NOT ";
      out.minimal_family += events[keys[i] / 2]->name().str();
    }
    out.minimal_family += "}\n";
  }
  return out;
}

class DifferentialFuzz : public ::testing::TestWithParam<int> {};

// The name predates the retired cone cache and --order, whose cold/warm
// and static/sift legs this test used to run; it is kept so the seeded
// instances keep their history.
TEST_P(DifferentialFuzz, EnginesOrdersAndCachesAgree) {
  const int seed = GetParam();
  const bool large = seed >= kFirstLargeSeed;
  std::mt19937 rng(static_cast<unsigned>(seed) * 2654435761u + 1u);
  for (int t = 0; t < kTreesPerSeed; ++t) {
    FaultTree tree = random_tree(rng, seed * kTreesPerSeed + t,
                                 large ? 11 : 4, large ? 14 : 10);

    CutSetOptions options;
    CutSetAnalysis reference = compute_cut_sets(tree, options);
    ASSERT_FALSE(reference.truncated)
        << "generator produced a truncating tree; seed=" << seed
        << " tree=" << t;
    const std::string expected = reference.to_string();

    options.engine = CutSetEngine::kZbdd;
    EXPECT_EQ(compute_cut_sets(tree, options).to_string(), expected)
        << "zbdd diverged; seed=" << seed << " tree=" << t;

    // The brute-force oracle: the engines' family itself, and the BDD
    // probability to 1e-12 relative.
    const BruteForce truth = brute_force(tree);
    EXPECT_EQ(expected, truth.minimal_family)
        << "engines' family differs from brute force; seed=" << seed
        << " tree=" << t;
    BddEncoding encoding = encode_bdd(tree);
    BddProbabilityEngine prob_engine(
        encoding.bdd, encoding.probabilities(ProbabilityOptions{}));
    const double exact = prob_engine.probability(encoding.root);
    EXPECT_LE(std::abs(exact - truth.probability),
              1e-12 * std::max(std::abs(exact), std::abs(truth.probability)))
        << "BDD probability " << exact << " vs brute force "
        << truth.probability << "; seed=" << seed << " tree=" << t;
    // The array-memo kernels against the map-memo reference, bit for bit.
    testing_reference::expect_matches_reference(prob_engine, encoding.bdd,
                                                encoding.root);

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

// 30 seeds x 10 trees = 300 random DAGs per CI run (the last five seeds
// over 11-14 events), each analysed four ways (micsup, zbdd, bound to
// exhaustion and at the default epsilon) and checked
// against the brute-force oracle. The acceptance floor is 250 trees.
INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialFuzz, ::testing::Range(0, 30));

}  // namespace
}  // namespace ftsynth
