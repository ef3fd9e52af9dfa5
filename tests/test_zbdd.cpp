// Unit tests for the zero-suppressed BDD manager.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string_view>
#include <vector>

#include "analysis/cutsets.h"
#include "bdd/zbdd.h"
#include "casestudy/synthetic.h"
#include "fta/synthesis.h"

namespace ftsynth {
namespace {

using Family = std::set<std::vector<int>>;

Family enumerate(const Zbdd& zbdd, Zbdd::Ref a) {
  Family family;
  zbdd.for_each_set(a, [&](const std::vector<int>& set) {
    family.insert(set);
    return true;
  });
  return family;
}

TEST(Zbdd, Terminals) {
  Zbdd zbdd;
  EXPECT_EQ(enumerate(zbdd, Zbdd::kEmpty), Family{});
  EXPECT_EQ(enumerate(zbdd, Zbdd::kBase), Family{{}});
  EXPECT_EQ(zbdd.set_count(Zbdd::kEmpty), 0.0);
  EXPECT_EQ(zbdd.set_count(Zbdd::kBase), 1.0);
}

TEST(Zbdd, SinglesAreCanonical) {
  Zbdd zbdd;
  int x = zbdd.new_var();
  int y = zbdd.new_var();
  EXPECT_EQ(zbdd.single(x), zbdd.single(x));  // unique table: same node
  EXPECT_NE(zbdd.single(x), zbdd.single(y));
  EXPECT_EQ(enumerate(zbdd, zbdd.single(x)), Family{{x}});
  EXPECT_EQ(zbdd.node_count(zbdd.single(x)), 1u);
}

TEST(Zbdd, UnionIntersectionAlgebra) {
  Zbdd zbdd;
  Zbdd::Ref x = zbdd.single(zbdd.new_var());
  Zbdd::Ref y = zbdd.single(zbdd.new_var());
  Zbdd::Ref both = zbdd.set_union(x, y);
  EXPECT_EQ(zbdd.set_count(both), 2.0);
  EXPECT_EQ(zbdd.set_union(both, x), both);      // idempotent
  EXPECT_EQ(zbdd.set_union(y, x), both);         // commutative, canonical
  EXPECT_EQ(zbdd.set_intersection(both, x), x);
  EXPECT_EQ(zbdd.set_intersection(x, y), Zbdd::kEmpty);
  EXPECT_EQ(zbdd.set_union(x, Zbdd::kEmpty), x);
  EXPECT_EQ(zbdd.set_intersection(x, Zbdd::kEmpty), Zbdd::kEmpty);
}

TEST(Zbdd, ProductIsPairwiseUnion) {
  Zbdd zbdd;
  int a = zbdd.new_var();
  int b = zbdd.new_var();
  int c = zbdd.new_var();
  // {{a}, {b}} x {{c}} = {{a, c}, {b, c}}.
  Zbdd::Ref left = zbdd.set_union(zbdd.single(a), zbdd.single(b));
  Zbdd::Ref prod = zbdd.product(left, zbdd.single(c));
  EXPECT_EQ(enumerate(zbdd, prod), (Family{{a, c}, {b, c}}));
  // kBase is the product identity, kEmpty annihilates.
  EXPECT_EQ(zbdd.product(left, Zbdd::kBase), left);
  EXPECT_EQ(zbdd.product(left, Zbdd::kEmpty), Zbdd::kEmpty);
  // {a} x {a} = {a}: union of equal sets, not a square.
  EXPECT_EQ(zbdd.product(zbdd.single(a), zbdd.single(a)), zbdd.single(a));
}

TEST(Zbdd, WithoutDropsSupersets) {
  Zbdd zbdd;
  int a = zbdd.new_var();
  int b = zbdd.new_var();
  Zbdd::Ref ab = zbdd.product(zbdd.single(a), zbdd.single(b));
  Zbdd::Ref family = zbdd.set_union(ab, zbdd.single(b));
  // {{a, b}, {b}} without {{a}}: {a, b} is a superset of {a}.
  EXPECT_EQ(enumerate(zbdd, zbdd.without(family, zbdd.single(a))),
            Family{{b}});
  // The empty set subsumes everything.
  EXPECT_EQ(zbdd.without(family, Zbdd::kBase), Zbdd::kEmpty);
  EXPECT_EQ(zbdd.without(family, Zbdd::kEmpty), family);
}

TEST(Zbdd, MinimalRemovesStrictSupersets) {
  Zbdd zbdd;
  int a = zbdd.new_var();
  int b = zbdd.new_var();
  int c = zbdd.new_var();
  Zbdd::Ref ab = zbdd.product(zbdd.single(a), zbdd.single(b));
  Zbdd::Ref abc = zbdd.product(ab, zbdd.single(c));
  Zbdd::Ref family = zbdd.set_union(zbdd.set_union(zbdd.single(a), ab), abc);
  // {a} absorbs {a, b} and {a, b, c}.
  EXPECT_EQ(zbdd.minimal(family), zbdd.single(a));
  // Incomparable sets all survive.
  Zbdd::Ref bc = zbdd.product(zbdd.single(b), zbdd.single(c));
  Zbdd::Ref mixed = zbdd.set_union(zbdd.single(a), bc);
  EXPECT_EQ(zbdd.minimal(mixed), mixed);
}

TEST(Zbdd, EnumerationIsAscendingPerSet) {
  Zbdd zbdd;
  std::vector<int> vars;
  for (int i = 0; i < 4; ++i) vars.push_back(zbdd.new_var());
  Zbdd::Ref chain = Zbdd::kBase;
  for (int v : vars) chain = zbdd.product(chain, zbdd.single(v));
  std::vector<std::vector<int>> seen;
  zbdd.for_each_set(chain, [&](const std::vector<int>& set) {
    seen.push_back(set);
    return true;
  });
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_TRUE(std::is_sorted(seen[0].begin(), seen[0].end()));
  EXPECT_EQ(seen[0].size(), 4u);
}

TEST(Zbdd, EnumerationStopsWhenAsked) {
  Zbdd zbdd;
  Zbdd::Ref family =
      zbdd.set_union(zbdd.single(zbdd.new_var()),
                     zbdd.single(zbdd.new_var()));
  int visits = 0;
  zbdd.for_each_set(family, [&](const std::vector<int>&) {
    ++visits;
    return false;  // stop after the first set
  });
  EXPECT_EQ(visits, 1);
}

TEST(Zbdd, NodeLimitInterrupts) {
  Zbdd zbdd;
  zbdd.set_node_limit(8);
  std::vector<int> vars;
  for (int i = 0; i < 32; ++i) vars.push_back(zbdd.new_var());
  bool interrupted = false;
  try {
    Zbdd::Ref acc = Zbdd::kEmpty;
    for (int v : vars) acc = zbdd.set_union(acc, zbdd.single(v));
  } catch (const Zbdd::Interrupt& interrupt) {
    interrupted = true;
    EXPECT_FALSE(interrupt.deadline_exceeded);
  }
  EXPECT_TRUE(interrupted);
}

TEST(Zbdd, ExpiredBudgetInterrupts) {
  Zbdd zbdd;
  Budget budget;
  budget.set_deadline_ms(0);  // already past
  zbdd.set_budget(&budget);
  bool interrupted = false;
  try {
    // Enough allocations to pass the amortised poll stride.
    Zbdd::Ref acc = Zbdd::kEmpty;
    for (int i = 0; i < 256; ++i)
      acc = zbdd.set_union(acc, zbdd.single(zbdd.new_var()));
  } catch (const Zbdd::Interrupt& interrupt) {
    interrupted = true;
    EXPECT_TRUE(interrupt.deadline_exceeded);
  }
  EXPECT_TRUE(interrupted);
}

TEST(Zbdd, RauzyMinsolOnSharedStructure) {
  // (a OR x) AND (b OR x) has minimal cut sets {x} and {a, b}; the naive
  // product also produces {a, x}, {b, x} and {x, x} = {x}.
  Zbdd zbdd;
  int a = zbdd.new_var();
  int b = zbdd.new_var();
  int x = zbdd.new_var();
  Zbdd::Ref left = zbdd.set_union(zbdd.single(a), zbdd.single(x));
  Zbdd::Ref right = zbdd.set_union(zbdd.single(b), zbdd.single(x));
  Zbdd::Ref minimal = zbdd.minimal(zbdd.product(left, right));
  EXPECT_EQ(enumerate(zbdd, minimal), (Family{{x}, {a, b}}));
}

// -- The engine on the committed adversarial fixtures ----------------------------

/// What `--engine zbdd` builds for Omission-sink of `model`: the working
/// set high-water mark (the manager's slot count), the nodes the kept root
/// reaches, and an FNV-1a digest of the node array in Ref order. A Ref is
/// its node's allocation serial, so a change to the order the conversion
/// allocates in moves the digest even where the counts hold.
struct ZbddConstruction {
  std::size_t peak_sets = 0;
  std::size_t root_nodes = 0;
  std::size_t cut_sets = 0;
  std::uint64_t digest = 14695981039346656037ull;
};

ZbddConstruction zbdd_construction(const Model& model) {
  Synthesiser synthesiser(model);
  FaultTree tree = synthesiser.synthesise("Omission-sink");
  CutSetOptions options;
  options.engine = CutSetEngine::kZbdd;
  options.keep_diagram = true;
  const CutSetAnalysis analysis = compute_cut_sets(tree, options);
  ZbddConstruction out;
  if (analysis.diagram == nullptr) {
    ADD_FAILURE() << "the zbdd engine kept no diagram";
    return out;
  }
  const Zbdd& zbdd = analysis.diagram->zbdd;
  out.peak_sets = analysis.peak_sets;
  out.root_nodes = zbdd.node_count(analysis.diagram->root);
  out.cut_sets = analysis.cut_sets.size();
  auto mix = [&](std::uint64_t value) {
    out.digest = (out.digest ^ value) * 1099511628211ull;
  };
  for (Zbdd::Ref ref = 2; ref < zbdd.size(); ++ref) {
    const Zbdd::Node& n = zbdd.node(ref);
    mix(static_cast<std::uint64_t>(n.var));
    mix(n.low);
    mix(n.high);
  }
  mix(analysis.diagram->root);
  EXPECT_EQ(out.peak_sets, zbdd.size());
  return out;
}

TEST(ZbddEngine, AdversarialProductConstructionIsPinned) {
  // The grouped DFS order keeps the transversal family exponential: 2^10
  // sets whose diagram needs well over 2^10 nodes.
  const ZbddConstruction built =
      zbdd_construction(synthetic::build_adversarial_product(10));
  EXPECT_EQ(built.cut_sets, 1u << 10);
  EXPECT_EQ(built.peak_sets, 3116u);
  EXPECT_EQ(built.root_nodes, 2046u);
  EXPECT_EQ(built.digest, 16247188210589181272ull);
}

TEST(ZbddEngine, AdversarialVotersConstructionIsPinned) {
  const ZbddConstruction built =
      zbdd_construction(synthetic::build_adversarial_voters(5));
  EXPECT_EQ(built.cut_sets, 243u);  // 3^5 voter pair choices
  EXPECT_EQ(built.peak_sets, 478u);
  EXPECT_EQ(built.root_nodes, 222u);
  EXPECT_EQ(built.digest, 1145246354111835203ull);
}

TEST(ZbddEngine, AgreesWithTheSetEngineOnEveryFixture) {
  auto check = [](const Model& model, std::string_view top) {
    Synthesiser synthesiser(model);
    FaultTree tree = synthesiser.synthesise(top);
    CutSetOptions options;
    const CutSetAnalysis micsup = compute_cut_sets(tree, options);
    options.engine = CutSetEngine::kZbdd;
    EXPECT_EQ(compute_cut_sets(tree, options).to_string(), micsup.to_string())
        << model.name();
  };
  check(synthetic::build_adversarial_product(6), "Omission-sink");
  check(synthetic::build_adversarial_voters(3), "Omission-sink");
  check(synthetic::build_diamond(6), "Omission-sink");
}

}  // namespace
}  // namespace ftsynth
