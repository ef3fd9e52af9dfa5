// Dynamic variable reordering (Rudell sifting on the ZBDD): the swap
// primitive, Zbdd::sift, the engine-level --order policies and the adversarial
// regression fixtures. Suite names carry "Reorder" so the TSan CI job
// (Concurrency|Parallel|Reorder) picks them up.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "analysis/cutsets.h"
#include "bdd/zbdd.h"
#include "casestudy/synthetic.h"
#include "fta/synthesis.h"

namespace ftsynth {
namespace {

/// Canonical view of a ZBDD family: each set ascending, sets sorted.
std::vector<std::vector<int>> family_of(const Zbdd& zbdd, Zbdd::Ref ref) {
  std::vector<std::vector<int>> sets;
  zbdd.for_each_set(ref, [&](const std::vector<int>& literals) {
    std::vector<int> set = literals;
    std::sort(set.begin(), set.end());
    sets.push_back(std::move(set));
    return true;
  });
  std::sort(sets.begin(), sets.end());
  return sets;
}

/// The transversal family (a1+b1)...(an+bn) under the GROUPED declaration
/// order a1..an b1..bn -- exponential until the pairs interleave.
Zbdd::Ref grouped_product_family(Zbdd& zbdd, int pairs) {
  for (int i = 0; i < 2 * pairs; ++i) zbdd.new_var();
  Zbdd::Ref family = Zbdd::kBase;
  for (int i = 0; i < pairs; ++i)
    family = zbdd.product(
        family, zbdd.set_union(zbdd.single(i), zbdd.single(pairs + i)));
  return family;
}

TEST(ReorderSwap, ZbddSwapPreservesEveryFamily) {
  Zbdd zbdd;
  Zbdd::Ref family = grouped_product_family(zbdd, 4);
  Zbdd::Ref other = zbdd.set_union(zbdd.single(0), zbdd.product(
                                       zbdd.single(3), zbdd.single(5)));
  const auto family_before = family_of(zbdd, family);
  const auto other_before = family_of(zbdd, other);
  // Walk every adjacent swap up and down; refs must keep their meaning.
  for (int level = 0; level + 1 < zbdd.var_count(); ++level) {
    zbdd.swap_adjacent_levels(level);
    EXPECT_EQ(family_of(zbdd, family), family_before) << "level " << level;
  }
  for (int level = zbdd.var_count() - 2; level >= 0; --level)
    zbdd.swap_adjacent_levels(level);
  EXPECT_EQ(family_of(zbdd, family), family_before);
  EXPECT_EQ(family_of(zbdd, other), other_before);
  // A double swap restores the original order exactly.
  std::vector<int> order = zbdd.current_order();
  zbdd.swap_adjacent_levels(2);
  zbdd.swap_adjacent_levels(2);
  EXPECT_EQ(zbdd.current_order(), order);
}

TEST(ReorderSift, ShrinksTheGroupedProductFamily) {
  Zbdd zbdd;
  const int pairs = 8;
  Zbdd::Ref family = grouped_product_family(zbdd, pairs);
  const auto sets_before = family_of(zbdd, family);
  ASSERT_EQ(sets_before.size(), 1u << pairs);  // all transversals
  const std::size_t static_nodes = zbdd.node_count(family);
  EXPECT_GE(static_nodes, 1u << pairs);  // grouped order is exponential

  SiftStats stats = zbdd.sift({family});
  EXPECT_GT(stats.swaps, 0u);
  EXPECT_LE(stats.size_after, stats.size_before);
  const std::size_t sifted_nodes = zbdd.node_count(family);
  // The acceptance bar (>= 2x); the real gain here is ~40x.
  EXPECT_LE(sifted_nodes * 2, static_nodes);
  EXPECT_EQ(family_of(zbdd, family), sets_before);
}

TEST(ReorderSift, ExpiredBudgetStopsSiftingButNeverCorrupts) {
  Zbdd zbdd;
  Zbdd::Ref family = grouped_product_family(zbdd, 6);
  const auto sets_before = family_of(zbdd, family);
  Budget budget;
  budget.set_deadline_ms(1);
  budget.force_expire();
  SiftOptions options;
  options.budget = &budget;
  SiftStats stats = zbdd.sift({family}, options);
  EXPECT_TRUE(stats.interrupted);
  EXPECT_EQ(family_of(zbdd, family), sets_before);  // any order is valid
}

TEST(ReorderSift, SwapCeilingBoundsTheEffort) {
  Zbdd zbdd;
  Zbdd::Ref family = grouped_product_family(zbdd, 6);
  SiftOptions options;
  options.max_swaps = 10;
  SiftStats stats = zbdd.sift({family}, options);
  EXPECT_TRUE(stats.interrupted);
  // Parking back at the best position may cost a few extra swaps beyond
  // the ceiling, but never another journey.
  EXPECT_LE(stats.swaps, 10u + static_cast<std::size_t>(zbdd.var_count()));
}

TEST(ReorderSift, AutoReorderFiresOnTablePressure) {
  Zbdd zbdd;
  zbdd.set_auto_reorder(true, /*threshold=*/64);
  Zbdd::Ref family = grouped_product_family(zbdd, 8);
  EXPECT_TRUE(zbdd.reorder_pending());  // 2^8 nodes blew through 64
  const auto sets_before = family_of(zbdd, family);
  std::optional<SiftStats> stats = zbdd.maybe_reorder({family});
  ASSERT_TRUE(stats.has_value());
  EXPECT_FALSE(zbdd.reorder_pending());
  EXPECT_LT(stats->size_after, stats->size_before);
  EXPECT_EQ(family_of(zbdd, family), sets_before);
  // Rearmed above the (now small) live size: no immediate re-trigger.
  EXPECT_FALSE(zbdd.maybe_reorder({family}).has_value());
}

TEST(ReorderSift, CollectGarbageReclaimsAndReusesSlots) {
  Zbdd zbdd;
  Zbdd::Ref family = grouped_product_family(zbdd, 6);
  const std::size_t allocated = zbdd.size();
  const std::size_t live = zbdd.live_size({family});
  EXPECT_LT(live, zbdd.table_size());  // the product left garbage behind
  zbdd.collect_garbage({family});
  EXPECT_EQ(zbdd.table_size(), live);
  EXPECT_EQ(family_of(zbdd, family).size(), 1u << 6);
  // New nodes reuse reclaimed slots instead of growing the arena.
  Zbdd::Ref extra = zbdd.product(zbdd.single(0), zbdd.single(1));
  EXPECT_NE(extra, Zbdd::kEmpty);
  EXPECT_EQ(zbdd.size(), allocated);
}

// -- Engine-level policies and the committed adversarial fixtures ----------------

TEST(ReorderEngine, AdversarialProductPinnedNodeCounts) {
  Model model = synthetic::build_adversarial_product(10);
  Synthesiser synthesiser(model);
  FaultTree tree = synthesiser.synthesise("Omission-sink");
  CutSetOptions options;
  options.engine = CutSetEngine::kZbdd;
  CutSetAnalysis with_static = compute_cut_sets(tree, options);
  options.order = OrderPolicy::kSift;
  CutSetAnalysis with_sift = compute_cut_sets(tree, options);

  ASSERT_TRUE(with_static.reorder.has_value());
  ASSERT_TRUE(with_sift.reorder.has_value());
  EXPECT_EQ(with_static.reorder->policy, "static");
  EXPECT_EQ(with_sift.reorder->policy, "sift");
  EXPECT_EQ(with_static.reorder->swaps, 0u);
  EXPECT_GT(with_sift.reorder->swaps, 0u);
  // Static is exponential (>= 2^10 nodes on the root diagram); sifting
  // must win by at least the acceptance factor of 2 (actual: ~100x).
  EXPECT_GE(with_static.reorder->root_nodes, 1024u);
  EXPECT_LE(with_sift.reorder->root_nodes * 2,
            with_static.reorder->root_nodes);
  // Regression pin: the interleaved order is ~3 nodes per pair.
  EXPECT_LE(with_sift.reorder->root_nodes, 64u);
  EXPECT_FALSE(with_sift.reorder->final_order.empty());
  // Identical analysis either way.
  EXPECT_EQ(with_static.to_string(), with_sift.to_string());
  EXPECT_EQ(with_static.cut_sets.size(), 1u << 10);
}

TEST(ReorderEngine, AdversarialVotersPinnedNodeCounts) {
  Model model = synthetic::build_adversarial_voters(5);
  Synthesiser synthesiser(model);
  FaultTree tree = synthesiser.synthesise("Omission-sink");
  CutSetOptions options;
  options.engine = CutSetEngine::kZbdd;
  CutSetAnalysis with_static = compute_cut_sets(tree, options);
  options.order = OrderPolicy::kSift;
  CutSetAnalysis sifted = compute_cut_sets(tree, options);
  ASSERT_TRUE(with_static.reorder.has_value());
  ASSERT_TRUE(sifted.reorder.has_value());
  EXPECT_LE(sifted.reorder->root_nodes * 2, with_static.reorder->root_nodes);
  EXPECT_LE(sifted.reorder->root_nodes, 40u);  // per-stage interleaving
  EXPECT_EQ(with_static.to_string(), sifted.to_string());
  EXPECT_EQ(with_static.cut_sets.size(), 243u);  // 3^5 voter pair choices
}

TEST(ReorderEngine, PoliciesAgreeWithTheSetEngineOnEveryFixture) {
  auto check = [](const Model& model, std::string_view top) {
    Synthesiser synthesiser(model);
    FaultTree tree = synthesiser.synthesise(top);
    CutSetOptions options;
    CutSetAnalysis micsup = compute_cut_sets(tree, options);
    options.engine = CutSetEngine::kZbdd;
    for (OrderPolicy policy : {OrderPolicy::kStatic, OrderPolicy::kSift}) {
      options.order = policy;
      EXPECT_EQ(compute_cut_sets(tree, options).to_string(),
                micsup.to_string())
          << model.name() << " under " << to_string(policy);
    }
  };
  check(synthetic::build_adversarial_product(6), "Omission-sink");
  check(synthetic::build_adversarial_voters(3), "Omission-sink");
  check(synthetic::build_diamond(6), "Omission-sink");
}

}  // namespace
}  // namespace ftsynth
