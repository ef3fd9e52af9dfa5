// Unit tests for importance measures.

#include <gtest/gtest.h>

#include "analysis/importance.h"

namespace ftsynth {
namespace {

class ImportanceTest : public ::testing::Test {
 protected:
  // top = frequent OR (rare1 AND rare2): the single-point event dominates.
  void SetUp() override {
    frequent_ = tree_.add_basic(Symbol("frequent"), 1e-3, "", "");
    rare1_ = tree_.add_basic(Symbol("rare1"), 1e-6, "", "");
    rare2_ = tree_.add_basic(Symbol("rare2"), 1e-6, "", "");
    FtNode* conj = tree_.add_gate(GateKind::kAnd, "", {rare1_, rare2_});
    tree_.set_top(tree_.add_gate(GateKind::kOr, "", {frequent_, conj}));
    analysis_ = minimal_cut_sets(tree_);
    options_.mission_time_hours = 100.0;
  }

  FaultTree tree_{"t"};
  FtNode* frequent_ = nullptr;
  FtNode* rare1_ = nullptr;
  FtNode* rare2_ = nullptr;
  CutSetAnalysis analysis_;
  ProbabilityOptions options_;
};

TEST_F(ImportanceTest, RanksDominantEventFirst) {
  std::vector<ImportanceEntry> ranking =
      analyse_reliability(tree_, analysis_, options_).importance;
  ASSERT_EQ(ranking.size(), 3u);
  EXPECT_EQ(ranking[0].event, frequent_);
  EXPECT_GT(ranking[0].fussell_vesely, 0.99);
  EXPECT_EQ(ranking[0].smallest_order, 1u);
  EXPECT_EQ(ranking[0].cut_set_count, 1u);
  EXPECT_EQ(ranking[1].smallest_order, 2u);
}

TEST_F(ImportanceTest, FussellVeselySumsOverContainingCutSets) {
  // rare1 appears in exactly one of the two cut sets.
  std::vector<ImportanceEntry> ranking =
      analyse_reliability(tree_, analysis_, options_).importance;
  const double total =
      rare_event_bound(cut_set_probabilities(analysis_, options_));
  for (const ImportanceEntry& entry : ranking) {
    if (entry.event != rare1_) continue;
    double expected = 0.0;
    for (const CutSet& cs : analysis_.cut_sets) {
      for (const CutLiteral& literal : cs) {
        if (literal.event == rare1_)
          expected += cut_set_probability(cs, options_) / total;
      }
    }
    EXPECT_NEAR(entry.fussell_vesely, expected, 1e-12);
  }
}

TEST_F(ImportanceTest, BirnbaumMatchesClosedForm) {
  // For top = f OR (r1 AND r2): dP/dp_f = 1 - p_r1 * p_r2.
  std::vector<ImportanceEntry> ranking =
      analyse_reliability(tree_, analysis_, options_).importance;
  const double p1 = event_probability(*rare1_, options_);
  const double p2 = event_probability(*rare2_, options_);
  const double pf = event_probability(*frequent_, options_);
  for (const ImportanceEntry& entry : ranking) {
    if (entry.event == frequent_) {
      EXPECT_NEAR(entry.birnbaum, 1.0 - p1 * p2, 1e-12);
    }
    if (entry.event == rare1_) {
      EXPECT_NEAR(entry.birnbaum, (1.0 - pf) * p2, 1e-12);
    }
  }
}

TEST_F(ImportanceTest, RawAndRrwMatchClosedForms) {
  std::vector<ImportanceEntry> ranking =
      analyse_reliability(tree_, analysis_, options_).importance;
  const double pf = event_probability(*frequent_, options_);
  const double p1 = event_probability(*rare1_, options_);
  const double p2 = event_probability(*rare2_, options_);
  const double p_top = pf + (1.0 - pf) * p1 * p2;
  for (const ImportanceEntry& entry : ranking) {
    if (entry.event == frequent_) {
      // Given the frequent event, the top is certain.
      EXPECT_NEAR(entry.raw, 1.0 / p_top, 1e-9);
      // Without it, only the rare pair remains.
      EXPECT_NEAR(entry.rrw, p_top / (p1 * p2), 1e-9);
      EXPECT_GT(entry.raw, 1.0);
      EXPECT_GT(entry.rrw, 1.0);
    }
    if (entry.event == rare1_) {
      const double p_given = pf + (1.0 - pf) * p2;
      EXPECT_NEAR(entry.raw, p_given / p_top, 1e-9);
      EXPECT_NEAR(entry.rrw, p_top / pf, 1e-9);
    }
  }
}

TEST_F(ImportanceTest, RenderProducesTable) {
  std::vector<ImportanceEntry> ranking =
      analyse_reliability(tree_, analysis_, options_).importance;
  const std::string table = render_importance(ranking);
  EXPECT_NE(table.find("frequent"), std::string::npos);
  EXPECT_NE(table.find("Birnbaum"), std::string::npos);
}

TEST(Importance, EmptyTree) {
  FaultTree tree("t");
  CutSetAnalysis analysis = minimal_cut_sets(tree);
  EXPECT_TRUE(analyse_reliability(tree, analysis, ProbabilityOptions{})
                  .importance.empty());
}

}  // namespace
}  // namespace ftsynth
