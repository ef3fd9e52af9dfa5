// Unit tests for the one-call analysis reports.

#include <gtest/gtest.h>

#include "analysis/report.h"
#include "casestudy/synthetic.h"
#include "fta/synthesis.h"

namespace ftsynth {
namespace {

TEST(Report, AnalyseTreeFillsEveryField) {
  Model model = synthetic::build_chain(4);
  Synthesiser synthesiser(model);
  FaultTree tree = synthesiser.synthesise("Omission-sink");
  AnalysisOptions options;
  options.probability.mission_time_hours = 1000.0;
  TreeAnalysis analysis = analyse_tree(tree, options);

  EXPECT_EQ(analysis.top_event, "Omission-sink at chain");
  EXPECT_EQ(analysis.tree_stats.basic_event_count, 5u);
  EXPECT_EQ(analysis.cut_sets.cut_sets.size(), 5u);
  EXPECT_EQ(analysis.common_cause.single_points_of_failure.size(), 5u);
  EXPECT_EQ(analysis.importance.size(), 5u);
  EXPECT_GT(analysis.p_exact, 0.0);
  EXPECT_LE(analysis.p_exact, analysis.p_rare_event + 1e-15);
  EXPECT_NEAR(analysis.p_esary_proschan, analysis.p_exact, 1e-9);
}

TEST(Report, RenderContainsEverySection) {
  Model model = synthetic::build_chain(3);
  Synthesiser synthesiser(model);
  FaultTree tree = synthesiser.synthesise("Omission-sink");
  AnalysisOptions options;
  options.render_tree = true;
  TreeAnalysis analysis = analyse_tree(tree, options);
  const std::string text = render(tree, analysis, options);
  EXPECT_NE(text.find("=== Top event:"), std::string::npos);
  EXPECT_NE(text.find("Fault tree:"), std::string::npos);  // render_tree
  EXPECT_NE(text.find("minimal cut sets:"), std::string::npos);
  EXPECT_NE(text.find("P(top):"), std::string::npos);
  EXPECT_NE(text.find("Single points of failure"), std::string::npos);
  EXPECT_NE(text.find("Birnbaum"), std::string::npos);

  options.render_tree = false;
  EXPECT_EQ(render(tree, analysis, options).find("Fault tree:"),
            std::string::npos);
}

TEST(Report, RenderTruncatesLongCutSetLists) {
  synthetic::RandomModelConfig config;
  config.blocks = 40;
  config.max_fanin = 3;
  Model model = synthetic::build_random(config);
  Synthesiser synthesiser(model);
  FaultTree tree = synthesiser.synthesise("Omission-sink");
  AnalysisOptions options;
  TreeAnalysis analysis = analyse_tree(tree, options);
  if (analysis.cut_sets.cut_sets.size() > 20) {
    const std::string text = render(tree, analysis, options);
    EXPECT_NE(text.find("... and "), std::string::npos);
  }
}

}  // namespace
}  // namespace ftsynth
