// End-to-end smoke tests: the full Figure 4 pipeline on the SETTA model --
// build, validate, serialise to the text format, reparse, synthesise,
// analyse, export.

#include <gtest/gtest.h>

#include "analysis/report.h"
#include "casestudy/setta.h"
#include "fta/synthesis.h"
#include "ftp/ftp_writer.h"
#include "ftp/json_writer.h"
#include "ftp/xml_writer.h"
#include "mdl/parser.h"
#include "mdl/writer.h"
#include "model/validate.h"

namespace ftsynth {
namespace {

TEST(Pipeline, BbwBuildsAndValidates) {
  Model model = setta::build_bbw();
  EXPECT_GT(model.block_count(), 60u);
  for (const Issue& issue : validate(model)) {
    EXPECT_NE(issue.severity, Severity::kError) << issue.to_string();
  }
}

TEST(Pipeline, BbwRoundTripsThroughTextFormat) {
  Model model = setta::build_bbw();
  const std::string text = write_mdl(model);
  Model reparsed = parse_mdl(text);
  EXPECT_EQ(model.block_count(), reparsed.block_count());
  EXPECT_EQ(write_mdl(reparsed), text);
}

TEST(Pipeline, BbwSynthesisesAndAnalysesEveryTopEvent) {
  Model model = setta::build_bbw();
  Synthesiser synthesiser(model);
  for (const std::string& top : setta::bbw_top_events()) {
    FaultTree tree = synthesiser.synthesise(top);
    ASSERT_NE(tree.top(), nullptr) << top;
    TreeAnalysis analysis = analyse_tree(tree);
    EXPECT_FALSE(analysis.cut_sets.cut_sets.empty()) << top;
    EXPECT_GT(analysis.p_exact, 0.0) << top;
    // Exports must succeed and be non-trivial.
    EXPECT_GT(write_ftp_project("smoke", tree).size(), 100u) << top;
    EXPECT_GT(write_xml(tree).size(), 100u) << top;
    EXPECT_GT(write_json(tree, analysis).size(), 100u) << top;
  }
}

TEST(Pipeline, ReparsedModelSynthesisesIdenticalTrees) {
  Model model = setta::build_bbw();
  Model reparsed = parse_mdl(write_mdl(model));
  Synthesiser a(model);
  Synthesiser b(reparsed);
  for (const std::string& top : setta::bbw_top_events()) {
    FaultTree ta = a.synthesise(top);
    FaultTree tb = b.synthesise(top);
    TreeAnalysis aa = analyse_tree(ta);
    TreeAnalysis ab = analyse_tree(tb);
    EXPECT_EQ(aa.cut_sets.to_string(), ab.cut_sets.to_string()) << top;
    EXPECT_DOUBLE_EQ(aa.p_exact, ab.p_exact) << top;
  }
}

}  // namespace
}  // namespace ftsynth
