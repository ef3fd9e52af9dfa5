// Tests for the Markdown safety report generator.

#include <gtest/gtest.h>

#include "analysis/markdown_report.h"
#include "casestudy/fuel.h"
#include "casestudy/setta.h"
#include "fta/synthesis.h"

namespace ftsynth {
namespace {

/// Synthesises and analyses `top_events` ("Class-port" notation), then
/// renders the report over them, as the `report` command does.
std::string report_for(const Model& model,
                       const std::vector<std::string>& top_events,
                       const MarkdownReportOptions& options = {}) {
  Synthesiser synthesiser(model);
  std::vector<FaultTree> trees;
  for (const std::string& top : top_events)
    trees.push_back(synthesiser.synthesise(top));
  std::vector<TreeAnalysis> analyses;
  for (const FaultTree& tree : trees)
    analyses.push_back(analyse_tree(tree, options.analysis));
  std::vector<const FaultTree*> tree_ptrs;
  std::vector<const TreeAnalysis*> analysis_ptrs;
  for (std::size_t i = 0; i < trees.size(); ++i) {
    tree_ptrs.push_back(&trees[i]);
    analysis_ptrs.push_back(&analyses[i]);
  }
  return markdown_report(model, tree_ptrs, analysis_ptrs, options);
}

TEST(MarkdownReport, ContainsEverySection) {
  Model model = fuel::build_fuel_system();
  MarkdownReportOptions options;
  options.analysis.probability.mission_time_hours = 10.0;
  const std::string report =
      report_for(model, fuel::fuel_top_events(), options);

  EXPECT_NE(report.find("# Safety analysis report: `fuel`"),
            std::string::npos);
  EXPECT_NE(report.find("## Model inventory"), std::string::npos);
  EXPECT_NE(report.find("## Component hazard analyses"), std::string::npos);
  EXPECT_NE(report.find("## Top event: Omission-engine_feed at fuel"),
            std::string::npos);
  EXPECT_NE(report.find("## Dependencies between top events"),
            std::string::npos);
  EXPECT_NE(report.find("## System-level FMEA"), std::string::npos);
  EXPECT_NE(report.find("## HAZOP completeness findings"),
            std::string::npos);
  // Markdown tables present.
  EXPECT_NE(report.find("|---|"), std::string::npos);
  // Key findings make it into the document.
  EXPECT_NE(report.find("`fuel/power_bus.bus_fault`"), std::string::npos);
}

TEST(MarkdownReport, SectionsCanBeDisabled) {
  Model model = fuel::build_fuel_system();
  MarkdownReportOptions options;
  options.include_annotations = false;
  options.include_fmea = false;
  options.include_audit = false;
  const std::string report =
      report_for(model, {"Omission-engine_feed"}, options);
  EXPECT_EQ(report.find("## Component hazard analyses"), std::string::npos);
  EXPECT_EQ(report.find("## System-level FMEA"), std::string::npos);
  EXPECT_EQ(report.find("## HAZOP completeness"), std::string::npos);
  EXPECT_NE(report.find("## Top event:"), std::string::npos);
}

TEST(MarkdownReport, CutSetListIsCapped) {
  Model model = setta::build_bbw();
  MarkdownReportOptions options;
  options.include_annotations = false;
  options.include_fmea = false;
  options.include_audit = false;
  options.max_cut_sets = 5;
  const std::string report =
      report_for(model, {"Omission-total_braking"}, options);
  EXPECT_NE(report.find("_... and "), std::string::npos);
}

TEST(MarkdownReport, PipesInNamesAreEscaped) {
  // The escape path: block descriptions may contain '|'.
  Model model = fuel::build_fuel_system();
  const std::string report = report_for(model, {"Value-engine_feed"});
  // No raw pipe breaks table structure (every data line starts with '|').
  EXPECT_NE(report.find("| Omission-fuel"), std::string::npos);
}

}  // namespace
}  // namespace ftsynth
