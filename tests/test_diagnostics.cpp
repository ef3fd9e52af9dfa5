// Tests for the resilience layer: the DiagnosticSink, multi-error parser
// recovery, degraded-mode synthesis, and the resource budget.

#include <gtest/gtest.h>

#include <chrono>

#include "analysis/cutsets.h"
#include "analysis/probability.h"
#include "casestudy/synthetic.h"
#include "core/budget.h"
#include "core/diagnostics.h"
#include "core/error.h"
#include "failure/expr_parser.h"
#include "fta/synthesis.h"
#include "mdl/parser.h"
#include "model/builder.h"

namespace ftsynth {
namespace {

// -- DiagnosticSink -------------------------------------------------------------

TEST(DiagnosticSink, CountsErrorsAndWarnings) {
  DiagnosticSink sink;
  EXPECT_TRUE(sink.empty());
  EXPECT_FALSE(sink.has_errors());
  sink.warning(ErrorKind::kAnalysis, "w1");
  sink.error(ErrorKind::kParse, "e1", {3, 7}, "m/b");
  EXPECT_EQ(sink.error_count(), 1u);
  EXPECT_EQ(sink.warning_count(), 1u);
  EXPECT_TRUE(sink.has_errors());
  EXPECT_EQ(sink.first_error_kind(), ErrorKind::kParse);
  ASSERT_NE(sink.first_error(), nullptr);
  EXPECT_EQ(sink.first_error()->location.line, 3);
  EXPECT_EQ(sink.first_error()->location.column, 7);
  EXPECT_EQ(sink.first_error()->block_path, "m/b");
}

TEST(DiagnosticSink, CapsErrorsButKeepsWarnings) {
  DiagnosticSink sink(/*max_errors=*/2);
  for (int i = 0; i < 5; ++i)
    sink.error(ErrorKind::kParse, "e" + std::to_string(i));
  sink.warning(ErrorKind::kModel, "still kept");
  EXPECT_TRUE(sink.saturated());
  EXPECT_EQ(sink.error_count(), 5u);   // all counted...
  EXPECT_EQ(sink.dropped(), 3u);       // ...but only 2 stored
  EXPECT_EQ(sink.diagnostics().size(), 3u);  // 2 errors + 1 warning
  EXPECT_EQ(sink.warning_count(), 1u);
}

TEST(DiagnosticSink, RendersTableWithSummary) {
  DiagnosticSink sink(1);
  EXPECT_EQ(sink.render_table(), "");
  sink.error(ErrorKind::kModel, "broken thing", {12, 5}, "m/stage");
  sink.error(ErrorKind::kModel, "dropped thing");
  std::string table = sink.render_table();
  EXPECT_NE(table.find("12:5"), std::string::npos);
  EXPECT_NE(table.find("m/stage"), std::string::npos);
  EXPECT_NE(table.find("broken thing"), std::string::npos);
  EXPECT_NE(table.find("2 error(s)"), std::string::npos);
  EXPECT_NE(table.find("dropped at the cap"), std::string::npos);
}

TEST(Diagnostic, ToStringCombinesAllParts) {
  Diagnostic d{Severity::kError, ErrorKind::kParse, {12, 5}, "bbw/node",
               "unknown BlockType 'Blok'"};
  EXPECT_EQ(d.to_string(),
            "error[parse] 12:5 at bbw/node: unknown BlockType 'Blok'");
}

// -- Parser recovery ------------------------------------------------------------

// Five distinct seeded syntax errors; every block around them is fine.
constexpr const char* kFiveErrorModel = R"(
Model {
  Name "mangled"
  System {
    Block { BlockType Inport  Name "in" }
    Block {
      BlockType Basic
      Name "stage"
      Port { Name "x"  Direction }
      Port { Name "y"  Direction "output" }
      Malfunction { Name "dead"  Rate 1e-6 }
      FailureRow { Output "Omission-y"  Cause "dead OR (Omission-x" }
    }
    Block { BlockType Basik  Name "typo" }
    Block { BlockType Outport  Name }
    %
    Block { BlockType Outport  Name "out" }
    Line { Src "stage.y"  Dst "out" }
  }
}
)";

TEST(MdlRecovery, OneRunReportsEverySeededError) {
  DiagnosticSink sink;
  Model model = parse_mdl(kFiveErrorModel, sink);
  // All five seeded problems surface in a single run (plus any follow-on
  // validation issues on the partial model).
  EXPECT_GE(sink.error_count(), 5u);
  // Parse-stage diagnostics carry a source location.
  std::size_t located = 0;
  for (const Diagnostic& d : sink.diagnostics()) {
    if (d.severity == Severity::kError && d.location.known()) ++located;
  }
  EXPECT_GE(located, 5u);
  // The partial model still holds the healthy entities.
  EXPECT_EQ(model.name(), "mangled");
  EXPECT_NE(model.find_block("stage"), nullptr);
  EXPECT_NE(model.find_block("out"), nullptr);
}

TEST(MdlRecovery, CleanInputProducesNoDiagnostics) {
  DiagnosticSink sink;
  Model model = parse_mdl(R"(
Model { Name "ok" System {
  Block { BlockType Inport  Name "in" }
  Block { BlockType Outport  Name "out" }
  Line { Src "in"  Dst "out" }
} }
)",
                          sink);
  EXPECT_TRUE(sink.empty());
  EXPECT_EQ(model.name(), "ok");
}

TEST(MdlRecovery, StrictParseStillThrowsOnFirstError) {
  EXPECT_THROW(parse_mdl(kFiveErrorModel), ParseError);
}

// -- Expression diagnostics (locations + block path) ---------------------------

TEST(ExprDiagnostics, ParseErrorCarriesLineColumnAndBlockPath) {
  FailureClassRegistry registry;
  const ExprSource source{42, "m/pedal_node"};
  try {
    parse_expression("a OR OR b", registry, source);
    FAIL() << "expected ParseError";
  } catch (const ParseError& error) {
    EXPECT_EQ(error.line(), 42);
    EXPECT_GT(error.column(), 0);
    EXPECT_NE(std::string(error.what()).find("m/pedal_node"),
              std::string::npos);
  }
}

// -- Degraded-mode synthesis ----------------------------------------------------

/// One stage whose cause references an input port that does not exist.
Model model_with_bad_propagation() {
  ModelBuilder b("m");
  b.inport(b.root(), "in");
  Block& stage = b.basic(b.root(), "stage");
  b.in(stage, "x");
  b.out(stage, "y");
  b.malfunction(stage, "dead", 1e-6);
  b.annotate(stage, "Omission-y", "dead OR Omission-nosuch");
  b.outport(b.root(), "out");
  b.connect(b.root(), "in", "stage.x");
  b.connect(b.root(), "stage.y", "out");
  return b.take_unchecked();  // validation would flag the bad reference
}

TEST(DegradedSynthesis, BadPropagationBecomesMarkedUndeveloped) {
  Model model = model_with_bad_propagation();
  DiagnosticSink sink;
  SynthesisOptions options;
  options.sink = &sink;
  Synthesiser synthesiser(model, options);
  FaultTree tree = synthesiser.synthesise("Omission-out");

  // The tree completes: the good cause survives, the bad one is a marked
  // undeveloped leaf, and a warning diagnostic names the block.
  ASSERT_NE(tree.top(), nullptr);
  EXPECT_NE(tree.find_event(Symbol("m/stage.dead")), nullptr);
  bool has_marker = false;
  tree.for_each_reachable([&](const FtNode& node) {
    if (node.kind() == NodeKind::kUndeveloped &&
        node.name().view().rfind("und:", 0) == 0)
      has_marker = true;
  });
  EXPECT_TRUE(has_marker);
  EXPECT_EQ(synthesiser.stats().degraded, 1u);
  ASSERT_FALSE(sink.empty());
  EXPECT_EQ(sink.warning_count(), 1u);
  EXPECT_NE(sink.diagnostics().front().message.find("nosuch"),
            std::string::npos);
  EXPECT_EQ(sink.diagnostics().front().block_path, "m/stage");

  // And the degraded tree stays analyzable.
  CutSetAnalysis analysis = minimal_cut_sets(tree);
  EXPECT_GE(analysis.cut_sets.size(), 2u);
}

TEST(DegradedSynthesis, WithoutSinkTheSameModelThrows) {
  Model model = model_with_bad_propagation();
  Synthesiser synthesiser(model);
  EXPECT_THROW(synthesiser.synthesise("Omission-out"), Error);
}

// -- Resource budget ------------------------------------------------------------

TEST(BudgetUnit, PollLatchesAfterExpiry) {
  Budget budget;
  EXPECT_FALSE(budget.has_deadline());
  EXPECT_FALSE(budget.expired());
  for (int i = 0; i < 1000; ++i) EXPECT_FALSE(budget.poll());

  budget.set_deadline(Budget::Clock::now() - std::chrono::milliseconds(1));
  EXPECT_TRUE(budget.expired());
  EXPECT_TRUE(budget.poll());  // latched: immediate from now on
}

TEST(BudgetUnit, ReportMergesAndRenders) {
  BudgetReport report;
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.to_string(), "complete");
  BudgetReport other;
  other.deadline_exceeded = true;
  other.depth_limited = true;
  report.merge(other);
  EXPECT_FALSE(report.clean());
  EXPECT_NE(report.to_string().find("deadline exceeded"), std::string::npos);
  EXPECT_NE(report.to_string().find("depth limited"), std::string::npos);
}

TEST(BudgetSynthesis, DepthLimitCutsTraversalWithMarkedLeaves) {
  Model model = synthetic::build_chain(50);
  DiagnosticSink sink;
  SynthesisOptions options;
  options.sink = &sink;
  options.budget.max_depth = 10;
  Synthesiser synthesiser(model, options);
  FaultTree tree = synthesiser.synthesise("Omission-sink");

  ASSERT_NE(tree.top(), nullptr);
  EXPECT_TRUE(synthesiser.stats().budget.depth_limited);
  bool has_budget_marker = false;
  tree.for_each_reachable([&](const FtNode& node) {
    if (node.name().view().rfind("und:budget:", 0) == 0)
      has_budget_marker = true;
  });
  EXPECT_TRUE(has_budget_marker);
  EXPECT_FALSE(sink.empty());  // the violation was reported
  // The truncated tree still analyses.
  EXPECT_GE(minimal_cut_sets(tree).cut_sets.size(), 1u);
}

TEST(BudgetSynthesis, NodeCeilingTruncates) {
  Model model = synthetic::build_chain(50);
  const std::size_t full_size =
      Synthesiser(model).synthesise("Omission-sink").nodes().size();

  SynthesisOptions options;
  options.budget.max_nodes = 20;
  Synthesiser synthesiser(model, options);
  FaultTree tree = synthesiser.synthesise("Omission-sink");
  ASSERT_NE(tree.top(), nullptr);
  EXPECT_TRUE(synthesiser.stats().budget.truncated);
  // The ceiling is probed at each resolution entry, so it is approximate --
  // but the cut must leave the tree far below the unbudgeted size.
  EXPECT_GT(tree.nodes().size(), 0u);
  EXPECT_LT(tree.nodes().size(), full_size / 2);
}

/// AND over `gates` ORs of `events` distinct basic events each: the cut-set
/// cross product has events^gates terms -- hours of work without a budget.
FaultTree adversarial_tree(int gates, int events) {
  FaultTree tree("adversarial");
  std::vector<FtNode*> ors;
  for (int g = 0; g < gates; ++g) {
    std::vector<FtNode*> leaves;
    for (int e = 0; e < events; ++e) {
      const std::string name =
          "b" + std::to_string(g) + "_" + std::to_string(e);
      leaves.push_back(tree.add_basic(Symbol(name), 1e-6, name, "adv"));
    }
    ors.push_back(tree.add_gate(GateKind::kOr, "lane", std::move(leaves)));
  }
  tree.set_top(tree.add_gate(GateKind::kAnd, "top", std::move(ors)));
  tree.set_top_description("adversarial");
  return tree;
}

TEST(BudgetCutSets, DeadlineReturnsPartialResultInTime) {
  FaultTree tree = adversarial_tree(/*gates=*/12, /*events=*/20);
  CutSetOptions options;
  options.max_sets = 1u << 14;  // keeps the post-expiry unwind cheap
  options.budget.set_deadline_ms(250);

  const auto start = std::chrono::steady_clock::now();
  CutSetAnalysis analysis = minimal_cut_sets(tree, options);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - start)
                           .count();

  EXPECT_TRUE(analysis.deadline_exceeded);
  EXPECT_TRUE(analysis.truncated);
  // The acceptance bar: return within 2x the deadline, not after the full
  // (hours-long) expansion.
  EXPECT_LE(elapsed, 500);
  EXPECT_NE(analysis.to_string().find("deadline exceeded"),
            std::string::npos);
}

TEST(BudgetCutSets, NoDeadlineMeansExactResults) {
  FaultTree tree = adversarial_tree(/*gates=*/2, /*events=*/3);
  CutSetAnalysis analysis = minimal_cut_sets(tree);
  EXPECT_FALSE(analysis.deadline_exceeded);
  EXPECT_FALSE(analysis.truncated);
  EXPECT_EQ(analysis.cut_sets.size(), 9u);  // 3 x 3 pairs
}

TEST(BudgetProbability, InclusionExclusionStopsAtTheDeadline) {
  FaultTree tree = adversarial_tree(/*gates=*/2, /*events=*/24);
  CutSetOptions cut_options;
  CutSetAnalysis analysis = minimal_cut_sets(tree, cut_options);
  ASSERT_EQ(analysis.cut_sets.size(), 576u);  // 24 x 24

  ProbabilityOptions options;
  options.budget.set_deadline_ms(100);
  BudgetReport report;
  const auto start = std::chrono::steady_clock::now();
  const double p =
      inclusion_exclusion(analysis, options, /*max_terms=*/576, &report);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - start)
                           .count();

  EXPECT_TRUE(report.deadline_exceeded);
  EXPECT_TRUE(report.truncated);
  EXPECT_LE(elapsed, 2000);  // full expansion is astronomically larger
  EXPECT_GE(p, 0.0);

  // Without a deadline the truncated expansion completes and reports only
  // the max_terms truncation.
  BudgetReport full_report;
  ProbabilityOptions no_deadline;
  const double bounded =
      inclusion_exclusion(analysis, no_deadline, 2, &full_report);
  EXPECT_FALSE(full_report.deadline_exceeded);
  EXPECT_TRUE(full_report.truncated);
  EXPECT_GE(bounded, 0.0);
}

}  // namespace
}  // namespace ftsynth
