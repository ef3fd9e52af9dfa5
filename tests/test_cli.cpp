// Tests for the ftsynth command-line driver.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "analysis/report.h"
#include "casestudy/setta.h"
#include "fta/synthesis.h"
#include "ftp/json_writer.h"
#include "ftp/xml_writer.h"
#include "mdl/parser.h"
#include "mdl/writer.h"
#include "tools/cli.h"

namespace ftsynth {
namespace {

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Unique per-test file names: ctest runs each test as its own process,
    // concurrently, and shared paths race (a reader can observe a sibling's
    // truncate-then-write mid-flight).
    const std::string tag =
        testing::UnitTest::GetInstance()->current_test_info()->name();
    model_path_ = testing::TempDir() + "/cli_model_" + tag + ".mdl";
    Model model = setta::build_bbw();
    write_mdl_file(model, model_path_);

    broken_path_ = testing::TempDir() + "/cli_broken_" + tag + ".mdl";
    std::ofstream broken(broken_path_);
    broken << R"(
Model { Name "broken" System {
  Block {
    BlockType Basic
    Name "stage"
    Port { Name "x"  Direction "input" }
    Port { Name "y"  Direction "output" }
  }
  Block { BlockType Outport Name "out" }
  Line { Src "stage.y"  Dst "out" }
} }
)";  // stage.x is left unconnected
  }

  int run(std::vector<std::string> args) {
    out_.str("");
    err_.str("");
    return cli::run(args, out_, err_);
  }

  std::string model_path_;
  std::string broken_path_;
  std::ostringstream out_;
  std::ostringstream err_;
};

TEST_F(CliTest, NoArgsPrintsUsage) {
  EXPECT_EQ(run({}), 2);
  EXPECT_NE(err_.str().find("usage:"), std::string::npos);
}

TEST_F(CliTest, UnknownCommandFails) {
  EXPECT_EQ(run({"explode", model_path_}), 2);
  EXPECT_NE(err_.str().find("unknown command"), std::string::npos);
}

TEST_F(CliTest, MissingModelFileFails) {
  EXPECT_EQ(run({"info", "/nonexistent/x.mdl"}), 2);
  EXPECT_NE(err_.str().find("cannot open"), std::string::npos);
}

TEST_F(CliTest, InfoSummarisesTheModel) {
  EXPECT_EQ(run({"info", model_path_}), 0);
  EXPECT_NE(out_.str().find("model: bbw"), std::string::npos);
  EXPECT_NE(out_.str().find("pedal_node [SubSystem]"), std::string::npos);
  EXPECT_NE(out_.str().find("boundary outputs:"), std::string::npos);
}

TEST_F(CliTest, ValidateCleanModelExitsZero) {
  EXPECT_EQ(run({"validate", model_path_}), 0);
  EXPECT_NE(out_.str().find("0 error(s)"), std::string::npos);
}

TEST_F(CliTest, ValidateBrokenModelExitsOneAndLists) {
  // The run completes (the issues ARE the output): completed-with-
  // diagnostics, exit 1.
  EXPECT_EQ(run({"validate", broken_path_}), 1);
  EXPECT_NE(out_.str().find("unconnected"), std::string::npos);
}

TEST_F(CliTest, ValidateBrokenModelStrictAlsoExitsOne) {
  EXPECT_EQ(run({"validate", broken_path_, "--strict"}), 1);
  EXPECT_NE(out_.str().find("unconnected"), std::string::npos);
}

TEST_F(CliTest, SynthesiseTextTree) {
  EXPECT_EQ(run({"synthesise", model_path_, "--top",
                 "Omission-brake_force_fl"}),
            0);
  EXPECT_NE(out_.str().find("Fault tree:"), std::string::npos);
  EXPECT_NE(out_.str().find("bbw/actuator_fl.jammed"), std::string::npos);
}

TEST_F(CliTest, SynthesiseFormats) {
  EXPECT_EQ(run({"synthesise", model_path_, "--top",
                 "Omission-brake_force_fl", "--format", "dot"}),
            0);
  EXPECT_EQ(out_.str().rfind("digraph", 0), 0u);
  EXPECT_EQ(run({"synthesise", model_path_, "--top",
                 "Omission-brake_force_fl", "--format", "xml"}),
            0);
  EXPECT_NE(out_.str().find("<fault-tree"), std::string::npos);
  EXPECT_EQ(run({"synthesise", model_path_, "--top",
                 "Omission-brake_force_fl", "--format", "ftp"}),
            0);
  EXPECT_NE(out_.str().find("[PROJECT]"), std::string::npos);
  EXPECT_EQ(run({"synthesise", model_path_, "--top",
                 "Omission-brake_force_fl", "--format", "nope"}),
            2);
}

TEST_F(CliTest, SynthesiseToOutputFile) {
  const std::string path = testing::TempDir() + "/cli_tree.txt";
  EXPECT_EQ(run({"synthesise", model_path_, "--top",
                 "Omission-brake_force_fl", "--output", path}),
            0);
  std::ifstream file(path);
  std::stringstream content;
  content << file.rdbuf();
  EXPECT_NE(content.str().find("Fault tree:"), std::string::npos);
  EXPECT_TRUE(out_.str().empty());
}

TEST_F(CliTest, AnalyseReportsCutSetsAndProbability) {
  EXPECT_EQ(run({"analyse", model_path_, "--top", "Omission-total_braking",
                 "--time", "1000"}),
            0);
  EXPECT_NE(out_.str().find("minimal cut sets:"), std::string::npos);
  EXPECT_NE(out_.str().find("P(top):"), std::string::npos);
  EXPECT_NE(out_.str().find("t = 1000"), std::string::npos);
}

TEST_F(CliTest, AnalyseRejectsBadTime) {
  EXPECT_EQ(run({"analyse", model_path_, "--time", "soon"}), 2);
}

TEST_F(CliTest, AuditFindsBbwGaps) {
  // The BBW model deliberately leaves some propagations unexamined
  // (e.g. Early deviations): the audit exits 1 and lists them.
  EXPECT_EQ(run({"audit", model_path_}), 1);
  EXPECT_NE(out_.str().find("finding(s)"), std::string::npos);
}

TEST_F(CliTest, FmeaRendersTable) {
  EXPECT_EQ(run({"fmea", model_path_, "--time", "1000"}), 0);
  EXPECT_NE(out_.str().find("Failure mode"), std::string::npos);
  EXPECT_NE(out_.str().find("bbw/pedal_node"), std::string::npos);
}

TEST_F(CliTest, SensitivityRendersGains) {
  EXPECT_EQ(run({"sensitivity", model_path_, "--top",
                 "Omission-total_braking", "--time", "1000"}),
            0);
  EXPECT_NE(out_.str().find("gain"), std::string::npos);
  EXPECT_NE(out_.str().find("bbw/"), std::string::npos);
}

TEST_F(CliTest, UnknownTopEventFails) {
  // kLookup failure: nothing was synthesised, exit 4; the collected
  // diagnostic (with the lookup message) is rendered on stderr.
  EXPECT_EQ(run({"synthesise", model_path_, "--top", "Omission-nope"}), 4);
  EXPECT_NE(err_.str().find("no boundary output port"), std::string::npos);
}

TEST_F(CliTest, UnknownTopEventFailsStrict) {
  EXPECT_EQ(run({"synthesise", model_path_, "--top", "Omission-nope",
                 "--strict"}),
            4);
  EXPECT_NE(err_.str().find("no boundary output port"), std::string::npos);
}

TEST_F(CliTest, AnalyseFormatFollowsTheOpenPsaContract) {
  // .mdl and Open-PSA models share one analyse: text|xml|json, anything
  // else is a usage error.
  const std::string duplex = std::string(FTSYNTH_EXAMPLES_DIR) + "/duplex.mdl";
  EXPECT_EQ(run({"analyse", duplex, "--format", "bogus"}), 2);
  EXPECT_EQ(err_.str(),
            "error: unknown --format 'bogus' (analyse supports text|xml|json)\n");
  EXPECT_TRUE(out_.str().empty());

  Model model = parse_mdl_file(duplex);
  FaultTree tree = Synthesiser(model).synthesise("Omission-reading");
  TreeAnalysis analysis = analyse_tree(tree, AnalysisOptions{});
  EXPECT_EQ(run({"analyse", duplex, "--top", "Omission-reading", "--format",
                 "xml"}),
            0);
  EXPECT_EQ(out_.str(), write_xml({&tree}, {&analysis}, {}));
  EXPECT_EQ(run({"analyse", duplex, "--top", "Omission-reading", "--format",
                 "json"}),
            0);
  EXPECT_EQ(out_.str(), write_json({&tree}, {&analysis}, {}));
}

TEST_F(CliTest, ReportRecoversFromADegradedModelLikeAnalyse) {
  // The selector's cause names a port it does not have: synthesis leaves
  // that deviation undeveloped with a warning instead of failing.
  std::ifstream source(std::string(FTSYNTH_EXAMPLES_DIR) + "/duplex.mdl");
  std::stringstream text;
  text << source.rdbuf();
  std::string model = text.str();
  const std::string cause = "select_defect OR (Omission-a AND Omission-b)";
  ASSERT_NE(model.find(cause), std::string::npos);
  model.replace(model.find(cause), cause.size(),
                "select_defect OR (Omission-a AND Omission-zz)");
  const std::string path = testing::TempDir() + "/cli_degraded_duplex.mdl";
  std::ofstream(path) << model;

  EXPECT_EQ(run({"analyse", path}), 1);
  const std::string analyse_log = err_.str();
  EXPECT_NE(analyse_log.find("Omission-zz left undeveloped"),
            std::string::npos);
  EXPECT_EQ(run({"report", path}), 1);
  EXPECT_NE(out_.str().find("# Safety analysis report: `duplex`"),
            std::string::npos);
  EXPECT_NE(out_.str().find("## Top event: Omission-reading at duplex"),
            std::string::npos);
  EXPECT_EQ(err_.str(), analyse_log);
}

class CliRecoveryTest : public CliTest {
 protected:
  void SetUp() override {
    CliTest::SetUp();
    // Three seeded syntax errors (bad direction token, stray '%', missing
    // value) in a model that still has recoverable structure.
    const std::string tag =
        testing::UnitTest::GetInstance()->current_test_info()->name();
    mangled_path_ = testing::TempDir() + "/cli_mangled_" + tag + ".mdl";
    std::ofstream mangled(mangled_path_);
    mangled << R"(
Model { Name "mangled" System {
  Block {
    BlockType Basic
    Name "stage"
    Port { Name "x"  Direction }
    Port { Name "y"  Direction "output" }
    %
  }
  Block { BlockType Outport Name }
} }
)";
  }

  std::string mangled_path_;
};

TEST_F(CliRecoveryTest, RecoveredRunExitsOneAndRendersTable) {
  EXPECT_EQ(run({"info", mangled_path_}), 1);
  // The partial model still prints a summary...
  EXPECT_NE(out_.str().find("model:"), std::string::npos);
  // ...and stderr carries the diagnostics table with a count line.
  EXPECT_NE(err_.str().find("Severity"), std::string::npos);
  EXPECT_NE(err_.str().find("error(s)"), std::string::npos);
}

TEST_F(CliRecoveryTest, StrictFailsFastWithParseExitCode) {
  EXPECT_EQ(run({"info", mangled_path_, "--strict"}), 2);
  EXPECT_NE(err_.str().find("error:"), std::string::npos);
  // No recovery happened: the diagnostics table is absent.
  EXPECT_EQ(err_.str().find("Severity"), std::string::npos);
}

TEST_F(CliRecoveryTest, MaxErrorsCapsTheTable) {
  EXPECT_EQ(run({"info", mangled_path_, "--max-errors", "1"}), 1);
  EXPECT_NE(err_.str().find("dropped at the cap"), std::string::npos);
}

TEST_F(CliTest, EngineFlagProducesByteIdenticalAnalysis) {
  // Acceptance bar for the symbolic engine: identical bytes to the default
  // engine on the heavyweight case-study top, serial and parallel alike.
  std::string reference;
  for (const char* engine : {"micsup", "zbdd"}) {
    for (const char* jobs : {"1", "4"}) {
      ASSERT_EQ(run({"analyse", model_path_, "--top",
                     "Omission-total_braking", "--time", "1000", "--engine",
                     engine, "--jobs", jobs}),
                0)
          << engine << " jobs " << jobs;
      if (reference.empty()) {
        reference = out_.str();
        EXPECT_NE(reference.find("minimal cut sets:"), std::string::npos);
      } else {
        EXPECT_EQ(out_.str(), reference) << engine << " jobs " << jobs;
      }
    }
  }
}

TEST_F(CliTest, EngineFlagAppliesToFmeaAndReport) {
  for (const char* command : {"fmea", "report"}) {
    ASSERT_EQ(run({command, model_path_, "--top", "Omission-total_braking",
                   "--time", "1000", "--engine", "micsup", "--jobs", "1"}),
              0)
        << command;
    const std::string reference = out_.str();
    ASSERT_FALSE(reference.empty());
    ASSERT_EQ(run({command, model_path_, "--top", "Omission-total_braking",
                   "--time", "1000", "--engine", "zbdd", "--jobs", "1"}),
              0)
        << command;
    EXPECT_EQ(out_.str(), reference) << command;
  }
}

TEST_F(CliTest, UnknownEngineIsUsageError) {
  // The retired MOCUS engine's name is as unknown as any other.
  for (const std::string engine : {"magic", "mocus"}) {
    EXPECT_EQ(run({"analyse", model_path_, "--engine", engine}), 2) << engine;
    EXPECT_NE(err_.str().find("unknown --engine '" + engine +
                              "' (expected micsup, zbdd or bound)"),
              std::string::npos)
        << err_.str();
  }
}

TEST_F(CliTest, BoundEngineRendersCertifiedIntervalIdenticallyAcrossJobs) {
  // The anytime engine reports a certified interval instead of the
  // exact-BDD figure, and its bytes must not depend on the worker count.
  std::string reference;
  for (const char* jobs : {"1", "2", "8"}) {
    ASSERT_EQ(run({"analyse", model_path_, "--top", "Omission-brake_force_fl",
                   "--time", "1000", "--engine", "bound", "--jobs", jobs}),
              0)
        << "jobs " << jobs;
    if (reference.empty()) {
      reference = out_.str();
      EXPECT_NE(reference.find("minimal cut sets:"), std::string::npos);
      EXPECT_NE(reference.find("P(top): certified ["), std::string::npos);
    } else {
      EXPECT_EQ(out_.str(), reference) << "jobs " << jobs;
    }
  }
}

TEST_F(CliTest, BoundEpsilonFlagParses) {
  EXPECT_EQ(run({"analyse", model_path_, "--top", "Omission-brake_force_fl",
                 "--engine", "bound", "--bound-epsilon", "0.5"}),
            0);
  EXPECT_NE(out_.str().find("P(top): certified ["), std::string::npos);
}

TEST_F(CliTest, MalformedBoundEpsilonIsUsageError) {
  EXPECT_EQ(run({"analyse", model_path_, "--engine", "bound",
                 "--bound-epsilon", "tight"}),
            2);
}

TEST_F(CliTest, DeadlineFlagIsAcceptedOnCleanRuns) {
  // A generous deadline must not change a healthy run's outcome.
  EXPECT_EQ(run({"analyse", model_path_, "--top", "Omission-total_braking",
                 "--deadline-ms", "60000"}),
            0);
  EXPECT_NE(out_.str().find("minimal cut sets:"), std::string::npos);
}

TEST_F(CliTest, NegativeDeadlineIsUsageError) {
  EXPECT_EQ(run({"analyse", model_path_, "--deadline-ms", "-5"}), 2);
}

TEST_F(CliTest, UnknownOrderPolicyRejected) {
  // --order is retired: the zbdd engine keeps its DFS variable order, and
  // sifting printed the same bytes, slower. Every policy name, the former
  // default included, now meets an unknown option.
  for (const std::string policy : {"sift", "static", "bogus"}) {
    EXPECT_EQ(run({"analyse", model_path_, "--top", "Omission-brake_force_fl",
                   "--engine", "zbdd", "--order", policy}),
              2)
        << policy;
    EXPECT_NE(err_.str().find("unknown option '--order'"), std::string::npos)
        << err_.str();
  }
}

TEST_F(CliTest, RetiredProbModeFlagIsUsageError) {
  // The zbdd engine always evaluates its diagram when extraction
  // truncates; there is no mode left to choose.
  EXPECT_EQ(run({"analyse", model_path_, "--engine", "zbdd", "--prob-mode",
                 "cutsets"}),
            2);
  EXPECT_NE(err_.str().find("unknown option '--prob-mode'"),
            std::string::npos);
}

TEST_F(CliTest, RetiredCacheFlagsAreUsageErrors) {
  // The cone cache is gone: every run computes its cut sets afresh, so
  // there is nothing to persist, disable or save periodically.
  const std::string dir = testing::TempDir() + "/cli_retired_cache";
  EXPECT_EQ(run({"analyse", model_path_, "--cache", dir}), 2);
  EXPECT_NE(err_.str().find("unknown option '--cache'"), std::string::npos);
  EXPECT_EQ(run({"analyse", model_path_, "--no-cache"}), 2);
  EXPECT_NE(err_.str().find("unknown option '--no-cache'"),
            std::string::npos);
  EXPECT_EQ(run({"serve", "--socket", dir + ".sock", "--save-interval-ms",
                 "1000"}),
            2);
  EXPECT_NE(err_.str().find("unknown option '--save-interval-ms'"),
            std::string::npos);
}

TEST_F(CliTest, VerbosePrintsReorderStatsToStderrOnly) {
  // The name predates the retired --order, whose reordering stats this
  // test used to check; the bound engine's frontier counters are the
  // per-top --verbose statistics now.
  const std::string top = "Omission-brake_force_fl";
  ASSERT_EQ(run({"analyse", model_path_, "--top", top, "--engine", "bound"}),
            0);
  const std::string quiet = out_.str();
  EXPECT_EQ(err_.str().find("bound frontier ["), std::string::npos);

  ASSERT_EQ(run({"analyse", model_path_, "--top", top, "--engine", "bound",
                 "--verbose"}),
            0);
  EXPECT_NE(err_.str().find("bound frontier [" + top + "]: rounds "),
            std::string::npos)
      << err_.str();
  EXPECT_EQ(out_.str(), quiet);
}

}  // namespace
}  // namespace ftsynth
