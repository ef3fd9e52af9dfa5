// Open-PSA MEF importer, event-tree sequence analysis and the oracle
// corpus. The corpus models in tests/openpsa/ each carry hand-computed
// minimal cut sets and probabilities in a comment; the tests assert them
// on every engine and prove the rendered output is byte-identical across
// engines and job counts. Suite names carry "Openpsa" / "EventTree" so
// CI's sanitizer passes pick them up (see .github/workflows/ci.yml).

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/batch.h"
#include "analysis/event_tree.h"
#include "analysis/report.h"
#include "core/diagnostics.h"
#include "core/error.h"
#include "core/thread_pool.h"
#include "ftp/openpsa_writer.h"
#include "openpsa/mef_reader.h"
#include "openpsa/xml_reader.h"
#include "service/json.h"
#include "service/protocol.h"
#include "service/runner.h"
#include "tools/cli.h"

namespace ftsynth {
namespace {

using openpsa::MefModel;
using openpsa::MefTop;
using service::ServiceRequest;
using service::ServiceResult;
using service::ServiceRunner;

std::string corpus(const std::string& name) {
  return std::string(FTSYNTH_OPENPSA_CORPUS_DIR) + "/" + name;
}

struct CliRun {
  int code = 0;
  std::string out;
  std::string err;
};

CliRun run_cli(const std::vector<std::string>& args) {
  CliRun run;
  std::ostringstream out;
  std::ostringstream err;
  run.code = cli::run(args, out, err);
  run.out = out.str();
  run.err = err.str();
  return run;
}

ServiceRequest analyse_request(const std::string& path, CutSetEngine engine,
                               int jobs) {
  ServiceRequest request;
  request.command = "analyse";
  request.model_path = path;
  request.engine = engine;
  request.jobs = jobs;
  // Exhaustive bound runs so the bound engine emits the full family and a
  // width-0 interval -- comparable against the exact engines.
  request.bound_epsilon = -1.0;
  return request;
}

/// Analyses one imported top with the given engine (library level).
TreeAnalysis analyse_top(const FaultTree& tree, CutSetEngine engine) {
  AnalysisOptions options;
  options.cut_sets.engine = engine;
  options.cut_sets.bound_epsilon = -1.0;
  return analyse_tree(tree, options);
}

const MefTop* find_top(const MefModel& mef, const std::string& name) {
  for (const MefTop& top : mef.tops) {
    if (top.name == name) return &top;
  }
  return nullptr;
}

constexpr CutSetEngine kAllEngines[] = {
    CutSetEngine::kMicsup, CutSetEngine::kZbdd, CutSetEngine::kBound};

/// The analysable corpus models (the negative ones are tested separately).
constexpr const char* kPositiveModels[] = {
    "and_or.xml", "vote23.xml", "xor.xml",         "nand.xml",
    "nor.xml",    "shared.xml", "house.xml",       "exponential.xml",
    "event_tree.xml"};

// ---------------------------------------------------------------------------
// OpenpsaXmlReader: the dependency-free XML layer

TEST(OpenpsaXmlReader, ParsesElementsAttributesTextAndEntities) {
  const auto root = openpsa::parse_xml(
      "<?xml version=\"1.0\"?>\n"
      "<!-- comment -->\n"
      "<root a=\"1\" b=\"&lt;&amp;&gt;&quot;&apos;\">\n"
      "  <child>text &#65;&#x42;</child>\n"
      "  <empty/>\n"
      "</root>\n");
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->name, "root");
  EXPECT_EQ(root->attribute("a"), "1");
  EXPECT_EQ(root->attribute("b"), "<&>\"'");
  EXPECT_TRUE(root->has_attribute("a"));
  EXPECT_FALSE(root->has_attribute("c"));
  ASSERT_EQ(root->children.size(), 2u);
  EXPECT_EQ(root->children[0]->name, "child");
  EXPECT_EQ(root->children[0]->text, "text AB");
  EXPECT_EQ(root->children[1]->name, "empty");
  EXPECT_EQ(root->child("empty"), root->children[1].get());
  EXPECT_EQ(root->child("missing"), nullptr);
}

TEST(OpenpsaXmlReader, RejectsMalformedDocuments) {
  EXPECT_THROW(openpsa::parse_xml(""), ParseError);
  EXPECT_THROW(openpsa::parse_xml("<a><b></a>"), ParseError);
  EXPECT_THROW(openpsa::parse_xml("<a>"), ParseError);
  EXPECT_THROW(openpsa::parse_xml("</a>"), ParseError);
  EXPECT_THROW(openpsa::parse_xml("<a/><b/>"), ParseError);
  EXPECT_THROW(openpsa::parse_xml("<a x=\"1\" x=\"2\"/>"), ParseError);
  EXPECT_THROW(openpsa::parse_xml("<a>&unknown;</a>"), ParseError);
  EXPECT_THROW(openpsa::parse_xml("<a><!-- unterminated </a>"), ParseError);
}

TEST(OpenpsaXmlReader, ErrorsCarrySourceLocations) {
  try {
    openpsa::parse_xml("<a>\n  <b>\n</a>\n");
    FAIL() << "expected ParseError";
  } catch (const ParseError& error) {
    EXPECT_EQ(error.kind(), ErrorKind::kParse);
    EXPECT_EQ(error.line(), 3);
  }
}

// ---------------------------------------------------------------------------
// OpenpsaImport: MEF semantics at the library level

TEST(OpenpsaImport, CountersAndTopNames) {
  const MefModel mef = openpsa::read_openpsa_file(corpus("event_tree.xml"));
  EXPECT_EQ(mef.name, "plant");
  EXPECT_EQ(mef.fault_tree_count, 1u);
  EXPECT_EQ(mef.event_tree_count, 1u);
  EXPECT_EQ(mef.gate_count, 1u);
  EXPECT_EQ(mef.basic_event_count, 3u);
  EXPECT_EQ(mef.house_event_count, 0u);
  EXPECT_EQ(mef.sequence_count, 2u);
  // Fault-tree roots first (definition order), then sequences (walk
  // order: the failure path forks before the success path).
  ASSERT_EQ(mef.tops.size(), 3u);
  EXPECT_EQ(mef.tops[0].name, "COOLING");
  EXPECT_EQ(mef.tops[0].kind, MefTop::Kind::kFaultTree);
  EXPECT_EQ(mef.tops[1].name, "LOSP/CORE-DAMAGE");
  EXPECT_EQ(mef.tops[1].kind, MefTop::Kind::kSequence);
  EXPECT_EQ(mef.tops[2].name, "LOSP/SAFE");
  EXPECT_EQ(mef.tops[2].kind, MefTop::Kind::kSequence);
}

TEST(OpenpsaImport, LabelsBecomeDescriptions) {
  const MefModel mef = openpsa::read_openpsa_file(corpus("and_or.xml"));
  ASSERT_EQ(mef.tops.size(), 1u);
  const FaultTree& tree = mef.tops[0].tree;
  EXPECT_EQ(tree.top_description(), "loss of output");
  const FtNode* a = tree.find_event(Symbol("a"));
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->description(), "pump A fails");
  EXPECT_DOUBLE_EQ(a->fixed_probability(), 0.1);
}

TEST(OpenpsaImport, HouseEventsFoldAsConstants) {
  const MefModel mef = openpsa::read_openpsa_file(corpus("house.xml"));
  ASSERT_EQ(mef.tops.size(), 1u);
  const FaultTree& tree = mef.tops[0].tree;
  // OR(AND(a, true), AND(b, false)) folds all the way down to the leaf.
  ASSERT_NE(tree.top(), nullptr);
  EXPECT_TRUE(tree.top()->is_leaf());
  EXPECT_EQ(tree.top()->name().view(), "a");
}

TEST(OpenpsaImport, ExponentialEventsCarryRates) {
  const MefModel mef = openpsa::read_openpsa_file(corpus("exponential.xml"));
  ASSERT_EQ(mef.tops.size(), 1u);
  const FtNode* slow = mef.tops[0].tree.find_event(Symbol("slow"));
  ASSERT_NE(slow, nullptr);
  EXPECT_DOUBLE_EQ(slow->rate(), 1e-3);
  EXPECT_FALSE(slow->has_fixed_probability());
}

TEST(OpenpsaImport, StrictModeThrowsOnSemanticErrors) {
  EXPECT_THROW(openpsa::read_openpsa_file(corpus("undefined_ref.xml")), Error);
  EXPECT_THROW(openpsa::read_openpsa_file(corpus("bad_probability.xml")),
               Error);
  EXPECT_THROW(openpsa::read_openpsa_file(corpus("cyclic.xml")), Error);
}

TEST(OpenpsaImport, RecoveringModeRepairsAndReports) {
  {
    DiagnosticSink sink;
    const MefModel mef =
        openpsa::read_openpsa_file(corpus("undefined_ref.xml"), sink);
    EXPECT_TRUE(sink.has_errors());
    ASSERT_EQ(mef.tops.size(), 1u);
    // The undefined gate became an undeveloped placeholder leaf; the
    // healthy operand is still analysable.
    const TreeAnalysis analysis =
        analyse_top(mef.tops[0].tree, CutSetEngine::kMicsup);
    EXPECT_EQ(analysis.cut_sets.to_string(), "{a}\n{und:MISSING}\n");
  }
  {
    DiagnosticSink sink;
    const MefModel mef =
        openpsa::read_openpsa_file(corpus("bad_probability.xml"), sink);
    EXPECT_TRUE(sink.has_errors());
    ASSERT_EQ(mef.tops.size(), 1u);
    const FtNode* a = mef.tops[0].tree.find_event(Symbol("a"));
    ASSERT_NE(a, nullptr);
    EXPECT_DOUBLE_EQ(a->fixed_probability(), 1.0);  // clamped from 1.5
  }
  {
    DiagnosticSink sink;
    const MefModel mef = openpsa::read_openpsa_file(corpus("cyclic.xml"), sink);
    EXPECT_TRUE(sink.has_errors());
    ASSERT_EQ(mef.tops.size(), 1u);  // cycle cut, tree still importable
  }
}

TEST(OpenpsaImport, MalformedXmlThrowsEvenWithSink) {
  DiagnosticSink sink;
  EXPECT_THROW(openpsa::read_openpsa_file(corpus("unclosed.xml"), sink),
               ParseError);
  EXPECT_THROW(openpsa::read_openpsa_file("/nonexistent/model.xml", sink),
               Error);
}

TEST(OpenpsaImport, SniffsByExtensionAndContent) {
  EXPECT_TRUE(openpsa::looks_like_openpsa("model.xml", ""));
  EXPECT_TRUE(openpsa::looks_like_openpsa("MODEL.XML", ""));
  EXPECT_TRUE(openpsa::looks_like_openpsa("model.txt", "  <opsa-mef/>"));
  EXPECT_FALSE(openpsa::looks_like_openpsa("model.mdl", "model bbw {}"));
  EXPECT_FALSE(openpsa::looks_like_openpsa("model", ""));
}

// ---------------------------------------------------------------------------
// OpenpsaCorpus: hand-computed oracles on every engine

struct Oracle {
  const char* file;
  const char* top;       ///< MefTop name to check
  const char* cut_sets;  ///< CutSetAnalysis::to_string() of the family
  double probability;    ///< hand-computed exact P(top)
  double tolerance;      ///< EXPECT_NEAR half-width
};

const Oracle kOracles[] = {
    {"and_or.xml", "FT", "{c}\n{a, b}\n", 0.069, 1e-15},
    {"vote23.xml", "VOTE", "{a, b}\n{a, c}\n{b, c}\n", 0.028, 1e-15},
    {"xor.xml", "XOR", "{a, NOT b}\n{NOT a, b}\n", 0.38, 1e-15},
    {"nand.xml", "NAND", "{NOT a}\n{NOT b}\n", 0.8, 1e-15},
    {"nor.xml", "NOR", "{NOT a, NOT b}\n", 0.72, 1e-15},
    {"shared.xml", "SHARED", "{a}\n{b, c}\n", 0.010594, 1e-15},
    {"house.xml", "HOUSE", "{a}\n", 0.25, 1e-15},
    {"exponential.xml", "EXP", "{fast}\n{slow}\n", 1.0 - std::exp(-3e-3),
     1e-12},
    {"event_tree.xml", "COOLING", "{p1}\n{p2}\n", 0.145, 1e-15},
    {"event_tree.xml", "LOSP/CORE-DAMAGE", "{INIT, p1}\n{INIT, p2}\n", 0.0725,
     1e-15},
    {"event_tree.xml", "LOSP/SAFE", "{INIT, NOT p1, NOT p2}\n", 0.4275,
     1e-15},
};

TEST(OpenpsaCorpus, EveryModelMatchesItsOracleOnEveryEngine) {
  for (const Oracle& oracle : kOracles) {
    const MefModel mef = openpsa::read_openpsa_file(corpus(oracle.file));
    const MefTop* top = find_top(mef, oracle.top);
    ASSERT_NE(top, nullptr) << oracle.file << " " << oracle.top;
    for (CutSetEngine engine : kAllEngines) {
      SCOPED_TRACE(std::string(oracle.file) + " top " + oracle.top +
                   " engine " + std::to_string(static_cast<int>(engine)));
      const TreeAnalysis analysis = analyse_top(top->tree, engine);
      EXPECT_EQ(analysis.cut_sets.to_string(), oracle.cut_sets);
      if (engine == CutSetEngine::kBound) {
        // Exhaustive run: the certified interval collapses onto the exact
        // probability (width 0), even on the non-coherent models.
        ASSERT_TRUE(analysis.p_lower.has_value());
        ASSERT_TRUE(analysis.p_upper.has_value());
        EXPECT_NEAR(*analysis.p_lower, oracle.probability, oracle.tolerance);
        EXPECT_NEAR(*analysis.p_upper, oracle.probability, oracle.tolerance);
        EXPECT_TRUE(analysis.bound_converged);
      } else {
        EXPECT_NEAR(analysis.p_exact, oracle.probability, oracle.tolerance);
      }
    }
  }
}

TEST(OpenpsaCorpus, AnalyseOutputIsByteIdenticalAcrossEnginesAndJobs) {
  for (const char* file : kPositiveModels) {
    SCOPED_TRACE(file);
    // The two exact engines must agree byte-for-byte with each other and
    // across worker counts; the bound engine prints the certified interval
    // instead of the classic probability block, so it is held identical
    // across job counts and to its own serial run.
    std::string exact_reference;
    std::string bound_reference;
    for (CutSetEngine engine : kAllEngines) {
      for (int jobs : {1, 4}) {
        ServiceRunner runner;
        const ServiceResult result =
            runner.execute(analyse_request(corpus(file), engine, jobs));
        SCOPED_TRACE("engine " + std::to_string(static_cast<int>(engine)) +
                     " jobs " + std::to_string(jobs));
        EXPECT_EQ(result.exit_code, 0) << result.log;
        std::string& reference = engine == CutSetEngine::kBound
                                     ? bound_reference
                                     : exact_reference;
        if (reference.empty()) {
          reference = result.output;
        } else {
          EXPECT_EQ(result.output, reference);
        }
      }
    }
    EXPECT_FALSE(exact_reference.empty());
    EXPECT_FALSE(bound_reference.empty());
  }
}

TEST(OpenpsaCorpus, NegativeModelsKeepTheExitCodeContract) {
  // Malformed XML: hard parse failure, exit 2.
  const CliRun unclosed = run_cli({"analyse", corpus("unclosed.xml")});
  EXPECT_EQ(unclosed.code, 2);
  EXPECT_NE(unclosed.err.find("error:"), std::string::npos);
  // Semantic problems recover with diagnostics: exit 1, analysis output
  // still produced for the repaired parts.
  for (const char* file :
       {"undefined_ref.xml", "bad_probability.xml", "cyclic.xml"}) {
    SCOPED_TRACE(file);
    const CliRun run = run_cli({"analyse", corpus(file)});
    EXPECT_EQ(run.code, 1);
    EXPECT_FALSE(run.out.empty());
    EXPECT_NE(run.err.find("error"), std::string::npos);
    // --strict turns the first semantic error into a hard failure.
    const CliRun strict = run_cli({"analyse", corpus(file), "--strict"});
    EXPECT_GT(strict.code, 1);
    EXPECT_TRUE(strict.out.empty());
  }
}

// ---------------------------------------------------------------------------
// OpenpsaRoundTrip: write_openpsa -> import -> identical analysis

TEST(OpenpsaRoundTrip, CorpusTreesSurviveExportImportByteIdentically) {
  for (const char* file : kPositiveModels) {
    const MefModel mef = openpsa::read_openpsa_file(corpus(file));
    for (const MefTop& top : mef.tops) {
      SCOPED_TRACE(std::string(file) + " top " + top.name);
      const std::string exported = write_openpsa(top.tree);
      const MefModel reimported = openpsa::read_openpsa(exported);
      ASSERT_EQ(reimported.tops.size(), 1u);
      const AnalysisOptions options;
      const TreeAnalysis before = analyse_tree(top.tree, options);
      const TreeAnalysis after = analyse_tree(reimported.tops[0].tree, options);
      EXPECT_EQ(render(top.tree, before, options),
                render(reimported.tops[0].tree, after, options));
    }
  }
}

TEST(OpenpsaRoundTrip, SynthesiseOpenpsaFormatIsReimportable) {
  // CLI surface: `synthesise --format openpsa` on an imported model emits
  // a document the importer reads back with identical cut sets.
  const CliRun exported =
      run_cli({"synthesise", corpus("shared.xml"), "--format", "openpsa"});
  ASSERT_EQ(exported.code, 0) << exported.err;
  const MefModel reimported = openpsa::read_openpsa(exported.out);
  ASSERT_EQ(reimported.tops.size(), 1u);
  const TreeAnalysis analysis =
      analyse_top(reimported.tops[0].tree, CutSetEngine::kMicsup);
  EXPECT_EQ(analysis.cut_sets.to_string(), "{a}\n{b, c}\n");
}

// ---------------------------------------------------------------------------
// OpenpsaService: CLI dispatch, wire sequences, warm response memo

TEST(OpenpsaService, CommandsDispatchOnXmlModels) {
  const CliRun info = run_cli({"info", corpus("event_tree.xml")});
  EXPECT_EQ(info.code, 0) << info.err;
  EXPECT_NE(info.out.find("fault trees: 1"), std::string::npos);
  EXPECT_NE(info.out.find("LOSP/CORE-DAMAGE [sequence]"), std::string::npos);

  const CliRun validate = run_cli({"validate", corpus("and_or.xml")});
  EXPECT_EQ(validate.code, 0) << validate.err;
  EXPECT_NE(validate.out.find("0 error(s)"), std::string::npos);

  const CliRun fmea = run_cli({"fmea", corpus("and_or.xml")});
  EXPECT_EQ(fmea.code, 0) << fmea.err;

  const CliRun sensitivity = run_cli({"sensitivity", corpus("and_or.xml")});
  EXPECT_EQ(sensitivity.code, 0) << sensitivity.err;

  const CliRun report = run_cli({"report", corpus("event_tree.xml")});
  EXPECT_EQ(report.code, 0) << report.err;
  EXPECT_NE(report.out.find("# Safety analysis report: plant"),
            std::string::npos);
  EXPECT_NE(report.out.find("### Event-tree sequences"), std::string::npos);
  EXPECT_NE(report.out.find("LOSP/CORE-DAMAGE"), std::string::npos);

  // audit/diff need block structure: clean usage error, not a crash.
  const CliRun audit = run_cli({"audit", corpus("and_or.xml")});
  EXPECT_EQ(audit.code, 2);
  EXPECT_NE(audit.err.find(".mdl"), std::string::npos);
}

TEST(OpenpsaService, TopSelectionFiltersAndRejectsUnknownNames) {
  const CliRun one =
      run_cli({"analyse", corpus("event_tree.xml"), "--top", "LOSP/SAFE"});
  EXPECT_EQ(one.code, 0) << one.err;
  EXPECT_NE(one.out.find("sequence 'SAFE'"), std::string::npos);
  EXPECT_EQ(one.out.find("CORE-DAMAGE"), std::string::npos);

  const CliRun unknown =
      run_cli({"analyse", corpus("event_tree.xml"), "--top", "NOPE"});
  EXPECT_EQ(unknown.code, 4);  // lookup error, like the .mdl path
}

TEST(OpenpsaService, AnalyseEmitsSequenceRowsOnEveryFormat) {
  ServiceRunner runner;
  ServiceRequest request =
      analyse_request(corpus("event_tree.xml"), CutSetEngine::kMicsup, 1);
  const ServiceResult text = runner.execute(request);
  ASSERT_EQ(text.exit_code, 0) << text.log;
  EXPECT_NE(text.output.find("=== Event-tree sequences ==="),
            std::string::npos);
  ASSERT_EQ(text.sequences.size(), 2u);
  EXPECT_EQ(text.sequences[0].name, "LOSP/CORE-DAMAGE");
  EXPECT_NEAR(text.sequences[0].probability, 0.0725, 1e-15);
  EXPECT_EQ(text.sequences[0].cut_set_count, 2u);
  EXPECT_EQ(text.sequences[0].min_order, 2u);
  EXPECT_FALSE(text.sequences[0].truncated);
  EXPECT_EQ(text.sequences[1].name, "LOSP/SAFE");
  EXPECT_NEAR(text.sequences[1].probability, 0.4275, 1e-15);

  request.format = "xml";
  const ServiceResult xml = runner.execute(request);
  ASSERT_EQ(xml.exit_code, 0) << xml.log;
  EXPECT_NE(xml.output.find("<sequences>"), std::string::npos);
  EXPECT_NE(xml.output.find("<sequence name=\"LOSP/CORE-DAMAGE\""),
            std::string::npos);
  EXPECT_EQ(xml.sequences.size(), 2u);

  request.format = "json";
  const ServiceResult json = runner.execute(request);
  ASSERT_EQ(json.exit_code, 0) << json.log;
  EXPECT_NE(json.output.find("\"sequences\": ["), std::string::npos);
  EXPECT_NE(json.output.find("\"name\": \"LOSP/SAFE\""), std::string::npos);
  EXPECT_EQ(json.sequences.size(), 2u);
}

TEST(OpenpsaService, WarmMemoReplaysSequencesByteIdentically) {
  ServiceRunner::Options options;
  options.warm = true;
  options.jobs = 2;
  ServiceRunner runner(options);
  const ServiceRequest request =
      analyse_request(corpus("event_tree.xml"), CutSetEngine::kMicsup, 0);
  const ServiceResult cold = runner.execute(request);
  ASSERT_EQ(cold.exit_code, 0) << cold.log;
  ASSERT_EQ(cold.sequences.size(), 2u);
  EXPECT_NE(runner.stats_text().find("results memoised: 1"),
            std::string::npos);
  // The replay must come from the response memo and still carry the
  // structured rows (they ride inside the stored ServiceResult).
  const ServiceResult warm = runner.execute(request);
  EXPECT_EQ(warm.output, cold.output);
  EXPECT_EQ(warm.log, cold.log);
  ASSERT_EQ(warm.sequences.size(), 2u);
  EXPECT_EQ(warm.sequences[0].name, cold.sequences[0].name);
  EXPECT_DOUBLE_EQ(warm.sequences[0].probability,
                   cold.sequences[0].probability);
  EXPECT_NE(runner.stats_text().find("results memoised: 1"),
            std::string::npos);
}

TEST(OpenpsaService, WireEnvelopeCarriesSequences) {
  // The daemon's ok envelope: sequence rows from the stored ServiceResult
  // render as the `sequences` wire field, so memo-replayed answers carry
  // them exactly like freshly computed ones (the soak script checks the
  // same contract against a live daemon).
  ServiceRunner runner;
  const ServiceResult result = runner.execute(
      analyse_request(corpus("event_tree.xml"), CutSetEngine::kMicsup, 1));
  ASSERT_EQ(result.exit_code, 0) << result.log;
  const std::string envelope =
      service::render_ok_response(service::Json::number(7), result);
  const std::optional<service::Json> parsed = service::Json::parse(envelope);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->find("status")->as_string(), "ok");
  const service::Json* sequences = parsed->find("sequences");
  ASSERT_NE(sequences, nullptr);
  ASSERT_EQ(sequences->as_array().size(), 2u);
  const service::Json& first = sequences->as_array()[0];
  EXPECT_EQ(first.find("name")->as_string(), "LOSP/CORE-DAMAGE");
  EXPECT_NEAR(first.find("probability")->as_number(), 0.0725, 1e-15);
  EXPECT_EQ(first.find("cut_sets")->as_number(), 2);
  EXPECT_EQ(first.find("min_order")->as_number(), 2);
  EXPECT_FALSE(first.find("truncated")->as_bool());
}

TEST(OpenpsaService, UnreadableXmlPathFailsWithParseExit) {
  const CliRun run = run_cli({"analyse", "/nonexistent/model.xml"});
  EXPECT_EQ(run.code, 2);
  EXPECT_NE(run.err.find("error"), std::string::npos);
}

// ---------------------------------------------------------------------------
// EventTreeAnalysis: the sequence-collection layer

TEST(EventTreeAnalysis, CollectSequenceGateShapes) {
  FaultTree tree("et");
  FtNode* a = tree.add_basic(Symbol("a"), 0.0, "", "");
  FtNode* b = tree.add_basic(Symbol("b"), 0.0, "", "");
  FtNode* c = tree.add_basic(Symbol("c"), 0.0, "", "");

  EXPECT_EQ(collect_sequence_gate(tree, {}), nullptr);
  EXPECT_EQ(collect_sequence_gate(tree, {{}}), nullptr);
  // One single-node path passes through unchanged.
  EXPECT_EQ(collect_sequence_gate(tree, {{a}}), a);
  // One multi-node path: AND of the collected formulas.
  FtNode* both = collect_sequence_gate(tree, {{a, b}});
  ASSERT_NE(both, nullptr);
  EXPECT_EQ(both->gate(), GateKind::kAnd);
  ASSERT_EQ(both->children().size(), 2u);
  // Several paths: OR over the per-path ANDs.
  FtNode* either = collect_sequence_gate(tree, {{a, b}, {c}});
  ASSERT_NE(either, nullptr);
  EXPECT_EQ(either->gate(), GateKind::kOr);
  ASSERT_EQ(either->children().size(), 2u);
  EXPECT_EQ(either->children()[1], c);
}

TEST(EventTreeAnalysis, SummariseSequenceReadsTheAnalysis) {
  const MefModel mef = openpsa::read_openpsa_file(corpus("event_tree.xml"));
  const MefTop* damage = find_top(mef, "LOSP/CORE-DAMAGE");
  ASSERT_NE(damage, nullptr);
  const TreeAnalysis analysis =
      analyse_top(damage->tree, CutSetEngine::kMicsup);
  const SequenceSummary row = summarise_sequence("LOSP/CORE-DAMAGE", analysis);
  EXPECT_EQ(row.name, "LOSP/CORE-DAMAGE");
  EXPECT_NEAR(row.probability, 0.0725, 1e-15);
  EXPECT_EQ(row.cut_set_count, 2u);
  EXPECT_EQ(row.min_order, 2u);
  EXPECT_FALSE(row.truncated);
  EXPECT_FALSE(row.p_lower.has_value());

  const TreeAnalysis bound = analyse_top(damage->tree, CutSetEngine::kBound);
  const SequenceSummary interval = summarise_sequence("x", bound);
  ASSERT_TRUE(interval.p_lower.has_value());
  ASSERT_TRUE(interval.p_upper.has_value());
  EXPECT_NEAR(*interval.p_lower, 0.0725, 1e-12);
  EXPECT_DOUBLE_EQ(interval.probability, *interval.p_upper);
}

TEST(EventTreeAnalysis, RenderersAreStableAndSkipEmptyInput) {
  EXPECT_EQ(render_sequence_table({}), "");
  EXPECT_EQ(render_sequence_markdown({}), "");
  SequenceSummary row;
  row.name = "ET/S1";
  row.probability = 0.25;
  row.cut_set_count = 3;
  row.min_order = 2;
  const std::string table = render_sequence_table({row});
  EXPECT_NE(table.find("=== Event-tree sequences ==="), std::string::npos);
  EXPECT_NE(table.find("ET/S1"), std::string::npos);
  EXPECT_NE(table.find("0.25"), std::string::npos);
  const std::string markdown = render_sequence_markdown({row});
  EXPECT_NE(markdown.find("### Event-tree sequences"), std::string::npos);
  EXPECT_NE(markdown.find("| ET/S1 | 0.25 | 3 | 2 |"), std::string::npos);
  // Bound rows render the certified interval in the probability column.
  row.p_lower = 0.2;
  row.p_upper = 0.3;
  EXPECT_NE(render_sequence_table({row}).find("[0.2, 0.3]"),
            std::string::npos);
}

TEST(EventTreeAnalysis, SequencesAnalyseIdenticallyThroughTheBatch) {
  // The event-tree pipeline rides the shared batch orchestrator: a
  // parallel run must be byte-identical to the serial one.
  const auto run = [](ThreadPool* pool) {
    MefModel mef = openpsa::read_openpsa_file(corpus("event_tree.xml"));
    std::vector<FaultTree> trees;
    std::vector<std::string> labels;
    for (MefTop& top : mef.tops) {
      labels.push_back(top.name);
      trees.push_back(std::move(top.tree));
    }
    return analyse_trees(std::move(trees), labels, BatchOptions{}, pool);
  };
  const BatchResult serial = run(nullptr);
  ThreadPool pool(4);
  const BatchResult parallel = run(&pool);
  ASSERT_EQ(serial.items.size(), 3u);
  ASSERT_EQ(parallel.items.size(), 3u);
  const AnalysisOptions options;
  for (std::size_t i = 0; i < serial.items.size(); ++i) {
    ASSERT_EQ(serial.items[i].error, nullptr);
    ASSERT_EQ(parallel.items[i].error, nullptr);
    EXPECT_EQ(serial.items[i].display_name(), parallel.items[i].display_name());
    EXPECT_EQ(render(*serial.items[i].tree, *serial.items[i].analysis, options),
              render(*parallel.items[i].tree, *parallel.items[i].analysis,
                     options));
  }
}

}  // namespace
}  // namespace ftsynth
