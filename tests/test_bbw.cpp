// Tests of the SETTA brake-by-wire / ACC case study (experiments E4, E6,
// E7): integrated HW+SW analysis, weak-area identification, design
// iteration.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "analysis/probability.h"
#include "analysis/report.h"
#include "bdd/bdd_prob.h"
#include "bdd_prob_reference.h"
#include "casestudy/setta.h"
#include "core/error.h"
#include "fta/synthesis.h"

namespace ftsynth {
namespace {

std::vector<std::string> spof_names(const TreeAnalysis& analysis) {
  std::vector<std::string> out;
  for (const FtNode* event : analysis.common_cause.single_points_of_failure)
    out.push_back(std::string(event->name().view()));
  return out;
}

bool contains(const std::vector<std::string>& names, std::string_view name) {
  return std::find(names.begin(), names.end(), name) != names.end();
}

class BbwTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    full_ = new Model(setta::build_bbw());
    baseline_ = new Model(setta::build_bbw_single_channel());
  }
  static void TearDownTestSuite() {
    delete full_;
    delete baseline_;
    full_ = nullptr;
    baseline_ = nullptr;
  }

  static Model* full_;
  static Model* baseline_;
  AnalysisOptions options_{.cut_sets = {},
                           .probability = {1000.0, 0.0},
                           .render_tree = false,
                           .max_importance_rows = 10};
};

Model* BbwTest::full_ = nullptr;
Model* BbwTest::baseline_ = nullptr;

// -- E4: integrated hardware + software analysis (Figure 3) ---------------------

TEST_F(BbwTest, NodeHardwareIsACommonCauseOverItsTasks) {
  Synthesiser synthesiser(*full_);
  FaultTree tree = synthesiser.synthesise("Omission-brake_force_fl");
  TreeAnalysis analysis = analyse_tree(tree, options_);
  std::vector<std::string> spofs = spof_names(analysis);
  // Hardware of the wheel node (subsystem level) and software defects of
  // its tasks (block level) appear side by side.
  EXPECT_TRUE(contains(spofs, "bbw/wheel_fl.cpu_failure"));
  EXPECT_TRUE(contains(spofs, "bbw/wheel_fl.power_loss"));
  EXPECT_TRUE(contains(spofs, "bbw/wheel_fl/brake_ctrl.ctrl_defect"));
  EXPECT_TRUE(contains(spofs, "bbw/wheel_fl/com_rx.rx_defect"));
}

TEST_F(BbwTest, PedalNodeHardwareDefeatsBusReplication) {
  // The pedal node is one programmable unit: its processor failure must be
  // a single-point cause of total braking loss even with two buses.
  Synthesiser synthesiser(*full_);
  FaultTree tree = synthesiser.synthesise("Omission-total_braking");
  TreeAnalysis analysis = analyse_tree(tree, options_);
  std::vector<std::string> spofs = spof_names(analysis);
  EXPECT_TRUE(contains(spofs, "bbw/pedal_node.cpu_failure"));
  // Bus loss is NOT a single point in the replicated design...
  EXPECT_FALSE(contains(spofs, "bbw/bus_a.bus_failure"));
  // ... but the pair of buses is an order-2 cut set.
  bool bus_pair = false;
  for (const CutSet& cs : analysis.cut_sets.cut_sets) {
    if (cs.size() == 2 &&
        cs[0].event->name() == Symbol("bbw/bus_a.bus_failure") &&
        cs[1].event->name() == Symbol("bbw/bus_b.bus_failure"))
      bus_pair = true;
  }
  EXPECT_TRUE(bus_pair);
}

TEST_F(BbwTest, VotedSensorsAppearAsOrderTwoCutSets) {
  Synthesiser synthesiser(*full_);
  FaultTree tree = synthesiser.synthesise("Omission-brake_force_fl");
  CutSetAnalysis analysis = minimal_cut_sets(tree);
  int sensor_pairs = 0;
  for (const CutSet& cs : analysis.cut_sets) {
    if (cs.size() != 2) continue;
    bool all_sensors = std::all_of(
        cs.begin(), cs.end(), [](const CutLiteral& literal) {
          return literal.event->name().view().find("pedal_sensor_") !=
                 std::string_view::npos;
        });
    if (all_sensors) ++sensor_pairs;
  }
  EXPECT_EQ(sensor_pairs, 3);  // the 3 pairs of a 2-of-3 vote
}

// -- E6: weak areas ---------------------------------------------------------------

TEST_F(BbwTest, ValueFailuresPassTheUnvotedBusPath) {
  // Deliberate weak area: two buses can mask an omission but not a value
  // corruption. The corruption of either bus must be an order-1 cause of
  // wrong braking.
  Synthesiser synthesiser(*full_);
  FaultTree tree = synthesiser.synthesise("Value-brake_force_fl");
  TreeAnalysis analysis = analyse_tree(tree, options_);
  std::vector<std::string> spofs = spof_names(analysis);
  EXPECT_TRUE(contains(spofs, "bbw/bus_a.corruption"));
  EXPECT_TRUE(contains(spofs, "bbw/bus_b.corruption"));
}

TEST_F(BbwTest, SpuriousAccRequestCausesCommission) {
  Synthesiser synthesiser(*full_);
  FaultTree tree = synthesiser.synthesise("Commission-brake_force_fl");
  ASSERT_NE(tree.top(), nullptr);
  bool ghost = false;
  tree.for_each_reachable([&](const FtNode& node) {
    if (node.name() == Symbol("bbw/radar_sensor.radar_ghost")) ghost = true;
  });
  EXPECT_TRUE(ghost) << "radar ghost target must reach unintended braking";
}

TEST_F(BbwTest, WheelChannelsShareThePedalPathAndBuses) {
  Synthesiser synthesiser(*full_);
  FaultTree fl = synthesiser.synthesise("Omission-brake_force_fl");
  FaultTree rr = synthesiser.synthesise("Omission-brake_force_rr");
  std::vector<Symbol> shared = shared_between(fl, rr);
  auto has = [&](std::string_view name) {
    return std::find(shared.begin(), shared.end(), Symbol(name)) !=
           shared.end();
  };
  EXPECT_TRUE(has("bbw/pedal_node.cpu_failure"));
  EXPECT_TRUE(has("bbw/bus_a.bus_failure"));
  EXPECT_TRUE(has("bbw/pedal_sensor_1.open_circuit"));
  // Wheel-local events must NOT couple the channels.
  EXPECT_FALSE(has("bbw/actuator_fl.jammed"));
  EXPECT_FALSE(has("bbw/wheel_rr.cpu_failure"));
}

TEST_F(BbwTest, DataStoreDiagnosticsReachTheWarningLamp) {
  Synthesiser synthesiser(*full_);
  FaultTree tree = synthesiser.synthesise("Omission-warning_lamp");
  ASSERT_NE(tree.top(), nullptr);
  // The lamp depends on the status store written by all four wheel nodes.
  int wheel_writers = 0;
  for (const FtNode* event : tree.basic_events()) {
    if (event->name().view().find("status_tx.stx_defect") !=
        std::string_view::npos)
      ++wheel_writers;
  }
  EXPECT_EQ(wheel_writers, 4);
}

// -- E7: design iteration -----------------------------------------------------------

TEST_F(BbwTest, IterationEliminatesPedalPathSinglePoints) {
  Synthesiser base(*baseline_);
  Synthesiser revised(*full_);
  FaultTree before_tree = base.synthesise("Omission-total_braking");
  FaultTree after_tree = revised.synthesise("Omission-total_braking");
  TreeAnalysis before = analyse_tree(before_tree, options_);
  TreeAnalysis after = analyse_tree(after_tree, options_);

  std::vector<std::string> before_spofs = spof_names(before);
  std::vector<std::string> after_spofs = spof_names(after);
  // The single bus and the single sensor were single points; no more.
  EXPECT_TRUE(contains(before_spofs, "bbw/bus_a.bus_failure"));
  EXPECT_TRUE(contains(before_spofs, "bbw/pedal_sensor_1.open_circuit"));
  EXPECT_FALSE(contains(after_spofs, "bbw/bus_a.bus_failure"));
  EXPECT_FALSE(contains(after_spofs, "bbw/pedal_sensor_1.open_circuit"));

  // The revision must strictly improve the catastrophic hazard.
  EXPECT_LT(after.p_exact, before.p_exact * 0.75);
}

TEST_F(BbwTest, IterationRaisesCutSetOrderOfBusLoss) {
  Synthesiser base(*baseline_);
  Synthesiser revised(*full_);
  auto order_of_bus_loss = [](const CutSetAnalysis& analysis) {
    std::size_t order = 0;
    for (const CutSet& cs : analysis.cut_sets) {
      bool all_bus = !cs.empty() &&
                     std::all_of(cs.begin(), cs.end(),
                                 [](const CutLiteral& literal) {
                                   return literal.event->name().view().find(
                                              "bus_") != std::string_view::npos;
                                 });
      if (all_bus) order = std::max(order, cs.size());
    }
    return order;
  };
  FaultTree before_tree = base.synthesise("Omission-brake_force_fl");
  FaultTree after_tree = revised.synthesise("Omission-brake_force_fl");
  CutSetAnalysis before = minimal_cut_sets(before_tree);
  CutSetAnalysis after = minimal_cut_sets(after_tree);
  EXPECT_EQ(order_of_bus_loss(before), 1u);
  EXPECT_EQ(order_of_bus_loss(after), 2u);
}

// -- general sanity ------------------------------------------------------------------

TEST_F(BbwTest, EveryTopEventHasANonTrivialQuantifiedTree) {
  Synthesiser synthesiser(*full_);
  for (const std::string& top : setta::bbw_top_events()) {
    FaultTree tree = synthesiser.synthesise(top);
    ASSERT_NE(tree.top(), nullptr) << top;
    FaultTreeStats stats = tree.stats();
    EXPECT_GE(stats.basic_event_count, 3u) << top;
    TreeAnalysis analysis = analyse_tree(tree, options_);
    EXPECT_GT(analysis.p_exact, 0.0) << top;
    EXPECT_LT(analysis.p_exact, 1.0) << top;
    EXPECT_LE(analysis.p_exact,
              rare_event_bound(cut_set_probabilities(analysis.cut_sets,
                                                     options_.probability)) +
                  1e-12)
        << top;
  }
}

TEST_F(BbwTest, ProbabilityKernelsMatchTheMapMemoReference) {
  // Every top's exact probability, both conditionals of every event and
  // the Birnbaum sweep, == against the map-memo kernels they replaced.
  Synthesiser synthesiser(*full_);
  for (const std::string& top : setta::bbw_top_events()) {
    FaultTree tree = synthesiser.synthesise(top);
    ASSERT_NE(tree.top(), nullptr) << top;
    BddEncoding encoding = encode_bdd(tree);
    BddProbabilityEngine engine(encoding.bdd,
                                encoding.probabilities(options_.probability));
    SCOPED_TRACE(top);
    testing_reference::expect_matches_reference(engine, encoding.bdd,
                                                encoding.root);
  }
}

TEST_F(BbwTest, EncodeBddConstructionIsPinnedOverDerivedTops) {
  // The tops `ftsynth analyse` derives with no --top: every (boundary
  // output x class) candidate whose kPrune synthesis is non-empty.
  SynthesisOptions prune;
  prune.unannotated = SynthesisOptions::UnannotatedPolicy::kPrune;
  std::vector<Deviation> tops;
  for (const Port* port : full_->root().outputs()) {
    for (FailureClass cls : full_->registry().all()) {
      const Deviation candidate{cls, port->name()};
      if (Synthesiser(*full_, prune).synthesise(candidate).top() != nullptr)
        tops.push_back(candidate);
    }
  }
  ASSERT_EQ(tops.size(), 22u);
  // Every node encode_bdd allocates, the nodes the roots keep, and an
  // FNV-1a digest of each node array in Ref order. A Ref is its node's
  // allocation serial, so any change to the construction order (operand
  // order, cofactor order, variable order, the reduction rules) moves the
  // digest even where the counts hold.
  std::size_t created = 0;
  std::size_t kept = 0;
  std::uint64_t digest = 14695981039346656037ull;
  auto mix = [&](std::uint64_t value) {
    digest = (digest ^ value) * 1099511628211ull;
  };
  for (const Deviation& top : tops) {
    FaultTree tree = Synthesiser(*full_).synthesise(top);
    BddEncoding encoding = encode_bdd(tree);
    created += encoding.bdd.size() - 2;  // terminals excluded
    kept += encoding.bdd.node_count(encoding.root);
    for (Bdd::Ref ref = 2; ref < encoding.bdd.size(); ++ref) {
      const Bdd::Node& n = encoding.bdd.node(ref);
      mix(static_cast<std::uint64_t>(n.var));
      mix(n.low);
      mix(n.high);
    }
    mix(encoding.root);
  }
  EXPECT_EQ(created, 24067u);
  EXPECT_EQ(kept, 1232u);
  EXPECT_EQ(digest, 9704163719412653232ull);
}

TEST_F(BbwTest, ZbddConstructionIsPinnedOverDerivedTops) {
  // The tops `ftsynth analyse` derives with no --top, as above.
  SynthesisOptions prune;
  prune.unannotated = SynthesisOptions::UnannotatedPolicy::kPrune;
  std::vector<Deviation> tops;
  for (const Port* port : full_->root().outputs()) {
    for (FailureClass cls : full_->registry().all()) {
      const Deviation candidate{cls, port->name()};
      if (Synthesiser(*full_, prune).synthesise(candidate).top() != nullptr)
        tops.push_back(candidate);
    }
  }
  ASSERT_EQ(tops.size(), 22u);
  // The diagram `--engine zbdd` keeps per top: every slot the manager
  // allocated, the nodes the roots keep, and an FNV-1a digest of each
  // node array in Ref order. A Ref is its node's allocation serial, so a
  // change to the order the set operations recurse in moves the digest
  // even where the counts hold.
  CutSetOptions options;
  options.engine = CutSetEngine::kZbdd;
  options.keep_diagram = true;
  std::size_t created = 0;
  std::size_t kept = 0;
  std::size_t peak_sets = 0;
  std::uint64_t digest = 14695981039346656037ull;
  auto mix = [&](std::uint64_t value) {
    digest = (digest ^ value) * 1099511628211ull;
  };
  for (const Deviation& top : tops) {
    FaultTree tree = Synthesiser(*full_).synthesise(top);
    const CutSetAnalysis analysis = compute_cut_sets(tree, options);
    peak_sets += analysis.peak_sets;
    ASSERT_TRUE(analysis.diagram != nullptr);
    const Zbdd& zbdd = analysis.diagram->zbdd;
    created += zbdd.size() - 2;  // terminals excluded
    kept += zbdd.node_count(analysis.diagram->root);
    for (Zbdd::Ref ref = 2; ref < zbdd.size(); ++ref) {
      const Zbdd::Node& n = zbdd.node(ref);
      mix(static_cast<std::uint64_t>(n.var));
      mix(n.low);
      mix(n.high);
    }
    mix(analysis.diagram->root);
  }
  EXPECT_EQ(created, 25051u);
  EXPECT_EQ(kept, 988u);
  // The engine's working-set mark is the manager's slot count per top.
  EXPECT_EQ(peak_sets, 25095u);
  EXPECT_EQ(digest, 985997935269752543ull);
}

TEST_F(BbwTest, ControlLoopsAreCutNotInfinite) {
  Synthesiser synthesiser(*full_);
  FaultTree tree = synthesiser.synthesise("Value-vehicle_speed");
  ASSERT_NE(tree.top(), nullptr);
  EXPECT_GE(synthesiser.stats().loops_cut, 1u)
      << "the BBW/ACC control loops must be detected and cut";
}

TEST_F(BbwTest, ConfigurationsAreValidated) {
  setta::BbwConfig config;
  config.pedal_sensors = 2;
  EXPECT_THROW(setta::build_bbw(config), Error);
  config = {};
  config.buses = 3;
  EXPECT_THROW(setta::build_bbw(config), Error);
  config = {};
  config.wheels = 0;
  EXPECT_THROW(setta::build_bbw(config), Error);
}

TEST_F(BbwTest, ReducedConfigurationsBuild) {
  setta::BbwConfig config;
  config.wheels = 2;
  config.with_acc = false;
  config.with_monitor = false;
  Model model = setta::build_bbw(config);
  Synthesiser synthesiser(model);
  FaultTree tree = synthesiser.synthesise("Omission-brake_force_fr");
  EXPECT_NE(tree.top(), nullptr);
  std::vector<std::string> tops = setta::bbw_top_events(config);
  EXPECT_EQ(std::count_if(tops.begin(), tops.end(),
                          [](const std::string& top) {
                            return top.find("warning_lamp") !=
                                   std::string::npos;
                          }),
            0);
}

}  // namespace
}  // namespace ftsynth
