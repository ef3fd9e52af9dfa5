// Tests of the fuel-system case study: common cause across redundant
// chains, controller-induced valve closures, design-iteration deltas.

#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/report.h"
#include "casestudy/fuel.h"
#include "fta/synthesis.h"
#include "mdl/parser.h"
#include "mdl/writer.h"
#include "model/validate.h"
#include "sim/propagation.h"

namespace ftsynth {
namespace {

std::vector<std::string> spofs(const Model& model, const std::string& top) {
  Synthesiser synthesiser(model);
  FaultTree tree = synthesiser.synthesise(top);
  CutSetAnalysis analysis = minimal_cut_sets(tree);
  std::vector<std::string> out;
  for (const CutSet cs : analysis.of_order(1))
    out.push_back(std::string(cs[0].event->name().view()));
  return out;
}

bool contains(const std::vector<std::string>& names, std::string_view name) {
  return std::find(names.begin(), names.end(), name) != names.end();
}

TEST(Fuel, BuildsCleanly) {
  Model model = fuel::build_fuel_system();
  EXPECT_GT(model.block_count(), 20u);
  for (const Issue& issue : validate(model)) {
    EXPECT_NE(issue.severity, Severity::kError) << issue.to_string();
  }
}

TEST(Fuel, SharedPowerBusDefeatsPumpRedundancy) {
  Model model = fuel::build_fuel_system();
  std::vector<std::string> starvation_spofs =
      spofs(model, "Omission-engine_feed");
  // The shared electrical bus is a single point across both pump chains.
  EXPECT_TRUE(contains(starvation_spofs, "fuel/power_bus.bus_fault"));
  // The pumps themselves are not: losing one chain is masked.
  EXPECT_FALSE(contains(starvation_spofs, "fuel/main_pump.seized"));
  EXPECT_FALSE(contains(starvation_spofs, "fuel/standby_pump.seized"));
  // The controller CPU closes BOTH valves: another single point.
  EXPECT_TRUE(contains(starvation_spofs, "fuel/controller.cpu_failure"));
  // The shuttle valve is mechanically single.
  EXPECT_TRUE(contains(starvation_spofs, "fuel/selector.jammed"));
}

TEST(Fuel, PumpPairIsAnOrderTwoCutSet) {
  Model model = fuel::build_fuel_system();
  Synthesiser synthesiser(model);
  FaultTree tree = synthesiser.synthesise("Omission-engine_feed");
  CutSetAnalysis analysis = minimal_cut_sets(tree);
  bool pump_pair = false;
  for (const CutSet& cs : analysis.cut_sets) {
    if (cs.size() == 2 &&
        cs[0].event->name() == Symbol("fuel/main_pump.seized") &&
        cs[1].event->name() == Symbol("fuel/standby_pump.seized"))
      pump_pair = true;
  }
  EXPECT_TRUE(pump_pair);
}

TEST(Fuel, ContaminationPropagatesFromEitherTank) {
  Model model = fuel::build_fuel_system();
  std::vector<std::string> value_spofs = spofs(model, "Value-engine_feed");
  EXPECT_TRUE(contains(value_spofs, "fuel/main_tank.contaminated"));
  EXPECT_TRUE(contains(value_spofs, "fuel/reserve_tank.contaminated"));
}

TEST(Fuel, SingleChainBaselineIsStrictlyWorse) {
  fuel::FuelConfig baseline;
  baseline.with_reserve = false;
  Model single = fuel::build_fuel_system(baseline);
  Model dual = fuel::build_fuel_system();

  AnalysisOptions options;
  options.probability.mission_time_hours = 1000.0;
  Synthesiser s1(single);
  Synthesiser s2(dual);
  FaultTree t1 = s1.synthesise("Omission-engine_feed");
  FaultTree t2 = s2.synthesise("Omission-engine_feed");
  const double p1 = exact_probability(t1, options.probability);
  const double p2 = exact_probability(t2, options.probability);
  EXPECT_GT(p1, p2 * 1.2);
  // Pump seizure is a SPOF only in the baseline.
  EXPECT_TRUE(contains(spofs(single, "Omission-engine_feed"),
                       "fuel/main_pump.seized"));
}

TEST(Fuel, ControlLoopIsDetectedAndCut) {
  Model model = fuel::build_fuel_system();
  Synthesiser synthesiser(model);
  FaultTree tree = synthesiser.synthesise("Omission-engine_feed");
  ASSERT_NE(tree.top(), nullptr);
  EXPECT_GE(synthesiser.stats().loops_cut, 1u);
}

TEST(Fuel, RoundTripsThroughTheTextFormat) {
  Model model = fuel::build_fuel_system();
  const std::string text = write_mdl(model);
  Model reparsed = parse_mdl(text);
  EXPECT_EQ(write_mdl(reparsed), text);
}

TEST(Fuel, ForwardSimulationAgreesOnTheBusCommonCause) {
  Model model = fuel::build_fuel_system();
  PropagationEngine engine(model);
  PropagationResult result =
      engine.propagate({Symbol("fuel/power_bus.bus_fault")});
  EXPECT_TRUE(result.at_system_output(Symbol("engine_feed"),
                                      model.registry().omission()));
  // A single pump loss is masked.
  PropagationResult masked =
      engine.propagate({Symbol("fuel/main_pump.seized")});
  EXPECT_FALSE(masked.at_system_output(Symbol("engine_feed"),
                                       model.registry().omission()));
}

TEST(Fuel, EveryTopEventQuantifies) {
  Model model = fuel::build_fuel_system();
  AnalysisOptions options;
  options.probability.mission_time_hours = 10.0;  // one flight
  Synthesiser synthesiser(model);
  for (const std::string& top : fuel::fuel_top_events()) {
    FaultTree tree = synthesiser.synthesise(top);
    ASSERT_NE(tree.top(), nullptr) << top;
    TreeAnalysis analysis = analyse_tree(tree, options);
    EXPECT_GT(analysis.p_exact, 0.0) << top;
    EXPECT_LT(analysis.p_exact, 0.01) << top;  // plausible per-flight risk
  }
}

}  // namespace
}  // namespace ftsynth
