// Experiment E8: reliability evaluation -- the role the paper assigns to
// Fault Tree Plus ("import those fault trees in Fault Tree Plus for
// further analysis and reliability evaluation"). Compares the evaluation
// methods (rare-event, Esary-Proschan, truncated inclusion-exclusion,
// exact BDD) on the demonstrator's trees, and produces the
// unavailability-vs-mission-time series.

#include <benchmark/benchmark.h>

#include "analysis/importance.h"
#include "analysis/probability.h"
#include "casestudy/setta.h"
#include "fta/synthesis.h"

namespace {

using namespace ftsynth;

struct Fixture {
  Model model = setta::build_bbw();
  FaultTree tree = Synthesiser(model).synthesise("Omission-brake_force_fl");
  CutSetAnalysis cut_sets = minimal_cut_sets(tree);
};

Fixture& fixture() {
  static Fixture instance;
  return instance;
}

void BM_RareEventBound(benchmark::State& state) {
  ProbabilityOptions options;
  options.mission_time_hours = 1000.0;
  double p = 0.0;
  for (auto _ : state) p = rare_event_bound(fixture().cut_sets, options);
  state.counters["p"] = p;
}
BENCHMARK(BM_RareEventBound);

void BM_EsaryProschanBound(benchmark::State& state) {
  ProbabilityOptions options;
  options.mission_time_hours = 1000.0;
  double p = 0.0;
  for (auto _ : state) p = esary_proschan_bound(fixture().cut_sets, options);
  state.counters["p"] = p;
}
BENCHMARK(BM_EsaryProschanBound);

void BM_InclusionExclusion(benchmark::State& state) {
  ProbabilityOptions options;
  options.mission_time_hours = 1000.0;
  double p = 0.0;
  for (auto _ : state) {
    p = inclusion_exclusion(fixture().cut_sets, options,
                            static_cast<std::size_t>(state.range(0)));
  }
  state.counters["p"] = p;
  state.counters["terms"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_InclusionExclusion)->DenseRange(1, 4, 1);

void BM_ExactBdd(benchmark::State& state) {
  ProbabilityOptions options;
  options.mission_time_hours = 1000.0;
  double p = 0.0;
  for (auto _ : state) p = exact_probability(fixture().tree, options);
  state.counters["p"] = p;
}
BENCHMARK(BM_ExactBdd);

// Unavailability vs mission time: the classic reliability figure. One row
// per decade of mission time; p_* counters are the series.
void BM_UnavailabilityVsMissionTime(benchmark::State& state) {
  ProbabilityOptions options;
  options.mission_time_hours = static_cast<double>(state.range(0));
  double exact = 0.0;
  double rare = 0.0;
  for (auto _ : state) {
    exact = exact_probability(fixture().tree, options);
    rare = rare_event_bound(fixture().cut_sets, options);
  }
  state.counters["t_hours"] = options.mission_time_hours;
  state.counters["p_exact"] = exact;
  state.counters["p_rare_event"] = rare;
  state.SetLabel("Omission-brake_force_fl");
}
BENCHMARK(BM_UnavailabilityVsMissionTime)
    ->Arg(1)->Arg(10)->Arg(100)->Arg(1000)->Arg(10000);

void BM_ImportanceRankingBbw(benchmark::State& state) {
  ProbabilityOptions options;
  options.mission_time_hours = 1000.0;
  std::size_t entries = 0;
  for (auto _ : state) {
    std::vector<ImportanceEntry> ranking =
        analyse_reliability(fixture().tree, fixture().cut_sets, options)
            .importance;
    entries = ranking.size();
    benchmark::DoNotOptimize(ranking.data());
  }
  state.counters["events"] = static_cast<double>(entries);
}
BENCHMARK(BM_ImportanceRankingBbw);

}  // namespace
