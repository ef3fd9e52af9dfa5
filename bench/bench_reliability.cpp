// Experiment E8: reliability evaluation -- the role the paper assigns to
// Fault Tree Plus ("import those fault trees in Fault Tree Plus for
// further analysis and reliability evaluation"). Compares the evaluation
// methods (rare-event, Esary-Proschan, truncated inclusion-exclusion,
// exact BDD) on the demonstrator's trees, and produces the
// unavailability-vs-mission-time series.
//
// BM_ReliabilityReplicated runs the whole reliability stage on a prebuilt
// cut-set family of the two extremes of the benchmark's cutset_heavy
// workload, {3, 58} (long lanes) and {5, 13} (the largest product), and
// reports an exact `allocs` counter (heap allocations per analysis,
// alloc_counter.cpp). The stage reads the listing through dense
// node-id tables, so the count follows the number of events, not the
// number of sets or literals.

#include <benchmark/benchmark.h>

#include <vector>

#include "alloc_counter.h"
#include "analysis/importance.h"
#include "analysis/probability.h"
#include "casestudy/setta.h"
#include "casestudy/synthetic.h"
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
  for (auto _ : state)
    p = rare_event_bound(cut_set_probabilities(fixture().cut_sets, options));
  state.counters["p"] = p;
}
BENCHMARK(BM_RareEventBound);

void BM_EsaryProschanBound(benchmark::State& state) {
  ProbabilityOptions options;
  options.mission_time_hours = 1000.0;
  double p = 0.0;
  for (auto _ : state) {
    p = esary_proschan_bound(
        cut_set_probabilities(fixture().cut_sets, options));
  }
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

// The BDD construction alone over every top `ftsynth analyse` derives for
// BBW (22): the encode step of the reliability stage, without the
// probability passes. `nodes` counts every node allocated (terminals
// excluded), `root_nodes` the nodes the roots keep; both are exact.
void BM_EncodeBddBbwAllTopEvents(benchmark::State& state) {
  Model& model = fixture().model;
  SynthesisOptions prune;
  prune.unannotated = SynthesisOptions::UnannotatedPolicy::kPrune;
  std::vector<FaultTree> trees;
  for (const Port* port : model.root().outputs()) {
    for (FailureClass cls : model.registry().all()) {
      const Deviation top{cls, port->name()};
      if (Synthesiser(model, prune).synthesise(top).top() != nullptr)
        trees.push_back(Synthesiser(model).synthesise(top));
    }
  }
  std::size_t nodes = 0;
  std::size_t root_nodes = 0;
  for (auto _ : state) {
    nodes = 0;
    root_nodes = 0;
    for (const FaultTree& tree : trees) {
      BddEncoding encoding = encode_bdd(tree);
      benchmark::DoNotOptimize(encoding.root);
      nodes += encoding.bdd.size() - 2;
      root_nodes += encoding.bdd.node_count(encoding.root);
    }
  }
  state.counters["top_events"] = static_cast<double>(trees.size());
  state.counters["nodes"] = static_cast<double>(nodes);
  state.counters["root_nodes"] = static_cast<double>(root_nodes);
}
BENCHMARK(BM_EncodeBddBbwAllTopEvents);

// Unavailability vs mission time: the classic reliability figure. One row
// per decade of mission time; p_* counters are the series.
void BM_UnavailabilityVsMissionTime(benchmark::State& state) {
  ProbabilityOptions options;
  options.mission_time_hours = static_cast<double>(state.range(0));
  double exact = 0.0;
  double rare = 0.0;
  for (auto _ : state) {
    exact = exact_probability(fixture().tree, options);
    rare =
        rare_event_bound(cut_set_probabilities(fixture().cut_sets, options));
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

void BM_ReliabilityReplicated(benchmark::State& state) {
  synthetic::ReplicatedConfig config;
  config.channels = static_cast<int>(state.range(0));
  config.stages = static_cast<int>(state.range(1));
  const Model model = synthetic::build_replicated(config);
  SynthesisOptions synthesis;
  synthesis.environment = SynthesisOptions::EnvironmentPolicy::kPrune;
  const FaultTree tree =
      Synthesiser(model, synthesis).synthesise("Omission-sink");
  const CutSetAnalysis cut_sets = minimal_cut_sets(tree);
  const ProbabilityOptions options;
  std::size_t allocations = 0;
  double p = 0.0;
  for (auto _ : state) {
    const std::size_t before = allocations_so_far();
    const ReliabilitySummary summary =
        analyse_reliability(tree, cut_sets, options);
    allocations += allocations_so_far() - before;
    p = summary.p_rare_event;
  }
  report_allocations(state, allocations);
  state.counters["cut_sets"] = static_cast<double>(cut_sets.cut_sets.size());
  state.counters["p_rare_event"] = p;
}
BENCHMARK(BM_ReliabilityReplicated)
    ->Args({3, 58})->Args({5, 13})->Unit(benchmark::kMillisecond);

}  // namespace
