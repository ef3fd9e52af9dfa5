// Experiment E12: diagram-native probability and importance.
//
// Two claims to measure:
//
//   1. End to end, the ZBDD engine's retained diagram (what analyse_tree
//      keeps for every zbdd run) beats the cut-set path whenever path
//      extraction dominates: the diagram stays linear in the model while
//      the family it encodes is combinatorial (stages^channels for the
//      replicated voter), so enumerating sets just to sum over them is
//      the bottleneck the diagram sweeps remove.
//      BM_AnalyseCutsets / BM_AnalyseDiagram is that A/B on a replicated
//      fixture whose family blows past max_sets; compare_benchmarks.py
//      --prob-report watches the ratio (the acceptance bar is 2x). The
//      cut-set arm is the reference path: keep_diagram=false, then
//      analyse_reliability over the listing.
//
//   2. The honest axis: on a clean run whose family fits the limits, both
//      arms evaluate the SAME extracted family with the same kernels --
//      the BBW pair must come out ~1x, and its outputs byte-identical.
//
// Plus the importance kernel in isolation: the per-variable restricted
// evaluation (O(V*N), what the importance ranking used to do) against the
// one-pass up/down Birnbaum sweep (O(N)).

#include <benchmark/benchmark.h>

#include <map>
#include <memory>

#include "analysis/probability.h"
#include "analysis/report.h"
#include "bdd/bdd_prob.h"
#include "casestudy/setta.h"
#include "casestudy/synthetic.h"
#include "fta/synthesis.h"

namespace {

using namespace ftsynth;

/// The extraction-dominated fixture: 3 voted lanes of 40 stages give a
/// minimal family of ~64k sets (every way to lose all three lanes) while
/// the diagram stays linear in the model. max_sets = 16384 truncates the
/// listing, so the cut-set path enumerates (and evaluates) 16384 partial
/// sets where the diagram path samples a bounded listing and sweeps the
/// small diagram for exact numbers.
const FaultTree& replicated_tree() {
  static Model model = [] {
    synthetic::ReplicatedConfig config;
    config.channels = 3;
    config.stages = 40;
    return synthetic::build_replicated(config);
  }();
  static FaultTree tree = Synthesiser(model).synthesise("Omission-sink");
  return tree;
}

AnalysisOptions replicated_options() {
  AnalysisOptions options;
  options.cut_sets.engine = CutSetEngine::kZbdd;
  options.cut_sets.max_sets = 1u << 14;
  return options;
}

/// The cut-set arm: analyse_tree's stages with the diagram withheld
/// (keep_diagram=false), so every number is evaluated over the listing.
ReliabilitySummary analyse_listing(const FaultTree& tree,
                                   const AnalysisOptions& options,
                                   std::size_t* listed_sets) {
  CutSetOptions cut_options = options.cut_sets;
  cut_options.keep_diagram = false;
  const CutSetAnalysis cut_sets = compute_cut_sets(tree, cut_options);
  CommonCauseReport common_cause = analyse_common_cause(tree, cut_sets);
  benchmark::DoNotOptimize(&common_cause);
  *listed_sets = cut_sets.cut_sets.size();
  return analyse_reliability(tree, cut_sets, options.probability);
}

void BM_AnalyseCutsets(benchmark::State& state) {
  const FaultTree& tree = replicated_tree();
  const AnalysisOptions options = replicated_options();
  std::size_t sets = 0;
  for (auto _ : state) {
    ReliabilitySummary reliability = analyse_listing(tree, options, &sets);
    benchmark::DoNotOptimize(reliability.p_rare_event);
  }
  state.counters["listed_sets"] = static_cast<double>(sets);
  state.SetLabel("replicated_c3_s40_truncated");
}
BENCHMARK(BM_AnalyseCutsets)->Unit(benchmark::kMillisecond);

void BM_AnalyseDiagram(benchmark::State& state) {
  const FaultTree& tree = replicated_tree();
  const AnalysisOptions options = replicated_options();
  std::size_t sets = 0;
  bool native = false;
  for (auto _ : state) {
    TreeAnalysis analysis = analyse_tree(tree, options);
    sets = analysis.cut_sets.cut_sets.size();
    native = analysis.diagram_native;
    benchmark::DoNotOptimize(analysis.p_rare_event);
  }
  state.counters["listed_sets"] = static_cast<double>(sets);
  state.counters["diagram_native"] = native ? 1.0 : 0.0;
  state.SetLabel("replicated_c3_s40_truncated");
}
BENCHMARK(BM_AnalyseDiagram)->Unit(benchmark::kMillisecond);

/// Honesty pair: a clean run (family within limits) must cost the same
/// on both arms -- the diagram path only diverges once extraction
/// truncates.
const FaultTree& bbw_tree() {
  static Model model = setta::build_bbw();
  static FaultTree tree =
      Synthesiser(model).synthesise("Omission-brake_force_fl");
  return tree;
}
void BM_AnalyseBbwCutsets(benchmark::State& state) {
  AnalysisOptions options;
  options.cut_sets.engine = CutSetEngine::kZbdd;
  std::size_t sets = 0;
  for (auto _ : state) {
    ReliabilitySummary reliability =
        analyse_listing(bbw_tree(), options, &sets);
    benchmark::DoNotOptimize(reliability.p_exact);
  }
  state.SetLabel("bbw_clean_run");
}
void BM_AnalyseBbwDiagram(benchmark::State& state) {
  AnalysisOptions options;
  options.cut_sets.engine = CutSetEngine::kZbdd;
  for (auto _ : state) {
    TreeAnalysis analysis = analyse_tree(bbw_tree(), options);
    benchmark::DoNotOptimize(analysis.p_exact);
  }
  state.SetLabel("bbw_clean_run");
}
BENCHMARK(BM_AnalyseBbwCutsets)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_AnalyseBbwDiagram)->Unit(benchmark::kMillisecond);

/// Birnbaum kernel scaling: channels * stages basic events, one BDD. The
/// per-variable loop restricts and re-evaluates twice per event; the
/// sweep does one up pass and one down pass for all of them. The fixture
/// owns model and tree: the encoding's event pointers point into them.
struct BirnbaumFixture {
  Model model;
  FaultTree tree;
  BddEncoding encoding;

  explicit BirnbaumFixture(int channels)
      : model([channels] {
          synthetic::ReplicatedConfig config;
          config.channels = channels;
          config.stages = 6;
          return synthetic::build_replicated(config);
        }()),
        tree(Synthesiser(model).synthesise("Omission-sink")),
        encoding(encode_bdd(tree)) {}
};

BddEncoding& replicated_encoding(int channels) {
  static std::map<int, std::unique_ptr<BirnbaumFixture>> fixtures;
  std::unique_ptr<BirnbaumFixture>& slot = fixtures[channels];
  if (!slot) slot = std::make_unique<BirnbaumFixture>(channels);
  return slot->encoding;
}

void BM_BirnbaumPerVar(benchmark::State& state) {
  BddEncoding& encoding =
      replicated_encoding(static_cast<int>(state.range(0)));
  ProbabilityOptions options;
  options.mission_time_hours = 1000.0;
  const std::vector<double> probabilities = encoding.probabilities(options);
  double sum = 0.0;
  for (auto _ : state) {
    sum = 0.0;
    for (std::size_t v = 0; v < encoding.events.size(); ++v)
      sum += bdd_birnbaum(encoding.bdd, encoding.root, probabilities,
                          static_cast<int>(v));
  }
  state.counters["events"] = static_cast<double>(encoding.events.size());
  state.counters["bm_sum"] = sum;
}
BENCHMARK(BM_BirnbaumPerVar)->Arg(3)->Arg(6)->Arg(12)
    ->Unit(benchmark::kMicrosecond);

void BM_BirnbaumSweep(benchmark::State& state) {
  BddEncoding& encoding =
      replicated_encoding(static_cast<int>(state.range(0)));
  ProbabilityOptions options;
  options.mission_time_hours = 1000.0;
  const std::vector<double> probabilities = encoding.probabilities(options);
  double sum = 0.0;
  for (auto _ : state) {
    BddProbabilityEngine engine(encoding.bdd, probabilities);
    std::vector<double> birnbaum = engine.birnbaum_all(encoding.root);
    sum = 0.0;
    for (double bm : birnbaum) sum += bm;
    benchmark::DoNotOptimize(birnbaum.data());
  }
  state.counters["events"] = static_cast<double>(encoding.events.size());
  state.counters["bm_sum"] = sum;
}
BENCHMARK(BM_BirnbaumSweep)->Arg(3)->Arg(6)->Arg(12)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
