// Experiment E5 (paper section 4, aim 2): synthesis scalability -- "the
// tool can operate on a complex Simulink model and synthesise a large
// fault tree" -- plus the DESIGN.md ablation of decision 1 (memoisation).
//
// Expected shape: near-linear synthesis time in model size (chain, deep,
// grid) because traversal targets are memoised; exponential blow-up when
// memoisation is disabled on the diamond ladder.

#include <benchmark/benchmark.h>

#include "alloc_counter.h"
#include "casestudy/setta.h"
#include "failure/expr_parser.h"
#include "casestudy/synthetic.h"
#include "fta/synthesis.h"

// The `allocs` counters come from alloc_counter.cpp, which replaces the
// global operator new in this binary.

namespace {

using namespace ftsynth;

void BM_SynthesiseChain(benchmark::State& state) {
  Model model = synthetic::build_chain(static_cast<int>(state.range(0)));
  Synthesiser synthesiser(model);
  std::size_t nodes = 0;
  for (auto _ : state) {
    FaultTree tree = synthesiser.synthesise("Omission-sink");
    nodes = tree.stats().node_count;
    benchmark::DoNotOptimize(tree.top());
  }
  state.counters["blocks"] = static_cast<double>(model.block_count());
  state.counters["tree_nodes"] = static_cast<double>(nodes);
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SynthesiseChain)->RangeMultiplier(4)->Range(16, 4096)
    ->Complexity(benchmark::oN);

void BM_SynthesiseDeepHierarchy(benchmark::State& state) {
  Model model = synthetic::build_deep(static_cast<int>(state.range(0)), 4);
  Synthesiser synthesiser(model);
  std::size_t nodes = 0;
  for (auto _ : state) {
    FaultTree tree = synthesiser.synthesise("Omission-out");
    nodes = tree.stats().node_count;
    benchmark::DoNotOptimize(tree.top());
  }
  state.counters["blocks"] = static_cast<double>(model.block_count());
  state.counters["tree_nodes"] = static_cast<double>(nodes);
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SynthesiseDeepHierarchy)->RangeMultiplier(2)->Range(4, 256)
    ->Complexity(benchmark::oN);

// -- Ablation: memoisation on the diamond ladder --------------------------------

void BM_DiamondMemoised(benchmark::State& state) {
  Model model = synthetic::build_diamond(static_cast<int>(state.range(0)));
  Synthesiser synthesiser(model);
  std::size_t nodes = 0;
  for (auto _ : state) {
    FaultTree tree = synthesiser.synthesise("Omission-sink");
    nodes = tree.stats().node_count;
  }
  state.counters["tree_nodes"] = static_cast<double>(nodes);
}
BENCHMARK(BM_DiamondMemoised)->DenseRange(4, 20, 4);

void BM_DiamondUnmemoised(benchmark::State& state) {
  Model model = synthetic::build_diamond(static_cast<int>(state.range(0)));
  SynthesisOptions options;
  options.memoise = false;
  options.deduplicate = false;  // the raw ablation: a plain expanded tree
  Synthesiser synthesiser(model, options);
  std::size_t nodes = 0;
  for (auto _ : state) {
    FaultTree tree = synthesiser.synthesise("Omission-sink");
    nodes = tree.stats().node_count;
  }
  state.counters["tree_nodes"] = static_cast<double>(nodes);
}
// 2^20 nodes would thrash; stop at depth 16.
BENCHMARK(BM_DiamondUnmemoised)->DenseRange(4, 16, 4);

// -- The real demonstrator -------------------------------------------------------

void BM_SynthesiseBbwTopEvent(benchmark::State& state) {
  Model model = setta::build_bbw();
  Synthesiser synthesiser(model);
  const std::vector<std::string> tops = setta::bbw_top_events();
  const std::string& top = tops[static_cast<std::size_t>(state.range(0))];
  state.SetLabel(top);
  std::size_t nodes = 0;
  for (auto _ : state) {
    FaultTree tree = synthesiser.synthesise(top);
    nodes = tree.stats().node_count;
    benchmark::DoNotOptimize(tree.top());
  }
  state.counters["tree_nodes"] = static_cast<double>(nodes);
}
BENCHMARK(BM_SynthesiseBbwTopEvent)->DenseRange(0, 15, 5);

void BM_SynthesiseBbwAllTopEventsParallel(benchmark::State& state) {
  Model model = setta::build_bbw();
  std::vector<Deviation> tops;
  for (const std::string& top : setta::bbw_top_events())
    tops.push_back(parse_deviation(top, model.registry()));
  const int threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    std::vector<FaultTree> trees =
        synthesise_parallel(model, tops, {}, threads);
    benchmark::DoNotOptimize(trees.data());
  }
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["top_events"] = static_cast<double>(tops.size());
}
BENCHMARK(BM_SynthesiseBbwAllTopEventsParallel)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_SynthesiseBbwAllTopEvents(benchmark::State& state) {
  Model model = setta::build_bbw();
  Synthesiser synthesiser(model);
  const std::vector<std::string> tops = setta::bbw_top_events();
  std::size_t total_nodes = 0;
  // One untimed pass interns every name and fills the gate-name table
  // first, so each timed iteration makes the same allocations however few
  // of them run.
  for (const std::string& top : tops) synthesiser.synthesise(top);
  std::size_t allocations = 0;
  for (auto _ : state) {
    const std::size_t before = allocations_so_far();
    total_nodes = 0;
    for (const std::string& top : tops) {
      FaultTree tree = synthesiser.synthesise(top);
      total_nodes += tree.stats().node_count;
    }
    allocations += allocations_so_far() - before;
  }
  report_allocations(state, allocations);
  state.counters["top_events"] = static_cast<double>(tops.size());
  state.counters["total_tree_nodes"] = static_cast<double>(total_nodes);
}
BENCHMARK(BM_SynthesiseBbwAllTopEvents);

// The top-derivation probe of `ftsynth analyse` with no --top: every
// (boundary output x failure class) candidate is synthesised under
// UnannotatedPolicy::kPrune to decide which are derivable, exactly as
// resolve_tops (src/service/runner.cpp) does, serially.
void BM_ProbeBbwAllCandidates(benchmark::State& state) {
  Model model = setta::build_bbw();
  SynthesisOptions prune;
  prune.unannotated = SynthesisOptions::UnannotatedPolicy::kPrune;
  std::vector<Deviation> candidates;
  for (const Port* port : model.root().outputs()) {
    for (FailureClass cls : model.registry().all())
      candidates.push_back(Deviation{cls, port->name()});
  }
  std::size_t derivable = 0;
  std::size_t resolutions = 0;
  // Untimed warm-up, as in BM_SynthesiseBbwAllTopEvents.
  for (const Deviation& candidate : candidates)
    Synthesiser(model, prune).synthesise(candidate);
  std::size_t allocations = 0;
  for (auto _ : state) {
    const std::size_t before = allocations_so_far();
    derivable = 0;
    resolutions = 0;
    for (const Deviation& candidate : candidates) {
      Synthesiser probe(model, prune);
      if (probe.synthesise(candidate).top() != nullptr) ++derivable;
      resolutions += probe.stats().resolutions;
    }
    allocations += allocations_so_far() - before;
  }
  report_allocations(state, allocations);
  state.counters["candidates"] = static_cast<double>(candidates.size());
  state.counters["derivable"] = static_cast<double>(derivable);
  state.counters["resolutions"] = static_cast<double>(resolutions);
}
BENCHMARK(BM_ProbeBbwAllCandidates)->Unit(benchmark::kMillisecond);

}  // namespace
