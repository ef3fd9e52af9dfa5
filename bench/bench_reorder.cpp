// Dynamic variable reordering (ISSUE 5): static DFS-occurrence order vs
// Rudell sifting on the committed adversarial fixtures and the BBW case
// study. The headline counters are the ZBDD node counts the ReorderReport
// publishes -- BENCH_reorder.json is the acceptance evidence that sifting
// shrinks the adversarial root diagram by >= 2x (measured: ~100x+) while
// the analysis output stays byte-identical.

#include <benchmark/benchmark.h>

#include <string>

#include "analysis/cutsets.h"
#include "bdd/zbdd.h"
#include "casestudy/setta.h"
#include "casestudy/synthetic.h"
#include "fta/synthesis.h"

namespace {

using namespace ftsynth;

void report(benchmark::State& state, const CutSetAnalysis& analysis) {
  state.counters["cut_sets"] =
      static_cast<double>(analysis.cut_sets.size());
  if (!analysis.reorder) return;
  state.counters["root_nodes"] =
      static_cast<double>(analysis.reorder->root_nodes);
  state.counters["live_nodes"] =
      static_cast<double>(analysis.reorder->nodes_after);
  state.counters["swaps"] = static_cast<double>(analysis.reorder->swaps);
  state.counters["passes"] = static_cast<double>(analysis.reorder->passes);
}

OrderPolicy policy_of(const benchmark::State& state) {
  return state.range(0) == 1 ? OrderPolicy::kSift : OrderPolicy::kStatic;
}

void set_policy_label(benchmark::State& state, const std::string& fixture) {
  state.SetLabel(fixture + "/" + to_string(policy_of(state)));
}

/// The committed examples/adversarial_product.mdl shape (n = 12 pairs):
/// 2^12 transversal cut sets, exponential static diagram, linear sifted.
void BM_AdversarialProduct(benchmark::State& state) {
  static Model model = synthetic::build_adversarial_product(12);
  set_policy_label(state, "adversarial_product_n12");
  Synthesiser synthesiser(model);
  FaultTree tree = synthesiser.synthesise("Omission-sink");
  CutSetOptions options;
  options.engine = CutSetEngine::kZbdd;
  options.order = policy_of(state);
  CutSetAnalysis analysis;
  for (auto _ : state) {
    analysis = compute_cut_sets(tree, options);
    benchmark::DoNotOptimize(&analysis);
  }
  report(state, analysis);
}
BENCHMARK(BM_AdversarialProduct)->DenseRange(0, 1, 1)
    ->Unit(benchmark::kMillisecond);

/// The committed examples/adversarial_voters.mdl shape (6 x 2oo3 stages):
/// 3^6 cut sets, role-grouped static order vs per-stage interleaving.
void BM_AdversarialVoters(benchmark::State& state) {
  static Model model = synthetic::build_adversarial_voters(6);
  set_policy_label(state, "adversarial_voters_k6");
  Synthesiser synthesiser(model);
  FaultTree tree = synthesiser.synthesise("Omission-sink");
  CutSetOptions options;
  options.engine = CutSetEngine::kZbdd;
  options.order = policy_of(state);
  CutSetAnalysis analysis;
  for (auto _ : state) {
    analysis = compute_cut_sets(tree, options);
    benchmark::DoNotOptimize(&analysis);
  }
  report(state, analysis);
}
BENCHMARK(BM_AdversarialVoters)->DenseRange(0, 1, 1)
    ->Unit(benchmark::kMillisecond);

/// A well-ordered real model: the reordering overhead floor. Sifting should
/// cost little and change little on the BBW braking tree.
void BM_BbwTotalBraking(benchmark::State& state) {
  static Model model = setta::build_bbw();
  set_policy_label(state, "bbw_total_braking");
  Synthesiser synthesiser(model);
  FaultTree tree = synthesiser.synthesise("Omission-brake_force_fl");
  CutSetOptions options;
  options.engine = CutSetEngine::kZbdd;
  options.order = policy_of(state);
  CutSetAnalysis analysis;
  for (auto _ : state) {
    analysis = compute_cut_sets(tree, options);
    benchmark::DoNotOptimize(&analysis);
  }
  report(state, analysis);
}
BENCHMARK(BM_BbwTotalBraking)->DenseRange(0, 1, 1)
    ->Unit(benchmark::kMillisecond);

/// The manager-level primitive in isolation: sifting the grouped
/// transversal family built directly in a Zbdd (no synthesis, no engine).
void BM_SiftGroupedFamily(benchmark::State& state) {
  const int pairs = static_cast<int>(state.range(0));
  std::size_t before = 0;
  std::size_t after = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Zbdd zbdd;
    for (int i = 0; i < 2 * pairs; ++i) zbdd.new_var();
    Zbdd::Ref family = Zbdd::kBase;
    for (int i = 0; i < pairs; ++i)
      family = zbdd.product(
          family, zbdd.set_union(zbdd.single(i), zbdd.single(pairs + i)));
    before = zbdd.node_count(family);
    state.ResumeTiming();
    SiftStats stats = zbdd.sift({family});
    benchmark::DoNotOptimize(&stats);
    after = zbdd.node_count(family);
  }
  state.SetLabel("grouped_product_n" + std::to_string(pairs));
  state.counters["nodes_static"] = static_cast<double>(before);
  state.counters["nodes_sifted"] = static_cast<double>(after);
}
BENCHMARK(BM_SiftGroupedFamily)->Arg(8)->Arg(10)->Arg(12)
    ->Unit(benchmark::kMillisecond);

}  // namespace
