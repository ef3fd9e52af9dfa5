// Parallel scaling benchmarks for the thread-pooled analysis engine.
//
// Every stage below is run at 1/2/4/8 workers over the same inputs; the
// 1-worker case is the serial baseline (null pool), so the reported
// real-time ratios are the speedup curves of DESIGN.md's "Parallel
// execution model" section. --jobs parallelises across top events and
// Monte Carlo shards only (each tree is analysed on one thread), so these
// are batch-level curves. All parallel paths are deterministic -- the
// counters (probabilities, cut-set counts, MC estimates) must be
// bit-identical across the worker axis; a divergence is a correctness bug,
// not noise.
//
// UseRealTime everywhere: the work spreads across pool workers, so CPU
// time of the calling thread is meaningless as a progress measure.

#include <benchmark/benchmark.h>

#include <optional>

#include "analysis/batch.h"
#include "casestudy/setta.h"
#include "core/thread_pool.h"
#include "failure/expr_parser.h"
#include "fta/synthesis.h"
#include "sim/monte_carlo.h"

namespace {

using namespace ftsynth;

// workers == 1 runs the genuine serial path (null pool), not a 1-thread
// pool, so the baseline has zero synchronisation overhead.
ThreadPool* pool_for(std::int64_t workers, std::optional<ThreadPool>& owned) {
  if (workers <= 1) return nullptr;
  owned.emplace(static_cast<int>(workers));
  return &*owned;
}

std::vector<Deviation> bbw_tops(const Model& model) {
  std::vector<Deviation> tops;
  for (const std::string& top : setta::bbw_top_events())
    tops.push_back(parse_deviation(top, model.registry()));
  return tops;
}

// The full per-top-event pipeline (synthesis + cut sets + probability +
// importance) over all 16 BBW hazards, batched on the pool. This is the
// headline workload: the paper's evaluation loop, end to end.
void BM_BatchAnalyseBbw(benchmark::State& state) {
  static Model model = setta::build_bbw();
  static std::vector<Deviation> tops = bbw_tops(model);
  std::optional<ThreadPool> owned;
  ThreadPool* pool = pool_for(state.range(0), owned);
  BatchOptions options;
  options.analysis.probability.mission_time_hours = 1000.0;
  double p_total = 0.0;
  std::size_t cut_sets = 0;
  for (auto _ : state) {
    BatchResult result = analyse_batch(model, tops, options, pool);
    p_total = 0.0;
    cut_sets = 0;
    for (const BatchItem& item : result.items) {
      p_total += item.analysis->p_exact;
      cut_sets += item.analysis->cut_sets.cut_sets.size();
    }
    benchmark::DoNotOptimize(p_total);
  }
  state.counters["p_total_1000h"] = p_total;
  state.counters["cut_sets"] = static_cast<double>(cut_sets);
}
BENCHMARK(BM_BatchAnalyseBbw)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Synthesis only (no downstream analysis): the lightest per-item stage,
// so the least favourable parallel surface -- measures pool overhead.
void BM_SynthesiseParallelBbw(benchmark::State& state) {
  static Model model = setta::build_bbw();
  static std::vector<Deviation> tops = bbw_tops(model);
  std::optional<ThreadPool> owned;
  ThreadPool* pool = pool_for(state.range(0), owned);
  std::size_t nodes = 0;
  for (auto _ : state) {
    std::vector<FaultTree> trees =
        synthesise_parallel(model, tops, SynthesisOptions{}, pool);
    nodes = 0;
    for (const FaultTree& tree : trees) nodes += tree.stats().node_count;
    benchmark::DoNotOptimize(nodes);
  }
  state.counters["nodes"] = static_cast<double>(nodes);
}
BENCHMARK(BM_SynthesiseParallelBbw)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Sharded Monte Carlo: 64 counter-seeded RNG streams executed on the
// pool. The estimate is a function of (seed, shards, trials) only, so the
// "estimate" counter is constant across the worker axis by construction.
void BM_ShardedMonteCarloBbw(benchmark::State& state) {
  static Model model = setta::build_bbw();
  static const Deviation top{model.registry().omission(),
                             Symbol("brake_force_fl")};
  std::optional<ThreadPool> owned;
  ThreadPool* pool = pool_for(state.range(0), owned);
  MonteCarloOptions options;
  options.trials = 5000;
  options.shards = 64;
  options.probability.mission_time_hours = 1000.0;
  MonteCarloResult result;
  for (auto _ : state) {
    result = simulate_top_event(model, top, options, pool);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(options.trials));
  state.counters["estimate"] = result.estimate;
  state.counters["std_error"] = result.std_error;
}
BENCHMARK(BM_ShardedMonteCarloBbw)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
