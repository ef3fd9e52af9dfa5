// Experiment E5 (analysis side): cost of the downstream cut-set analysis
// that the paper delegates to Fault Tree Plus, comparing the bottom-up
// engine against the symbolic ZBDD engine and the exact BDD encoding on
// the same synthesized trees.
//
// Expected shape: the bottom-up engine with early absorption pays for
// every intermediate set as AND-combined replicated lanes are added, and
// the decision diagrams stay polynomial in the diagram size.
//
// Beside the {N, 4} lane series, the replicated benchmarks run the two
// extremes of the benchmark's cutset_heavy workload: {3, 58} (long lanes)
// and {5, 13} (the largest product). BM_BottomUpReplicated reports an exact
// `allocs` counter (heap allocations per analysis, alloc_counter.cpp). A
// working family is one word arena and the listing one literal arena, so
// the count follows the number of families and sorts, not the number of
// sets: a return to one heap block per working or listed set multiplies
// it on the large shapes.
//
// The file also A/B-tests the subsumption kernel itself: the interned
// word-array bitset representation against the sorted literal-vector
// representation it replaced (kept here as a local replica).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "alloc_counter.h"
#include "analysis/cutsets.h"
#include "analysis/probability.h"
#include "casestudy/setta.h"
#include "casestudy/synthetic.h"
#include "fta/synthesis.h"

namespace {

using namespace ftsynth;

FaultTree replicated_tree(int channels, int stages) {
  synthetic::ReplicatedConfig config;
  config.channels = channels;
  config.stages = stages;
  Model model = synthetic::build_replicated(config);
  SynthesisOptions options;
  options.environment = SynthesisOptions::EnvironmentPolicy::kPrune;
  // The returned tree is self-contained (leaf names and rates are copied),
  // so the model can die with this scope.
  return Synthesiser(model, options).synthesise("Omission-sink");
}

void BM_BottomUpReplicated(benchmark::State& state) {
  FaultTree tree = replicated_tree(static_cast<int>(state.range(0)),
                                   static_cast<int>(state.range(1)));
  std::size_t sets = 0;
  std::size_t peak = 0;
  std::size_t allocations = 0;
  for (auto _ : state) {
    const std::size_t before = allocations_so_far();
    CutSetAnalysis analysis = minimal_cut_sets(tree);
    allocations += allocations_so_far() - before;
    sets = analysis.cut_sets.size();
    peak = analysis.peak_sets;
  }
  report_allocations(state, allocations);
  state.counters["cut_sets"] = static_cast<double>(sets);
  state.counters["peak_sets"] = static_cast<double>(peak);
}
BENCHMARK(BM_BottomUpReplicated)
    ->Args({2, 4})->Args({3, 4})->Args({4, 4})->Args({5, 4})->Args({6, 4})
    ->Args({3, 58})->Args({5, 13});

void BM_ZbddReplicated(benchmark::State& state) {
  FaultTree tree = replicated_tree(static_cast<int>(state.range(0)),
                                   static_cast<int>(state.range(1)));
  std::size_t sets = 0;
  std::size_t peak = 0;
  for (auto _ : state) {
    CutSetAnalysis analysis = zbdd_cut_sets(tree);
    sets = analysis.cut_sets.size();
    peak = analysis.peak_sets;
  }
  state.counters["cut_sets"] = static_cast<double>(sets);
  state.counters["peak_nodes"] = static_cast<double>(peak);
}
BENCHMARK(BM_ZbddReplicated)
    ->Args({2, 4})->Args({3, 4})->Args({4, 4})->Args({5, 4})->Args({6, 4})
    ->Args({3, 58})->Args({5, 13});

void BM_BddEncodeReplicated(benchmark::State& state) {
  FaultTree tree = replicated_tree(static_cast<int>(state.range(0)),
                                   static_cast<int>(state.range(1)));
  std::size_t nodes = 0;
  for (auto _ : state) {
    BddEncoding encoding = encode_bdd(tree);
    nodes = encoding.bdd.node_count(encoding.root);
    benchmark::DoNotOptimize(encoding.root);
  }
  state.counters["bdd_nodes"] = static_cast<double>(nodes);
}
BENCHMARK(BM_BddEncodeReplicated)
    ->Args({2, 4})->Args({3, 4})->Args({4, 4})->Args({5, 4})->Args({6, 4});

// -- On the demonstrator's trees -------------------------------------------------

void BM_CutSetsBbw(benchmark::State& state) {
  static Model model = setta::build_bbw();
  Synthesiser synthesiser(model);
  const std::vector<std::string> tops = setta::bbw_top_events();
  const std::string& top = tops[static_cast<std::size_t>(state.range(0))];
  state.SetLabel(top);
  FaultTree tree = synthesiser.synthesise(top);
  std::size_t sets = 0;
  for (auto _ : state) {
    CutSetAnalysis analysis = minimal_cut_sets(tree);
    sets = analysis.cut_sets.size();
  }
  state.counters["cut_sets"] = static_cast<double>(sets);
}
// Index 12 is Omission-total_braking: the largest synthesized tree in the
// demonstrator (an AND over four replicated brake lanes), and the headline
// engine comparison against BM_ZbddBbw/12.
BENCHMARK(BM_CutSetsBbw)->DenseRange(0, 15, 5)->Arg(12);

void BM_ZbddBbw(benchmark::State& state) {
  static Model model = setta::build_bbw();
  Synthesiser synthesiser(model);
  const std::vector<std::string> tops = setta::bbw_top_events();
  const std::string& top = tops[static_cast<std::size_t>(state.range(0))];
  state.SetLabel(top);
  FaultTree tree = synthesiser.synthesise(top);
  std::size_t sets = 0;
  for (auto _ : state) {
    CutSetAnalysis analysis = zbdd_cut_sets(tree);
    sets = analysis.cut_sets.size();
  }
  state.counters["cut_sets"] = static_cast<double>(sets);
}
BENCHMARK(BM_ZbddBbw)->DenseRange(0, 15, 5)->Arg(12);

// -- Subsumption kernel A/B ------------------------------------------------------
//
// The minimisation workload isolated from any engine: N random sets of
// 3..7 literals. `Bitset` runs the production interned-bitset kernel
// (word loops + signature pre-filter + popcount bucketing + contiguous
// signature sidecar); `Vector` is a replica of the sorted literal-vector
// kernel it replaced (std::includes subset tests, signature pre-filter,
// full kept scan). Only plain-polarity (even) ids are drawn, so no set is
// dropped as contradictory and both kernels process identical families.
// Sizes start at 3 because single literals make minimisation trivial
// (every singleton absorbs all its supersets on sight): mid-order sets
// are what the voting-AND families look like, and they keep the
// quadratic subsumption scan -- the part being A/B-tested -- hot.

std::vector<std::vector<int>> random_literal_sets(std::size_t count,
                                                  int events) {
  std::mt19937 rng(20010623u);
  std::uniform_int_distribution<int> event(0, events - 1);
  std::uniform_int_distribution<int> size(3, 7);
  std::vector<std::vector<int>> sets(count);
  for (std::vector<int>& set : sets) {
    const int n = size(rng);
    for (int i = 0; i < n; ++i) set.push_back(2 * event(rng));
    std::sort(set.begin(), set.end());
    set.erase(std::unique(set.begin(), set.end()), set.end());
  }
  return sets;
}

/// The pre-bitset kernel: sorted literal vectors with a 64-bit signature.
std::vector<std::vector<int>> vector_minimise(
    std::vector<std::vector<int>> sets) {
  struct Entry {
    std::vector<int> literals;
    std::uint64_t signature = 0;
  };
  std::vector<Entry> work;
  work.reserve(sets.size());
  for (std::vector<int>& literals : sets) {
    Entry entry{std::move(literals), 0};
    for (int lit : entry.literals) entry.signature |= 1ULL << (lit % 64);
    work.push_back(std::move(entry));
  }
  std::sort(work.begin(), work.end(), [](const Entry& a, const Entry& b) {
    if (a.literals.size() != b.literals.size())
      return a.literals.size() < b.literals.size();
    return a.literals < b.literals;
  });
  std::vector<Entry> kept;
  for (Entry& candidate : work) {
    bool subsumed = false;
    for (const Entry& small : kept) {
      if ((small.signature & ~candidate.signature) != 0) continue;
      if (std::includes(candidate.literals.begin(), candidate.literals.end(),
                        small.literals.begin(), small.literals.end())) {
        subsumed = true;
        break;
      }
    }
    if (!subsumed) kept.push_back(std::move(candidate));
  }
  std::vector<std::vector<int>> out;
  out.reserve(kept.size());
  for (Entry& entry : kept) out.push_back(std::move(entry.literals));
  return out;
}

void BM_SubsumptionKernelBitset(benchmark::State& state) {
  const std::vector<std::vector<int>> sets =
      random_literal_sets(static_cast<std::size_t>(state.range(0)), 96);
  std::size_t kept = 0;
  for (auto _ : state) {
    kept = minimise_literal_sets(sets, 192).size();
  }
  state.counters["kept"] = static_cast<double>(kept);
}
BENCHMARK(BM_SubsumptionKernelBitset)->Arg(4000)->Arg(16000)->Arg(64000);

void BM_SubsumptionKernelVector(benchmark::State& state) {
  const std::vector<std::vector<int>> sets =
      random_literal_sets(static_cast<std::size_t>(state.range(0)), 96);
  std::size_t kept = 0;
  for (auto _ : state) {
    kept = vector_minimise(sets).size();
  }
  state.counters["kept"] = static_cast<double>(kept);
}
BENCHMARK(BM_SubsumptionKernelVector)->Arg(4000)->Arg(16000)->Arg(64000);

}  // namespace
