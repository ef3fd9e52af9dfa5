// Heap allocation counter shared by the benchmarks that report an exact
// `allocs` counter (bench_synthesis, bench_cutsets, bench_reliability).
//
// alloc_counter.cpp replaces the global operator new (and its matching
// deletes) with malloc/free plus a counter, so a benchmark can report how
// many heap allocations one iteration makes. Unlike a time, the count is
// the same on every run and does not move with machine load (only with
// the standard library), which makes it a noise-free regression guard.
// Link the file into a benchmark binary to use it.

#pragma once

#include <benchmark/benchmark.h>

#include <cstddef>

/// Heap allocations made by this process so far.
std::size_t allocations_so_far();

/// Reports `made` heap allocations, counted inside the loop body only (the
/// harness's own bookkeeping stays out), as the per-iteration "allocs"
/// counter.
void report_allocations(benchmark::State& state, std::size_t made);
