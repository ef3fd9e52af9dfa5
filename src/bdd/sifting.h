// Rudell sifting: dynamic variable reordering for the decision diagrams.
//
// Both managers (bdd/bdd.h, bdd/zbdd.h) order their nodes by a per-variable
// level that the static depth-first-occurrence heuristic
// (analysis/ordering.h) seeds but never revisits. On adversarial structures
// -- interleaved voter chains, grouped replicated pairs -- that static order
// is exponentially bad, so the managers expose an adjacent-level swap
// primitive and this header drives it with the classic sifting schedule
// (Rudell, ICCAD'93): move each variable, heaviest level first, through
// every position of the order, remember the position where the live diagram
// was smallest, and park it there. One pass: each variable sifts once.
//
// The driver is a template over the manager because the schedule is
// identical for both diagram kinds; only the swap arithmetic differs (and
// lives with the managers). A manager must provide:
//
//   using Ref = ...;
//   int var_count() const;
//   int level_of(int var) const;
//   std::size_t level_width(int level) const;   // live nodes on the level
//   void swap_adjacent_levels(int level);
//   void collect_garbage(const std::vector<Ref>& roots);
//   std::size_t live_size(const std::vector<Ref>& roots) const;
//
// `roots` are every externally held reference (engine memo tables,
// accumulators, the contradiction family): swaps preserve each Ref's
// meaning in place, but garbage collection reclaims anything unreachable
// from the roots, so a forgotten root is a use-after-free.

#pragma once

#include <algorithm>
#include <cstddef>
#include <numeric>
#include <vector>

#include "core/budget.h"

namespace ftsynth {

struct SiftOptions {
  /// Abort a variable's journey in the current direction once the live
  /// diagram grows past best * (100 + max_growth_percent) / 100. The
  /// standard damper: a variable rarely recovers after swelling the table.
  int max_growth_percent = 20;
  /// Hard swap ceiling for the whole run (0 = unlimited). The effort knob
  /// for callers without a deadline.
  std::size_t max_swaps = 0;
  /// Deadline polled between swaps (not owned, may be null). Expiry stops
  /// the reorder at the next swap boundary -- every intermediate order is a
  /// valid order, so an interrupted sift degrades, never corrupts.
  Budget* budget = nullptr;
};

struct SiftStats {
  int passes = 0;
  std::size_t swaps = 0;
  std::size_t size_before = 0;  ///< live nodes before the first swap
  std::size_t size_after = 0;   ///< live nodes at the final order
  bool interrupted = false;     ///< budget / swap ceiling stopped the run

  void merge(const SiftStats& other) noexcept {
    if (passes == 0 && swaps == 0) size_before = other.size_before;
    passes += other.passes;
    swaps += other.swaps;
    size_after = other.size_after;
    interrupted = interrupted || other.interrupted;
  }
};

/// Runs Rudell sifting on `manager` and returns what it did. Deterministic:
/// the same diagram, roots and options always produce the same final order.
template <typename Manager>
SiftStats rudell_sift(Manager& manager,
                      const std::vector<typename Manager::Ref>& roots,
                      const SiftOptions& options) {
  SiftStats stats;
  manager.collect_garbage(roots);  // sizes below must mean LIVE nodes
  std::size_t current = manager.live_size(roots);
  stats.size_before = current;
  stats.size_after = current;
  const int levels = manager.var_count();
  if (levels < 2) return stats;

  auto exhausted = [&]() {
    if (options.max_swaps != 0 && stats.swaps >= options.max_swaps)
      return true;
    return options.budget != nullptr && options.budget->poll();
  };
  stats.passes = 1;
  // Heaviest variables first: parking the fattest level pays the most
  // and unlocks gains for everything sifted after it. Width-0 variables
  // (declared but absent from the live diagram) cannot change any size,
  // so they keep their positions.
  std::vector<std::size_t> width(static_cast<std::size_t>(levels), 0);
  std::vector<int> vars;
  vars.reserve(static_cast<std::size_t>(levels));
  for (int v = 0; v < levels; ++v) {
    width[static_cast<std::size_t>(v)] =
        manager.level_width(manager.level_of(v));
    if (width[static_cast<std::size_t>(v)] > 0) vars.push_back(v);
  }
  std::stable_sort(vars.begin(), vars.end(), [&](int a, int b) {
    return width[static_cast<std::size_t>(a)] >
           width[static_cast<std::size_t>(b)];
  });

  for (int v : vars) {
    if (exhausted()) {
      stats.interrupted = true;
      break;
    }
    int pos = manager.level_of(v);
    int best_pos = pos;
    std::size_t best = current;
    const std::size_t limit =
        best +
        best * static_cast<std::size_t>(options.max_growth_percent) / 100 +
        2;
    // One journey: nearer boundary first, then sweep across to the other
    // one, then settle on the best position seen.
    auto travel = [&](int target) {
      while (pos != target) {
        if (exhausted()) {
          stats.interrupted = true;
          return;
        }
        manager.swap_adjacent_levels(pos < target ? pos : pos - 1);
        ++stats.swaps;
        pos += pos < target ? 1 : -1;
        const std::size_t size = manager.live_size(roots);
        if (size < best) {
          best = size;
          best_pos = pos;
        }
        if (size > limit) return;  // growth damper: stop this direction
      }
    };
    if (pos <= levels - 1 - pos) {
      travel(0);
      if (!stats.interrupted) travel(levels - 1);
    } else {
      travel(levels - 1);
      if (!stats.interrupted) travel(0);
    }
    // Always park at the best position, even on interrupt: the journey
    // above may have left the variable somewhere worse.
    while (pos != best_pos) {
      manager.swap_adjacent_levels(pos < best_pos ? pos : pos - 1);
      ++stats.swaps;
      pos += pos < best_pos ? 1 : -1;
    }
    current = best;
    // Reclaim this journey's exploration nodes so the next journey's
    // swap loops do not drag dead levels around.
    manager.collect_garbage(roots);
    if (stats.interrupted) break;
  }
  stats.size_after = current;
  return stats;
}

}  // namespace ftsynth
