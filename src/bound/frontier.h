// Best-first anytime enumeration of cut sets with certified probability
// bounds -- the core of `--engine bound`.
//
// The enumerator maintains a priority queue of *partial products*: a set
// of chosen literals plus a set of still-open (disjunction) gates, ordered
// by a certified upper bound on the probability mass reachable through the
// item (bound/pdag.h supplies the per-gate bounds). Draining the queue
// most-probable-first yields complete products -- cut sets -- in roughly
// descending probability, and two running numbers that bracket the exact
// top-event probability at every step:
//
//   lower  = P(union of emitted cut sets), computed exactly by
//            incremental disjoint-product expansion (SDP): each admitted
//            set contributes the measure of the region it adds beyond the
//            sets before it. Monotone non-decreasing.
//   upper  = lower + (residual mass of the open frontier)
//                  + (raw mass of sets whose SDP expansion was deferred)
//                  + (mass dropped by order/expansion limits).
//            Each term over-approximates the probability the enumeration
//            has not yet accounted for exactly, so the smallest upper
//            bound seen so far is kept (the sum itself may transiently
//            rise when an expansion splits an item into looser children).
//
// The run terminates on convergence (interval width <= epsilon), Budget
// expiry (deadline or expansion cap), listing limits, or exhaustion; an
// exhausted run has emitted every minimal cut set and, absent deferrals,
// lower == upper == the exact probability.
//
// The drain is round-synchronised: each round selects the globally best
// fixed-size batch of items from a constant number of content shards,
// expands the batch, then merges children and emitted products in batch
// order. The shard count and the round width decide which items an
// anytime run expands before it stops, so they decide its output.

#pragma once

#include <cstddef>
#include <vector>

#include "bound/pdag.h"
#include "core/budget.h"

namespace ftsynth::bound {

struct BoundLimits {
  /// Stop once upper - lower <= epsilon. Negative: never stop early (run
  /// to exhaustion or Budget expiry); the converged flag then reports
  /// whether the final width is exactly zero.
  double epsilon = 1e-6;
  /// Items that grow beyond this many literals are dropped from the
  /// frontier; their mass stays in the upper bound and the run is flagged
  /// truncated (mirrors CutSetOptions::max_order).
  std::size_t max_order = 64;
  /// Emission cap (mirrors CutSetOptions::max_sets).
  std::size_t max_sets = std::size_t{1} << 20;
  /// Total expansion cap; 0 = unlimited (from Budget::max_nodes).
  std::size_t max_expansions = 0;
  Budget budget;
};

struct BoundStats {
  std::size_t rounds = 0;
  std::size_t expansions = 0;   ///< items popped and resolved
  std::size_t emitted = 0;      ///< complete products admitted
  std::size_t peak_frontier = 0;
  std::size_t subsumed = 0;     ///< items/products pruned against emitted sets
  std::size_t deferred = 0;     ///< emitted sets outside the SDP lower bound
};

struct BoundOutcome {
  /// Emitted products as sorted literal-id lists (pdag.h convention).
  /// Guaranteed free of exact duplicates and of supersets of *earlier*
  /// emissions; a final minimisation pass still applies (a later, smaller
  /// set may subsume an earlier one).
  std::vector<std::vector<int>> products;
  double p_lower = 0.0;
  double p_upper = 1.0;
  bool converged = false;
  bool exhausted = false;           ///< frontier fully drained
  bool truncated = false;           ///< an order/sets/expansion limit bit
  bool deadline_exceeded = false;
  BoundStats stats;
};

BoundOutcome drain_frontier(const Pdag& pdag, const BoundLimits& limits);

}  // namespace ftsynth::bound
