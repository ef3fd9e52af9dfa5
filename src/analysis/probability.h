// Quantitative evaluation -- the "reliability evaluation purposes" the
// paper delegates to Fault Tree Plus (sections 2 and 3).
//
// Basic events carry failure rates lambda (f/h) from the hazard analysis;
// for a mission time t the event probability is the standard exponential
// unavailability 1 - exp(-lambda * t). Top-event probability is offered at
// three fidelities from cut sets -- rare-event upper bound, Esary-Proschan
// bound, truncated inclusion-exclusion -- and exactly via a BDD encoding of
// the whole tree.

#pragma once

#include <vector>

#include "analysis/cutsets.h"
#include "bdd/bdd.h"
#include "core/budget.h"
#include "fta/fault_tree.h"

namespace ftsynth {

struct ProbabilityOptions {
  /// Mission / exposure time in hours.
  double mission_time_hours = 1.0;
  /// Probability assigned to unquantified leaves (rate 0 basic events,
  /// environment deviations, undeveloped and loop events).
  double default_event_probability = 0.0;
  /// Wall-clock guard for inclusion_exclusion: when the deadline expires
  /// the expansion stops after the current intersection order and the
  /// partial alternating sum is returned (report->deadline_exceeded set).
  Budget budget{};
};

/// Probability of one leaf event under `options`. House events are 1.
double event_probability(const FtNode& event, const ProbabilityOptions& options);

/// Probability of one cut set: product over its literals (negated literals
/// contribute 1 - p).
double cut_set_probability(CutSet cut_set, const ProbabilityOptions& options);

/// cut_set_probability of every cut set of `analysis`, in listing order.
/// Each distinct event's probability is computed once.
std::vector<double> cut_set_probabilities(const CutSetAnalysis& analysis,
                                          const ProbabilityOptions& options);

/// Sum of cut-set probabilities. Upper bound; accurate when all cut sets
/// are rare. Every bound below takes the cut_set_probabilities of an
/// analysis, so one pass over the family feeds them all.
double rare_event_bound(const std::vector<double>& set_probabilities);

/// 1 - prod(1 - P(cs)). Exact for independent cut sets; an upper bound for
/// coherent trees with shared events (Esary-Proschan).
double esary_proschan_bound(const std::vector<double>& set_probabilities);

/// The minimal-cut-set upper bound (MCUB): the same product bound as
/// Esary-Proschan, evaluated in log space as -expm1(sum log1p(-P(cs))).
/// Agrees with esary_proschan_bound to rounding, but keeps full relative
/// precision when every set probability is tiny -- the naive product
/// rounds each factor 1 - P(cs) to 1 and collapses to 0 long before the
/// sum of masses does. Reported as its own figure so the reader can see
/// when the two evaluations of the bound part ways.
double mcub_bound(const std::vector<double>& set_probabilities);

/// Inclusion-exclusion over cut-set unions, truncated after `max_terms`
/// intersection orders (exact when max_terms >= number of cut sets).
/// Intersections account for shared events correctly. When
/// `options.budget` carries a deadline the expansion is cut short on
/// expiry; pass `report` to learn whether that (or the `max_terms`
/// truncation) happened.
double inclusion_exclusion(const CutSetAnalysis& analysis,
                           const ProbabilityOptions& options,
                           std::size_t max_terms = 8,
                           BudgetReport* report = nullptr);

/// A fault tree encoded into a BDD: one variable per distinct leaf, in
/// `events` order (variable i <-> events[i]).
struct BddEncoding {
  Bdd bdd;
  Bdd::Ref root = Bdd::kFalse;
  std::vector<const FtNode*> events;

  /// Per-variable probabilities under `options`.
  std::vector<double> probabilities(const ProbabilityOptions& options) const;
};

/// Encodes `tree` (any shape; normalisation is not required).
BddEncoding encode_bdd(const FaultTree& tree);

/// Exact top-event probability via the BDD encoding.
double exact_probability(const FaultTree& tree,
                         const ProbabilityOptions& options);

}  // namespace ftsynth
