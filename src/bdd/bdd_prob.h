// Exact probability of a BDD-encoded boolean function under independent
// per-variable probabilities. Because every variable occurs at most once on
// any root-to-terminal path of an ROBDD, Shannon expansion gives the exact
// probability in one linear pass:
//
//   P(node v) = p_v * P(high) + (1 - p_v) * P(low)
//
// BddProbabilityEngine is the batched form: one probability memo shared
// across every query of an analysis (probability, conditionals, Birnbaum),
// plus the O(N) all-variables Birnbaum sweep that replaces the per-variable
// conditional loop (O(V*N) -> O(N)).

#pragma once

#include <cstdint>
#include <vector>

#include "bdd/bdd.h"

namespace ftsynth {

/// Exact P[f = true] with P[var i = true] = probabilities[i].
/// `probabilities` must cover every variable appearing in `f`.
double bdd_probability(const Bdd& bdd, Bdd::Ref f,
                       const std::vector<double>& probabilities);

/// Birnbaum importance of variable `v`: P[f | v=1] - P[f | v=0], computed
/// exactly on the BDD.
double bdd_birnbaum(const Bdd& bdd, Bdd::Ref f,
                    const std::vector<double>& probabilities, int v);

/// Exact P[f | v = value] (conditional probability with the variable
/// pinned).
double bdd_probability_given(const Bdd& bdd, Bdd::Ref f,
                             const std::vector<double>& probabilities, int v,
                             bool value);

/// Batches probability queries over one BDD under one fixed probability
/// vector, sharing a single probability memo across every call -- N
/// importance queries reuse each other's subresults instead of recomputing
/// the full bottom-up pass per variable. Nothing here builds a node: the
/// conditionals are evaluated on the diagram as it stands.
///
/// The memos are arrays indexed by Ref, grown to the manager's size on
/// each query. A Bdd never rewrites or reclaims a node, so an entry stays
/// valid for the engine's lifetime even when the caller builds more nodes
/// between queries.
class BddProbabilityEngine {
 public:
  /// `probabilities` must cover every variable appearing in any queried
  /// function; it is copied (queries must see a stable vector).
  BddProbabilityEngine(const Bdd& bdd, std::vector<double> probabilities);

  /// Exact P[f = true]; memoised across all queries on this engine.
  double probability(Bdd::Ref f);

  /// Exact P[f | v = value]. The conditional memo is per-call (it is
  /// order-dependent) and reset by a generation stamp; the probability
  /// memo is shared.
  double probability_given(Bdd::Ref f, int v, bool value);

  /// Birnbaum importance of `v`: P[f | v=1] - P[f | v=0]. Both conditional
  /// evaluations share the engine's probability memo.
  double birnbaum(Bdd::Ref f, int v);

  /// Birnbaum importance of EVERY variable in one combined pass: an upward
  /// sweep computing P[node] for each reachable node and a downward sweep
  /// computing each node's reachability weight R[node] (the probability
  /// that the path from the root reaches it), then
  ///
  ///   BM(v) = sum over nodes n labelled v of R[n] * (P[high] - P[low])
  ///
  /// -- exact, equal to the conditional definition, and O(N) total
  /// instead of O(V*N). The returned vector is indexed by variable and
  /// sized like the probability vector; variables not in `f` get 0.
  /// Traversal and summation order are structure-determined (postorder,
  /// low child first), so results are bit-identical across runs
  /// regardless of Ref numbering.
  std::vector<double> birnbaum_all(Bdd::Ref f);

  const std::vector<double>& probabilities() const noexcept {
    return probabilities_;
  }

 private:
  /// One memo entry: `value` is current when `stamp` matches the memo's.
  struct Slot {
    double value = 0.0;
    std::uint32_t stamp = 0;
  };

  double probability_rec(Bdd::Ref f);
  double conditional_rec(Bdd::Ref f, int v, int v_level, bool value);
  /// Grows both memos to cover every Ref the manager has allocated.
  void fit();

  const Bdd& bdd_;
  std::vector<double> probabilities_;
  std::vector<Slot> memo_;         ///< P[f]; stamp 1 = known
  std::vector<Slot> conditional_;  ///< P[f | v = value] of the current call
  std::uint32_t generation_ = 0;   ///< conditional_'s current stamp
};

}  // namespace ftsynth
