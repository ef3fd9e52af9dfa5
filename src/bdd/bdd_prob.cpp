#include "bdd/bdd_prob.h"

#include <algorithm>
#include <vector>

#include "core/error.h"

namespace ftsynth {

namespace {

constexpr std::uint32_t kUnvisited = UINT32_MAX;

// Reachable internal nodes of `f` in postorder (low subgraph first), with
// a Ref-indexed postorder position (kUnvisited off the diagram). Iterative
// so adversarially deep diagrams cannot overflow the stack; the visit
// order depends only on the diagram's structure, never on Ref numbering,
// which keeps downstream floating-point summation order deterministic
// across runs and cache states.
void postorder_nodes(const Bdd& bdd, Bdd::Ref f, std::vector<Bdd::Ref>* order,
                     std::vector<std::uint32_t>* index) {
  index->assign(bdd.size(), kUnvisited);
  if (bdd.is_terminal(f)) return;
  struct Frame {
    Bdd::Ref ref;
    int stage;  // 0 = visit low, 1 = visit high, 2 = emit
  };
  std::vector<Frame> stack;
  stack.push_back({f, 0});
  while (!stack.empty()) {
    Frame& frame = stack.back();
    if (frame.stage == 2) {
      if ((*index)[frame.ref] == kUnvisited) {
        (*index)[frame.ref] = static_cast<std::uint32_t>(order->size());
        order->push_back(frame.ref);
      }
      stack.pop_back();
      continue;
    }
    const Bdd::Node& n = bdd.node(frame.ref);
    const Bdd::Ref child = frame.stage == 0 ? n.low : n.high;
    ++frame.stage;
    if (!bdd.is_terminal(child) && (*index)[child] == kUnvisited) {
      // Defer duplicates to the emit stage (a child pushed twice before
      // its first emit collapses there).
      stack.push_back({child, 0});
    }
  }
}

}  // namespace

double bdd_probability(const Bdd& bdd, Bdd::Ref f,
                       const std::vector<double>& probabilities) {
  BddProbabilityEngine engine(bdd, probabilities);
  return engine.probability(f);
}

double bdd_birnbaum(const Bdd& bdd, Bdd::Ref f,
                    const std::vector<double>& probabilities, int v) {
  BddProbabilityEngine engine(bdd, probabilities);
  return engine.birnbaum(f, v);
}

double bdd_probability_given(const Bdd& bdd, Bdd::Ref f,
                             const std::vector<double>& probabilities, int v,
                             bool value) {
  BddProbabilityEngine engine(bdd, probabilities);
  return engine.probability_given(f, v, value);
}

BddProbabilityEngine::BddProbabilityEngine(const Bdd& bdd,
                                           std::vector<double> probabilities)
    : bdd_(bdd), probabilities_(std::move(probabilities)) {}

void BddProbabilityEngine::fit() {
  if (memo_.size() < bdd_.size()) {
    memo_.resize(bdd_.size());
    conditional_.resize(bdd_.size());
  }
}

double BddProbabilityEngine::probability_rec(Bdd::Ref f) {
  if (bdd_.is_false(f)) return 0.0;
  if (bdd_.is_true(f)) return 1.0;
  if (memo_[f].stamp != 0) return memo_[f].value;
  const Bdd::Node& n = bdd_.node(f);
  check_internal(static_cast<std::size_t>(n.var) < probabilities_.size(),
                 "probability vector too short for BDD");
  const double p = probabilities_[static_cast<std::size_t>(n.var)];
  const double result =
      p * probability_rec(n.high) + (1.0 - p) * probability_rec(n.low);
  memo_[f] = {result, 1};
  return result;
}

// P(f | v = value), evaluated directly on the original diagram: at a
// v-node only the forced branch contributes (and without v's probability
// factor); at every other node the Shannon expansion proceeds as usual.
// No cofactor diagram is ever built. Nodes strictly below v's level cannot
// contain v (ordered diagram), so their values come from -- and land in --
// the unconditional memo; only the v-dependent region above needs the
// per-call conditional memo.
double BddProbabilityEngine::conditional_rec(Bdd::Ref f, int v, int v_level,
                                             bool value) {
  if (bdd_.is_false(f)) return 0.0;
  if (bdd_.is_true(f)) return 1.0;
  const Bdd::Node& n = bdd_.node(f);
  if (bdd_.level_of(n.var) > v_level) return probability_rec(f);
  if (n.var == v) return probability_rec(value ? n.high : n.low);
  if (conditional_[f].stamp == generation_) return conditional_[f].value;
  const double p = probabilities_[static_cast<std::size_t>(n.var)];
  const double result = p * conditional_rec(n.high, v, v_level, value) +
                        (1.0 - p) * conditional_rec(n.low, v, v_level, value);
  conditional_[f] = {result, generation_};
  return result;
}

double BddProbabilityEngine::probability(Bdd::Ref f) {
  fit();
  return probability_rec(f);
}

double BddProbabilityEngine::probability_given(Bdd::Ref f, int v, bool value) {
  fit();
  if (++generation_ == 0) {  // the stamp wrapped: forget every entry
    std::fill(conditional_.begin(), conditional_.end(), Slot{});
    generation_ = 1;
  }
  return conditional_rec(f, v, bdd_.level_of(v), value);
}

double BddProbabilityEngine::birnbaum(Bdd::Ref f, int v) {
  // Both conditional evaluations run against the shared probability memo:
  // the two pinned regions overlap heavily with f and with each other, so
  // the second evaluation is mostly memo hits.
  return probability_given(f, v, true) - probability_given(f, v, false);
}

std::vector<double> BddProbabilityEngine::birnbaum_all(Bdd::Ref f) {
  std::vector<double> result(probabilities_.size(), 0.0);
  if (bdd_.is_terminal(f)) return result;

  std::vector<Bdd::Ref> order;
  std::vector<std::uint32_t> index;
  postorder_nodes(bdd_, f, &order, &index);

  // Upward sweep: node probabilities (fills the shared memo).
  probability(f);
  auto node_probability = [&](Bdd::Ref ref) -> double {
    if (bdd_.is_false(ref)) return 0.0;
    if (bdd_.is_true(ref)) return 1.0;
    return memo_[ref].value;
  };

  // Downward sweep in reverse postorder (a topological order: every
  // parent precedes both children), accumulating the probability that a
  // root-to-terminal walk reaches each node.
  std::vector<double> reach(order.size(), 0.0);
  reach[index[f]] = 1.0;
  for (std::size_t i = order.size(); i-- > 0;) {
    const Bdd::Node& n = bdd_.node(order[i]);
    check_internal(static_cast<std::size_t>(n.var) < probabilities_.size(),
                   "probability vector too short for BDD");
    const double p = probabilities_[static_cast<std::size_t>(n.var)];
    const double r = reach[i];
    if (!bdd_.is_terminal(n.low)) reach[index[n.low]] += (1.0 - p) * r;
    if (!bdd_.is_terminal(n.high)) reach[index[n.high]] += p * r;
    // Variables skipped between this node and its children marginalise to
    // a factor of 1, so level skipping needs no correction term.
    result[static_cast<std::size_t>(n.var)] +=
        r * (node_probability(n.high) - node_probability(n.low));
  }
  return result;
}

}  // namespace ftsynth
