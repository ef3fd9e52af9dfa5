// Reference copy of the map-memo probability kernels that
// BddProbabilityEngine replaced with Ref-indexed arrays. The engine must
// agree with it bit for bit (==, not a tolerance): both evaluate the same
// recursion in the same order, only the memo storage differs.

#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "bdd/bdd.h"
#include "bdd/bdd_prob.h"

namespace ftsynth::testing_reference {

class MapMemoProbability {
 public:
  MapMemoProbability(const Bdd& bdd, std::vector<double> probabilities)
      : bdd_(bdd), probabilities_(std::move(probabilities)) {}

  double probability(Bdd::Ref f) { return probability_rec(f, memo_); }

  double probability_given(Bdd::Ref f, int v, bool value) {
    std::unordered_map<Bdd::Ref, double> conditional_memo;
    return conditional_rec(f, v, value, conditional_memo);
  }

  std::vector<double> birnbaum_all(Bdd::Ref f) {
    std::vector<double> result(probabilities_.size(), 0.0);
    if (bdd_.is_terminal(f)) return result;
    std::vector<Bdd::Ref> order;
    std::unordered_map<Bdd::Ref, std::uint32_t> index;
    postorder_nodes(f, &order, &index);
    probability(f);
    auto node_probability = [&](Bdd::Ref ref) -> double {
      if (bdd_.is_false(ref)) return 0.0;
      if (bdd_.is_true(ref)) return 1.0;
      return memo_.at(ref);
    };
    std::vector<double> reach(order.size(), 0.0);
    reach[index.at(f)] = 1.0;
    for (std::size_t i = order.size(); i-- > 0;) {
      const Bdd::Node& n = bdd_.node(order[i]);
      const double p = probabilities_[static_cast<std::size_t>(n.var)];
      const double r = reach[i];
      if (!bdd_.is_terminal(n.low)) reach[index.at(n.low)] += (1.0 - p) * r;
      if (!bdd_.is_terminal(n.high)) reach[index.at(n.high)] += p * r;
      result[static_cast<std::size_t>(n.var)] +=
          r * (node_probability(n.high) - node_probability(n.low));
    }
    return result;
  }

 private:
  double probability_rec(Bdd::Ref f,
                         std::unordered_map<Bdd::Ref, double>& memo) {
    if (bdd_.is_false(f)) return 0.0;
    if (bdd_.is_true(f)) return 1.0;
    if (auto it = memo.find(f); it != memo.end()) return it->second;
    const Bdd::Node& n = bdd_.node(f);
    const double p = probabilities_[static_cast<std::size_t>(n.var)];
    const double result = p * probability_rec(n.high, memo) +
                          (1.0 - p) * probability_rec(n.low, memo);
    memo.emplace(f, result);
    return result;
  }

  double conditional_rec(Bdd::Ref f, int v, bool value,
                         std::unordered_map<Bdd::Ref, double>& memo) {
    if (bdd_.is_false(f)) return 0.0;
    if (bdd_.is_true(f)) return 1.0;
    const Bdd::Node& n = bdd_.node(f);
    if (bdd_.level_of(n.var) > bdd_.level_of(v))
      return probability_rec(f, memo_);
    if (n.var == v) return probability_rec(value ? n.high : n.low, memo_);
    if (auto it = memo.find(f); it != memo.end()) return it->second;
    const double p = probabilities_[static_cast<std::size_t>(n.var)];
    const double result = p * conditional_rec(n.high, v, value, memo) +
                          (1.0 - p) * conditional_rec(n.low, v, value, memo);
    memo.emplace(f, result);
    return result;
  }

  void postorder_nodes(Bdd::Ref f, std::vector<Bdd::Ref>* order,
                       std::unordered_map<Bdd::Ref, std::uint32_t>* index) {
    struct Frame {
      Bdd::Ref ref;
      int stage;
    };
    std::vector<Frame> stack{{f, 0}};
    while (!stack.empty()) {
      Frame& frame = stack.back();
      if (frame.stage == 2) {
        if (index->find(frame.ref) == index->end()) {
          index->emplace(frame.ref, static_cast<std::uint32_t>(order->size()));
          order->push_back(frame.ref);
        }
        stack.pop_back();
        continue;
      }
      const Bdd::Node& n = bdd_.node(frame.ref);
      const Bdd::Ref child = frame.stage == 0 ? n.low : n.high;
      ++frame.stage;
      if (!bdd_.is_terminal(child) && index->find(child) == index->end())
        stack.push_back({child, 0});
    }
  }

  const Bdd& bdd_;
  std::vector<double> probabilities_;
  std::unordered_map<Bdd::Ref, double> memo_;
};

/// Asserts (non-fatally) that `engine` reproduces the reference exactly on
/// `root`: P(root), P(root | v = b) for every variable and both values,
/// and the all-variables Birnbaum sweep.
inline void expect_matches_reference(BddProbabilityEngine& engine,
                                     const Bdd& bdd, Bdd::Ref root) {
  const std::vector<double>& probabilities = engine.probabilities();
  MapMemoProbability reference(bdd, probabilities);
  EXPECT_EQ(engine.probability(root), reference.probability(root));
  for (int v = 0; v < static_cast<int>(probabilities.size()); ++v) {
    for (bool value : {true, false}) {
      EXPECT_EQ(engine.probability_given(root, v, value),
                reference.probability_given(root, v, value))
          << "variable " << v << " = " << value;
    }
  }
  EXPECT_EQ(engine.birnbaum_all(root), reference.birnbaum_all(root));
}

}  // namespace ftsynth::testing_reference
