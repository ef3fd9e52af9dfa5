// Synthetic model generators.
//
// The paper claims "there are no restrictions imposed on the size of the
// model" (section 3) and aims to show the tool "can operate on a complex
// Simulink model and synthesise a large fault tree" (section 4, aim 2).
// These parametric generators produce models of controlled size and shape
// for the scalability benchmarks, the memoisation ablation and the
// property-based validation tests. All generators are deterministic for a
// given configuration.

#pragma once

#include "model/model.h"

namespace ftsynth::synthetic {

/// A linear pipeline: inport -> b1 -> ... -> bN -> outport. Each stage has
/// one malfunction and propagates Omission/Value from its input. Synthesis
/// cost must grow linearly in `length`.
Model build_chain(int length);

/// Nested subsystems `depth` deep, each wrapping a `width`-stage chain.
/// Exercises boundary crossing; synthesis cost linear in depth * width.
Model build_deep(int depth, int width = 2);

/// A diamond ladder: stage i reads the previous stage through BOTH of its
/// two inputs. With memoisation the tree is a linear DAG; without it the
/// expansion doubles per stage (2^depth) -- the ablation of DESIGN.md
/// decision 1.
Model build_diamond(int depth);

/// `channels` replicated lanes processing one shared source, voted at the
/// end (omission needs every lane lost: an AND). The shared source and the
/// shared power block are the common causes the analysis must expose.
struct ReplicatedConfig {
  int channels = 3;
  int stages = 4;          ///< blocks per lane
  bool shared_power = true;
};
Model build_replicated(const ReplicatedConfig& config);

/// A random layered DAG of annotated basic blocks, for property testing
/// against forward simulation. Monotone annotations only (no NOT), fully
/// quantified malfunctions.
struct RandomModelConfig {
  unsigned seed = 1;
  int blocks = 10;
  int inports = 2;
  int max_fanin = 2;        ///< inputs per block (>= 1)
  bool with_loops = false;  ///< allow feedback edges
  double and_probability = 0.3;  ///< chance a cause term is a 2-atom AND
  double rate_min = 1e-4;   ///< malfunction rate band (f/h); high on
  double rate_max = 1e-2;   ///< purpose so Monte Carlo sees events
  /// Chance that a block's cause row is data-dependent (condition
  /// probability 0.5) -- exercises the conditional-row extension.
  double condition_chance = 0.0;
  /// Chance that a cause term is a 2-of-3 VOTE over random atoms.
  double vote_chance = 0.0;
};
Model build_random(const RandomModelConfig& config);

/// Adversarial-ORDER models: one block whose cause expression forces the
/// static DFS-occurrence variable order (analysis/ordering.h) into its
/// worst case for the decision-diagram engines, while a good order (the
/// interleaved one below) keeps the diagram linear. The minimal cut sets of
/// Omission-sink are the transversals of (a1+b1)(a2+b2)...(an+bn): 2^n sets
/// of size n. The cause leads with the absorbed spine a1 AND ... AND an so
/// depth-first occurrence GROUPS the order (all a's, then all b's --
/// exponential diagram) where the interleaved order a1 b1 a2 b2 ... is
/// linear.
Model build_adversarial_product(int pairs);

/// Same idea over `stages` 2-out-of-3 voter triples (x_i, y_i, z_i): the
/// minimal family is the product of per-stage pair families {x y, x z, y z}
/// -- 3^stages sets -- and the absorbed spine forces the role-grouped order
/// (all x's, all y's, all z's), which must remember every stage's choice at
/// once; the per-stage interleaving is linear.
Model build_adversarial_voters(int stages);

}  // namespace ftsynth::synthetic
