// Fault tree normalisation.
//
// Synthesised trees are already compact (constant-folded, deduplicated,
// single-child-free), but cut-set analysis wants a stricter shape. normalise
// rebuilds a tree so that:
//
//   * NOT gates are pushed down to the leaves (negation normal form) via
//     De Morgan's laws, so every remaining gate is AND/OR and negation only
//     ever wraps a single leaf event;
//   * nested gates of the same kind are flattened (OR of OR -> one OR);
//   * duplicate children are removed;
//   * house events are folded away (true absorbs OR, disappears from AND).
//
// Sharing (the DAG property) is preserved: each (node, polarity) pair is
// rebuilt once.

#pragma once

#include "fta/fault_tree.h"

namespace ftsynth {

/// Returns a normalised copy of `tree` (see above). The input is not
/// modified. Leaf names, rates and descriptions are preserved.
FaultTree normalise(const FaultTree& tree);

/// True if no NOT gate in `tree` has a non-leaf child and no gate nests a
/// gate of the same kind (the shape normalise() guarantees).
bool is_normalised(const FaultTree& tree);

/// Structural hash-consing: rebuilds `tree` so that structurally identical
/// subtrees (same gate kind, same children, order-insensitive) become one
/// shared node. Unlike normalise() the gate structure is preserved --
/// nothing is flattened or re-polarised -- so the rendered tree keeps its
/// shape while duplicate expansions (e.g. from loop-cut re-resolution)
/// collapse. Gate descriptions of merged nodes keep the first copy's text.
FaultTree deduplicate(const FaultTree& tree);

}  // namespace ftsynth
