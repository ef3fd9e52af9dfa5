// Minimal cut sets.
//
// The paper hands synthesized trees to Fault Tree Plus for "cut-set
// analysis, for example" (section 2). This module provides that analysis
// natively, with three selectable engines (CutSetOptions::engine, CLI
// --engine):
//
//   * minimal_cut_sets -- bottom-up combination over the tree DAG
//     (MICSUP-style): each node's minimal cut sets are computed from its
//     children's, with absorption applied at every step. The default.
//   * zbdd_cut_sets -- symbolic: converts the tree DAG bottom-up into a
//     zero-suppressed BDD (src/bdd/zbdd.h) with per-node memoisation, so
//     shared subtrees convert once, keeps every intermediate family
//     minimal with Rauzy's minsol, and only enumerates the final minimal
//     family. Polynomial in the diagram size where bottom-up set
//     combination pays for every intermediate set.
//   * bound_cut_sets -- anytime: compiles the tree to a PDAG (src/bound/)
//     and drains a best-first frontier of partial products,
//     most-probable-first, maintaining certified lower/upper bounds on
//     the top-event probability (CutSetAnalysis::p_lower/p_upper). Stops
//     on convergence (CutSetOptions::bound_epsilon), Budget expiry or
//     exhaustion; exhausted runs return the exact family, byte-identical
//     to the exact engines. The engine for trees beyond exact reach: a
//     fixed budget always buys a guaranteed interval.
//
// micsup runs on an interned-bitset kernel, and zbdd and bound list their
// families through it: every (event, polarity) literal of the normalised
// tree is mapped once to the dense id 2 * rank + negated, and a cut set is
// a word-array bitset with a cached popcount and a 64-bit membership
// signature. A family of sets is one contiguous arena of fixed-width rows,
// the popcounts and signatures in parallel arrays, so it costs a few heap
// blocks however many sets it holds. A sort orders 16-byte (prefix key,
// index) pairs -- the key packs the popcount and the lowest literal ids --
// and then gathers the rows once. Subsumption is a `(a & ~b) == 0` word
// loop behind a signature pre-filter, and the minimisation pass buckets
// candidates by popcount so a candidate is only screened against strictly
// smaller survivors. micsup ranks events by name, so the kernel's working
// order is the canonical output order: minimised families are merged at
// OR gates, each operand screened only against the others, and listed as
// they are, with no re-sort. zbdd and bound keep
// their variable order (depth-first occurrence, analysis/ordering.h),
// because there a literal id is a diagram variable or PDAG literal; their
// listings are sorted once on integer name-rank keys.
//
// All engines return the same canonical result: cut sets sorted by
// (order, lexicographic event names). Negated literals (from NOT gates)
// are supported; a set containing x and NOT x is contradictory and dropped.
// Every call analyses its tree from scratch and keeps nothing afterwards,
// so the result is a function of the tree and the options alone.
//
// The listing is flat too: CutSetAnalysis::cut_sets is a CutSetList, one
// arena of literals plus the end offset of each set, filled once from the
// final family with its total literal count reserved up front. A CutSet
// is a std::span view into that arena, so it is valid while the analysis
// that lists it lives (and its listing is not reassigned); copy the
// literals out to keep a set longer.
//
// micsup and zbdd are two separate exact algorithms (set combination with
// absorption against Rauzy's minsol on a diagram), so the tests check
// each against the other on large trees; on small ones both are checked
// against a brute-force enumeration (tests/test_differential_fuzz.cpp).

#pragma once

#include <compare>
#include <cstddef>
#include <iterator>
#include <memory>
#include <optional>
#include <ranges>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "bdd/zbdd.h"
#include "core/budget.h"
#include "fta/fault_tree.h"

namespace ftsynth {

class ConeCache;
class ThreadPool;

/// Which algorithm computes the minimal cut sets (see header comment).
enum class CutSetEngine {
  kMicsup,  ///< bottom-up set combination (default)
  kZbdd,    ///< symbolic ZBDD engine
  kBound,   ///< anytime best-first engine with certified bounds
};

/// CLI and wire spelling: "micsup" | "zbdd" | "bound".
std::string to_string(CutSetEngine engine);

/// Parses a CLI/wire spelling; std::nullopt when unrecognised.
std::optional<CutSetEngine> parse_cut_set_engine(std::string_view text);

/// Ignored (diagrams are used whenever present); kept for perfbench/probe.cpp.
enum class ProbMode {
  kCutSets,
  kDiagram,
};

struct CutSetOptions {
  /// Engine selection; every engine honours the limits below and returns
  /// the same canonical cut sets on complete runs.
  CutSetEngine engine = CutSetEngine::kMicsup;
  /// Drop cut sets with more literals than this (truncation is reported).
  std::size_t max_order = 64;
  /// Abort growth beyond this many working sets (truncation is reported).
  std::size_t max_sets = 1u << 20;
  /// Wall-clock guard: when the budget's deadline expires mid-expansion the
  /// engine stops, returns the cut sets computed so far and flags the
  /// result `deadline_exceeded` (partial: cut sets may be missing, and the
  /// ones returned may be non-minimal).
  Budget budget{};
  /// Ignored: every engine analyses a tree on the calling thread, and
  /// --jobs parallelises across trees instead (DESIGN.md §12). Kept only
  /// because the benchmark probe still assigns it; the next change to the
  /// benchmark deletes the member together with that assignment.
  ThreadPool* pool = nullptr;
  /// Ignored; perfbench/probe.cpp names it; ROADMAP item 2 deletes it.
  ConeCache* cone_cache = nullptr;
  /// ZBDD engine only: retain the minimal-family diagram on the returned
  /// analysis (CutSetAnalysis::diagram) for diagram-native probability and
  /// importance. Also caps path extraction: once the diagram proves the
  /// family larger than max_sets, only a bounded sample of sets is
  /// extracted for the listing (flagged truncated exactly as the full
  /// extraction would have been) -- the reliability numbers no longer
  /// need the paths. cut_set_options (analysis/report.h) sets it for
  /// every ZBDD run; false gives the cut-set reference path that tests and
  /// bench_prob compare against. micsup and bound ignore the flag.
  bool keep_diagram = false;
  /// Bound engine only: stop once p_upper - p_lower <= bound_epsilon
  /// (CLI --bound-epsilon). Negative disables early stopping: the run goes
  /// to exhaustion or Budget expiry, which is how the exact engines are
  /// matched byte-for-byte. The other engines ignore it.
  double bound_epsilon = 1e-6;
  /// Bound engine only: basic-event probability inputs (the enumeration
  /// order and the interval are probability-driven, so the engine needs
  /// them up front where the exact engines defer probability to the
  /// reporting stage). cut_set_options (analysis/report.h) copies these
  /// from ProbabilityOptions; direct callers set them to match.
  double bound_mission_time_hours = 1.0;
  double bound_default_probability = 0.0;
};

/// One literal of a cut set: an event, possibly negated.
struct CutLiteral {
  const FtNode* event = nullptr;
  bool negated = false;

  friend bool operator==(const CutLiteral& a, const CutLiteral& b) noexcept {
    return a.event == b.event && a.negated == b.negated;
  }
};

/// A minimal cut set: its literals, sorted by event name. A view into the
/// CutSetList that lists it, valid while that list lives unchanged.
using CutSet = std::span<const CutLiteral>;

/// A listing of cut sets in one literal arena: the literals of every set
/// lie back to back in one array, and set i is the slice that ends at
/// ends[i]. Two heap blocks hold the whole listing however many sets it
/// has, and copies and moves carry the arena with them. Every access
/// yields a CutSet view into this list's own arena.
class CutSetList {
 public:
  /// Random-access iterator over the sets; dereferences to a CutSet.
  class Iterator {
   public:
    using iterator_concept = std::random_access_iterator_tag;
    using iterator_category = std::input_iterator_tag;
    using value_type = CutSet;
    using reference = CutSet;
    using difference_type = std::ptrdiff_t;

    Iterator() = default;
    Iterator(const CutSetList* list, std::size_t index) noexcept
        : list_(list), index_(index) {}

    CutSet operator*() const noexcept { return (*list_)[index_]; }
    CutSet operator[](difference_type n) const noexcept {
      return (*list_)[index_ + static_cast<std::size_t>(n)];
    }
    Iterator& operator++() noexcept {
      ++index_;
      return *this;
    }
    Iterator operator++(int) noexcept {
      Iterator at = *this;
      ++index_;
      return at;
    }
    Iterator& operator--() noexcept {
      --index_;
      return *this;
    }
    Iterator operator--(int) noexcept {
      Iterator at = *this;
      --index_;
      return at;
    }
    Iterator& operator+=(difference_type n) noexcept {
      index_ += static_cast<std::size_t>(n);
      return *this;
    }
    Iterator& operator-=(difference_type n) noexcept { return *this += -n; }
    friend Iterator operator+(Iterator at, difference_type n) noexcept {
      return at += n;
    }
    friend Iterator operator+(difference_type n, Iterator at) noexcept {
      return at += n;
    }
    friend Iterator operator-(Iterator at, difference_type n) noexcept {
      return at -= n;
    }
    friend difference_type operator-(const Iterator& a,
                                     const Iterator& b) noexcept {
      return static_cast<difference_type>(a.index_) -
             static_cast<difference_type>(b.index_);
    }
    friend bool operator==(const Iterator& a, const Iterator& b) noexcept {
      return a.index_ == b.index_;
    }
    friend auto operator<=>(const Iterator& a, const Iterator& b) noexcept {
      return a.index_ <=> b.index_;
    }

   private:
    const CutSetList* list_ = nullptr;
    std::size_t index_ = 0;
  };
  using const_iterator = Iterator;
  using value_type = CutSet;

  std::size_t size() const noexcept { return ends_.size(); }
  bool empty() const noexcept { return ends_.empty(); }
  CutSet operator[](std::size_t i) const noexcept {
    const std::size_t begin = i == 0 ? 0 : ends_[i - 1];
    return CutSet(literals_.data() + begin, ends_[i] - begin);
  }
  CutSet front() const noexcept { return (*this)[0]; }
  Iterator begin() const noexcept { return Iterator(this, 0); }
  Iterator end() const noexcept { return Iterator(this, size()); }

  /// Sizes the arena for `sets` sets of `literals` literals in all.
  void reserve(std::size_t sets, std::size_t literals) {
    ends_.reserve(sets);
    literals_.reserve(literals);
  }
  /// Appends a literal to the set being built; end_set() closes it.
  void push_literal(CutLiteral literal) { literals_.push_back(literal); }
  void end_set() { ends_.push_back(literals_.size()); }

  friend bool operator==(const CutSetList&, const CutSetList&) = default;

 private:
  std::vector<CutLiteral> literals_;  ///< every set's literals, in order
  std::vector<std::size_t> ends_;     ///< one past set i's last literal
};

/// The ZBDD engine's minimal-family diagram, retained past extraction when
/// CutSetOptions::keep_diagram is set. Self-contained: the manager, the
/// family root, and the event behind each variable pair.
struct CutSetDiagram {
  Zbdd zbdd;
  Zbdd::Ref root = Zbdd::kEmpty;
  /// events[r] owns ZBDD variables 2r (plain) and 2r + 1 (negated).
  /// Pointers into the ORIGINAL analysed tree, remapped exactly like
  /// cut-set literals; null for variables absent from the diagram.
  std::vector<const FtNode*> events;
  /// True when the symbolic conversion ran to completion: the diagram is
  /// then the exact complete minimal family, even when path EXTRACTION
  /// was truncated or sampled -- the case diagram-native analysis exists
  /// for. False after a node-limit or deadline interrupt mid-conversion.
  bool exact = false;
};

/// What the bound engine's frontier did (--verbose stats; mirrors
/// bound::BoundStats so the analysis API stays free of bound headers).
struct FrontierStats {
  std::size_t rounds = 0;       ///< synchronised drain rounds
  std::size_t expansions = 0;   ///< partial products resolved
  std::size_t emitted = 0;      ///< complete products emitted
  std::size_t peak_frontier = 0;  ///< open-item high-water mark
  std::size_t subsumed = 0;     ///< items pruned against emitted sets
  std::size_t deferred = 0;     ///< sets outside the exact lower bound
};

/// Result of a cut-set computation. Literals point INTO the analysed tree:
/// the FaultTree must outlive the analysis (do not pass a temporary). The
/// listing is one CutSetList arena; a CutSet taken from it is a view that
/// stays valid while this analysis lives and its listing is not assigned
/// to. A copy owns its own arena, so its views read the copy.
struct CutSetAnalysis {
  CutSetList cut_sets;           ///< minimal, canonically ordered
  bool truncated = false;        ///< some sets were dropped by the limits
  bool deadline_exceeded = false;  ///< the budget deadline cut the run short
  std::size_t peak_sets = 0;     ///< working-set high-water mark (bench metric)
  /// The retained diagram (ZBDD engine with keep_diagram only). Shared
  /// ownership: the analysis is copyable/movable as before.
  std::shared_ptr<const CutSetDiagram> diagram;
  /// Bound engine only: certified interval on the top-event probability at
  /// the mission time the engine ran with (absent for the exact engines).
  /// p_lower is the exact measure of the emitted sets' union; p_upper adds
  /// the open frontier's residual mass. Always p_lower <= P(top) <= p_upper.
  std::optional<double> p_lower;
  std::optional<double> p_upper;
  /// Bound engine only: the interval width reached bound_epsilon (or the
  /// run exhausted with width zero). False on deadline/limit stops.
  bool converged = false;
  /// Bound engine only: frontier counters (--verbose).
  std::optional<FrontierStats> frontier_stats;

  /// Smallest cut set order present (0 when there are no cut sets).
  std::size_t min_order() const noexcept;
  /// Cut sets of exactly `order` literals: one contiguous run of the
  /// listing, which is ordered by cut-set order first.
  std::ranges::subrange<CutSetList::Iterator> of_order(
      std::size_t order) const;

  /// "{a, b} {c}" rendering, one line per cut set.
  std::string to_string() const;
};

/// Runs the engine selected by `options.engine`. The analysis layer and
/// the CLI route every cut-set computation through this dispatcher.
CutSetAnalysis compute_cut_sets(const FaultTree& tree,
                                const CutSetOptions& options = {});

/// Bottom-up engine (default).
CutSetAnalysis minimal_cut_sets(const FaultTree& tree,
                                const CutSetOptions& options = {});

/// Symbolic ZBDD engine (see header comment). Handles NOT gates: both
/// polarities of an event are distinct ZBDD variables and contradictory
/// sets are subtracted symbolically.
CutSetAnalysis zbdd_cut_sets(const FaultTree& tree,
                             const CutSetOptions& options = {});

/// Anytime best-first engine (see header comment). Emits the
/// highest-probability minimal cut sets first and certifies
/// p_lower <= P(top) <= p_upper at every stop; honours max_order/max_sets,
/// the Budget deadline, and Budget::max_nodes as an expansion cap.
CutSetAnalysis bound_cut_sets(const FaultTree& tree,
                              const CutSetOptions& options = {});

/// Benchmark/diagnostic entry into the interned-bitset minimisation
/// kernel: `sets` are cut sets over dense literal ids in [0, universe)
/// (convention: id = 2 * event + negated, so ids 2k and 2k+1 are the two
/// polarities of one event and a set holding both is contradictory and
/// dropped). Returns the minimal, deduplicated sets as ascending id
/// vectors, sorted by (size, lexicographic ids).
std::vector<std::vector<int>> minimise_literal_sets(
    const std::vector<std::vector<int>>& sets, int universe);

}  // namespace ftsynth
