#include "bound/frontier.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <optional>
#include <queue>
#include <utility>

namespace ftsynth::bound {

namespace {

/// Shard count is a CONSTANT: an item's home shard depends only on its
/// content, so the frontier's shape -- and with it every selection,
/// expansion and merge -- is a function of the tree and the limits.
constexpr std::size_t kShards = 16;

/// Items expanded per round. Also constant: the round boundary is where
/// convergence and budgets are checked, so it fixes the stopping point
/// (and the reported interval) of an anytime run.
constexpr std::size_t kRoundWidth = 64;

/// SDP admission caps: a set whose disjoint-product expansion exceeds
/// either is deferred (its raw mass moves to the upper bound instead of
/// tightening the lower bound). Both are content-derived counters, so
/// deferral decisions are deterministic.
constexpr std::size_t kSdpProductCap = 4096;
constexpr std::size_t kSdpOpCap = std::size_t{1} << 21;

/// Kahan accumulator: the residual is maintained incrementally over
/// millions of additions and subtractions; compensation keeps the drift
/// far below any epsilon worth asking for. All updates happen serially at
/// round boundaries, so the result is deterministic.
struct Accumulator {
  double sum = 0.0;
  double carry = 0.0;
  void add(double x) noexcept {
    const double y = x - carry;
    const double t = sum + y;
    carry = (t - sum) - y;
    sum = t;
  }
  double value() const noexcept { return sum > 0.0 ? sum : 0.0; }
};

/// A partial product: chosen literals plus still-open disjunction gates
/// (conjunctions are absorbed eagerly), with a certified upper bound on
/// the probability mass reachable through it.
struct Item {
  std::vector<int> literals;  ///< sorted ids
  std::vector<Ref> gates;     ///< sorted, unique, disjunctions only
  double mass = 0.0;
};

/// Total order for the priority queue: most mass first, then content
/// (fewest literals, then ids) so equal-mass items -- every item, in the
/// unrated p = 0 regime -- still drain in one canonical sequence.
bool item_before(const Item& a, const Item& b) noexcept {
  if (a.mass != b.mass) return a.mass > b.mass;
  if (a.literals.size() != b.literals.size())
    return a.literals.size() < b.literals.size();
  if (a.literals != b.literals) return a.literals < b.literals;
  return a.gates < b.gates;
}

struct ItemWorse {
  bool operator()(const Item& a, const Item& b) const noexcept {
    return item_before(b, a);
  }
};

using ShardQueue = std::priority_queue<Item, std::vector<Item>, ItemWorse>;

/// Sorted-unique insert of `literal`; false when the opposite polarity is
/// already present (the item denotes the empty event set).
bool insert_literal(std::vector<int>& literals, int literal) {
  auto it = std::lower_bound(literals.begin(), literals.end(), literal ^ 1);
  if (it != literals.end() && *it == (literal ^ 1)) return false;
  it = std::lower_bound(literals.begin(), literals.end(), literal);
  if (it != literals.end() && *it == literal) return true;
  literals.insert(it, literal);
  return true;
}

void insert_gate(std::vector<Ref>& gates, Ref gate) {
  auto it = std::lower_bound(gates.begin(), gates.end(), gate);
  if (it != gates.end() && *it == gate) return;
  gates.insert(it, gate);
}

/// Conjunctive closure: absorbs `ref` into the item, inlining conjunction
/// gates all the way down so only disjunctions stay open. False on a
/// contradictory literal pair (drop the item; it contributes measure 0).
bool absorb(const Pdag& pdag, Ref ref, std::vector<int>& literals,
            std::vector<Ref>& gates) {
  std::vector<Ref> work{ref};
  while (!work.empty()) {
    const Ref current = work.back();
    work.pop_back();
    if (is_literal(current)) {
      if (!insert_literal(literals, literal_of(current))) return false;
      continue;
    }
    const PdagGate& gate = pdag.gates[static_cast<std::size_t>(current)];
    if (gate.conjunction) {
      work.insert(work.end(), gate.children.begin(), gate.children.end());
    } else {
      insert_gate(gates, current);
    }
  }
  return true;
}

std::uint64_t literal_signature(const std::vector<int>& literals) noexcept {
  std::uint64_t signature = 0;
  for (const int literal : literals)
    signature |= std::uint64_t{1} << (static_cast<unsigned>(literal) % 64);
  return signature;
}

/// An emitted cut set, stored for subsumption screening of later items.
struct Emitted {
  std::vector<int> literals;  ///< sorted ids
  std::uint64_t signature = 0;
};

/// True when some emitted set in [begin, end) is a subset of `literals`.
bool subsumed_by(const std::vector<Emitted>& emitted, std::size_t begin,
                 std::size_t end, const std::vector<int>& literals,
                 std::uint64_t signature) {
  for (std::size_t i = begin; i < end; ++i) {
    const Emitted& set = emitted[i];
    if (set.literals.size() > literals.size()) continue;
    if ((set.signature & ~signature) != 0) continue;
    if (std::includes(literals.begin(), literals.end(), set.literals.begin(),
                      set.literals.end()))
      return true;
  }
  return false;
}

/// Certified mass of an item. The product form (literal probability times
/// the open gates' bounds) needs mutual independence, i.e. pairwise
/// disjoint supports; otherwise fall back to the weakest conjunct, which
/// holds under any sharing. The product form, when available, is never
/// looser: every factor is <= 1.
double item_mass(const Pdag& pdag, const Item& item,
                 std::vector<std::uint64_t>& scratch_support) {
  double literal_probability = 1.0;
  for (const int literal : item.literals)
    literal_probability *=
        pdag.literal_probability[static_cast<std::size_t>(literal)];
  if (item.gates.empty()) return literal_probability;

  scratch_support.assign((pdag.event_count + 63) / 64, 0);
  for (const int literal : item.literals) {
    const std::size_t event = static_cast<std::size_t>(literal) / 2;
    scratch_support[event / 64] |= std::uint64_t{1} << (event % 64);
  }
  bool disjoint = true;
  double product = literal_probability;
  double weakest = literal_probability;
  for (const Ref gate_ref : item.gates) {
    const PdagGate& gate = pdag.gates[static_cast<std::size_t>(gate_ref)];
    if (disjoint && supports_disjoint(scratch_support, gate.support)) {
      for (std::size_t i = 0; i < scratch_support.size(); ++i)
        scratch_support[i] |= gate.support[i];
      product *= gate.ub;
    } else {
      disjoint = false;
    }
    weakest = std::min(weakest, gate.ub);
  }
  return disjoint ? product : weakest;
}

/// Incremental sum-of-disjoint-products over the admitted cut sets:
/// admit() returns the exact measure the new set adds beyond the union of
/// everything admitted before it, so the running total is exactly
/// P(union of admitted sets) -- the monotone lower bound.
class SdpEngine {
 public:
  explicit SdpEngine(const Pdag& pdag)
      : pdag_(pdag), words_((2 * pdag.event_count + 63) / 64) {}

  /// Exact marginal measure of `literals`, or nullopt when the expansion
  /// blows past the caps (the caller then defers the set: it keeps its raw
  /// mass in the upper bound and never enters the admitted list).
  std::optional<double> admit(const std::vector<int>& literals) {
    std::vector<Product> work;
    work.push_back(product_of(literals));
    std::size_t ops = 0;
    for (const std::vector<int>& previous : admitted_) {
      if (work.empty()) break;
      std::vector<Product> next;
      next.reserve(work.size());
      for (const Product& product : work) {
        ops += previous.size();
        refine(product, previous, next);
      }
      if (next.size() > kSdpProductCap || ops > kSdpOpCap)
        return std::nullopt;
      work = std::move(next);
    }
    double delta = 0.0;
    for (const Product& product : work) delta += probability(product);
    // A fully-covered set (empty expansion) adds no region; keeping it out
    // of the admitted list saves every later refinement a pass.
    if (!work.empty()) admitted_.push_back(literals);
    return delta;
  }

 private:
  /// A disjoint product: the admitted set's literals plus complemented
  /// separators, as a bitset over literal ids.
  using Product = std::vector<std::uint64_t>;

  Product product_of(const std::vector<int>& literals) const {
    Product product(words_, 0);
    for (const int literal : literals) set_bit(product, literal);
    return product;
  }

  static void set_bit(Product& product, int literal) noexcept {
    product[static_cast<std::size_t>(literal) / 64] |=
        std::uint64_t{1} << (static_cast<std::size_t>(literal) % 64);
  }
  static bool test_bit(const Product& product, int literal) noexcept {
    return (product[static_cast<std::size_t>(literal) / 64] >>
                (static_cast<std::size_t>(literal) % 64) &
            1) != 0;
  }

  /// Splits `product` against NOT(previous) into `out` (0, 1 or |D|
  /// disjoint pieces, D = previous's literals missing from the product).
  void refine(const Product& product, const std::vector<int>& previous,
              std::vector<Product>& out) const {
    for (const int literal : previous) {
      if (test_bit(product, literal ^ 1)) {
        out.push_back(product);  // already disjoint from `previous`
        return;
      }
    }
    std::vector<int> missing;
    for (const int literal : previous) {
      if (!test_bit(product, literal)) missing.push_back(literal);
    }
    if (missing.empty()) return;  // product implies `previous`: covered
    Product base = product;
    for (const int literal : missing) {
      Product piece = base;
      set_bit(piece, literal ^ 1);
      out.push_back(std::move(piece));
      set_bit(base, literal);
    }
  }

  double probability(const Product& product) const {
    double p = 1.0;
    for (std::size_t w = 0; w < product.size(); ++w) {
      std::uint64_t bits = product[w];
      while (bits != 0) {
        const int literal =
            static_cast<int>(w * 64) + std::countr_zero(bits);
        bits &= bits - 1;
        p *= pdag_.literal_probability[static_cast<std::size_t>(literal)];
      }
    }
    return p;
  }

  const Pdag& pdag_;
  std::size_t words_;
  std::vector<std::vector<int>> admitted_;
};

/// One expanded item's offspring, merged into the frontier in batch order.
struct Expansion {
  std::vector<Item> children;       ///< open and complete alike
  double order_dropped_mass = 0.0;  ///< items cut by max_order
  std::size_t subsumed = 0;
  bool order_truncated = false;
};

class Frontier {
 public:
  Frontier(const Pdag& pdag, const BoundLimits& limits)
      : pdag_(pdag), limits_(limits), budget_(limits.budget), sdp_(pdag) {}

  BoundOutcome run() {
    BoundOutcome out;
    if (pdag_.constant_false) {
      out.p_upper = 0.0;
      out.converged = true;
      out.exhausted = true;
      return out;
    }
    seed();
    drain();

    const double upper_now = current_upper();
    best_upper_ = std::min(best_upper_, upper_now);
    best_upper_ = std::max(best_upper_, lower_);

    out.products = std::move(products_);
    out.p_lower = lower_;
    out.p_upper = best_upper_;
    out.converged = best_upper_ - lower_ <= std::max(limits_.epsilon, 0.0);
    out.exhausted = exhausted_;
    out.truncated = truncated_;
    out.deadline_exceeded = deadline_exceeded_;
    out.stats = stats_;
    out.stats.emitted = out.products.size();
    out.stats.deferred = deferred_count_;
    return out;
  }

 private:
  void seed() {
    Item root;
    if (!absorb(pdag_, pdag_.root, root.literals, root.gates)) return;
    std::vector<std::uint64_t> scratch;
    root.mass = item_mass(pdag_, root, scratch);
    merge_child(std::move(root));
  }

  void drain() {
    while (true) {
      const double upper_now = current_upper();
      best_upper_ = std::min(best_upper_, std::max(upper_now, lower_));
      if (frontier_size_ == 0) {
        exhausted_ = true;
        return;
      }
      if (limits_.epsilon >= 0.0 && best_upper_ - lower_ <= limits_.epsilon)
        return;
      if (budget_.poll() || budget_.expired()) {
        deadline_exceeded_ = true;
        truncated_ = true;
        return;
      }
      if (limits_.max_expansions != 0 &&
          stats_.expansions >= limits_.max_expansions) {
        truncated_ = true;
        return;
      }
      if (products_.size() >= limits_.max_sets) {
        truncated_ = true;
        return;
      }
      round();
    }
  }

  void round() {
    const std::vector<Item> batch = select_batch();
    const std::size_t snapshot = emitted_.size();
    // Expansion is read-only on the frontier state: items were popped, the
    // emitted prefix [0, snapshot) is frozen for the round.
    for (const Item& item : batch) {
      Expansion expansion = expand(item, snapshot);
      stats_.subsumed += expansion.subsumed;
      if (expansion.order_truncated) truncated_ = true;
      order_dropped_.add(expansion.order_dropped_mass);
      for (Item& child : expansion.children) {
        // Re-screen against sets emitted after the snapshot (by an earlier
        // merge slot of this same round): deterministic, merge runs in
        // batch order.
        if (subsumed_by(emitted_, snapshot, emitted_.size(), child.literals,
                        literal_signature(child.literals))) {
          ++stats_.subsumed;
          continue;
        }
        merge_child(std::move(child));
      }
    }
    stats_.expansions += batch.size();
    ++stats_.rounds;
    stats_.peak_frontier = std::max(stats_.peak_frontier, frontier_size_);
  }

  /// Pops the globally best <= kRoundWidth items: repeatedly take the best
  /// shard top (ties by lowest shard index). Purely content-driven.
  std::vector<Item> select_batch() {
    std::vector<Item> batch;
    batch.reserve(kRoundWidth);
    while (batch.size() < kRoundWidth) {
      std::size_t best_shard = kShards;
      for (std::size_t s = 0; s < kShards; ++s) {
        if (shards_[s].empty()) continue;
        if (best_shard == kShards ||
            item_before(shards_[s].top(), shards_[best_shard].top()))
          best_shard = s;
      }
      if (best_shard == kShards) break;
      batch.push_back(shards_[best_shard].top());
      shards_[best_shard].pop();
      --frontier_size_;
      residual_.add(-batch.back().mass);
    }
    return batch;
  }

  Expansion expand(const Item& item, std::size_t snapshot) const {
    Expansion result;
    const PdagGate& gate =
        pdag_.gates[static_cast<std::size_t>(item.gates.front())];
    result.children.reserve(gate.children.size());
    std::vector<std::uint64_t> scratch;
    for (const Ref choice : gate.children) {
      Item child;
      child.literals = item.literals;
      child.gates.assign(item.gates.begin() + 1, item.gates.end());
      if (!absorb(pdag_, choice, child.literals, child.gates))
        continue;  // contradictory: measure 0, no residual to keep
      if (subsumed_by(emitted_, 0, snapshot, child.literals,
                      literal_signature(child.literals))) {
        ++result.subsumed;
        continue;
      }
      child.mass = item_mass(pdag_, child, scratch);
      if (child.literals.size() > limits_.max_order) {
        // Beyond the order cap: never enumerated, so its mass can never
        // leave the upper bound. The run is truncated, not converged,
        // unless the lost mass is below epsilon anyway.
        result.order_dropped_mass += child.mass;
        result.order_truncated = true;
        continue;
      }
      result.children.push_back(std::move(child));
    }
    return result;
  }

  /// Deterministic sink for new items: complete products are emitted
  /// (SDP-admitted or deferred), open items go to their content shard.
  void merge_child(Item&& child) {
    if (child.gates.empty()) {
      emit(std::move(child));
      return;
    }
    const std::size_t shard = shard_of(child);
    residual_.add(child.mass);
    shards_[shard].push(std::move(child));
    ++frontier_size_;
  }

  void emit(Item&& product) {
    Emitted entry;
    entry.signature = literal_signature(product.literals);
    entry.literals = std::move(product.literals);
    if (std::optional<double> delta = sdp_.admit(entry.literals)) {
      lower_ += *delta;
    } else {
      ++deferred_count_;
      deferred_.add(product.mass);
    }
    products_.push_back(entry.literals);
    emitted_.push_back(std::move(entry));
  }

  double current_upper() const {
    const double upper = lower_ + deferred_.value() + order_dropped_.value() +
                         residual_.value();
    return std::min(upper, 1.0);
  }

  std::size_t shard_of(const Item& item) const noexcept {
    std::uint64_t hash = 1469598103934665603ULL;  // FNV-1a
    for (const int literal : item.literals) {
      hash ^= static_cast<std::uint64_t>(literal);
      hash *= 1099511628211ULL;
    }
    for (const Ref gate : item.gates) {
      hash ^= static_cast<std::uint64_t>(gate) + 0x9e3779b97f4a7c15ULL;
      hash *= 1099511628211ULL;
    }
    return static_cast<std::size_t>(hash % kShards);
  }

  const Pdag& pdag_;
  const BoundLimits& limits_;
  Budget budget_;
  SdpEngine sdp_;
  std::array<ShardQueue, kShards> shards_;
  std::size_t frontier_size_ = 0;
  std::vector<Emitted> emitted_;
  std::vector<std::vector<int>> products_;
  double lower_ = 0.0;
  double best_upper_ = 1.0;
  Accumulator residual_;
  Accumulator deferred_;
  Accumulator order_dropped_;
  std::size_t deferred_count_ = 0;
  bool truncated_ = false;
  bool deadline_exceeded_ = false;
  bool exhausted_ = false;
  BoundStats stats_;
};

}  // namespace

BoundOutcome drain_frontier(const Pdag& pdag, const BoundLimits& limits) {
  return Frontier(pdag, limits).run();
}

}  // namespace ftsynth::bound
