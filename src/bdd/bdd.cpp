#include "bdd/bdd.h"

#include <climits>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "core/error.h"

namespace ftsynth {

namespace {

constexpr int kTerminalVar = INT_MAX;
constexpr std::size_t kInitialCapacity = 64;  // both tables; a power of two

/// Hash of a 96-bit key: a multiply-xorshift finaliser, so that the low
/// bits -- the ones a power-of-two table indexes by -- depend on every
/// input bit.
std::size_t mix(std::uint32_t x, std::uint32_t y, std::uint32_t z) noexcept {
  std::uint64_t h = (static_cast<std::uint64_t>(x) << 32 | y) *
                        0x9E3779B97F4A7C15ull ^
                    z;
  h ^= h >> 32;
  h *= 0xD6E8FEB86659FD93ull;
  h ^= h >> 32;
  return static_cast<std::size_t>(h);
}

}  // namespace

Bdd::Bdd()
    : unique_(kInitialCapacity, 0), cache_(kInitialCapacity) {
  nodes_.push_back({kTerminalVar, kFalse, kFalse});  // 0: false
  nodes_.push_back({kTerminalVar, kTrue, kTrue});    // 1: true
}

int Bdd::new_var() {
  level_of_.push_back(var_count_);
  var_at_level_.push_back(var_count_);
  return var_count_++;
}

void Bdd::set_order(const std::vector<int>& order) {
  check_internal(size() == 2,
                 "set_order must run before any BDD node is built");
  check_internal(order.size() == static_cast<std::size_t>(var_count_),
                 "variable order must cover every declared variable");
  std::vector<int> levels(order.size(), -1);
  for (std::size_t level = 0; level < order.size(); ++level) {
    const int var = order[level];
    check_internal(var >= 0 && var < var_count_ && levels[var] == -1,
                   "variable order must be a permutation of the variables");
    levels[static_cast<std::size_t>(var)] = static_cast<int>(level);
  }
  level_of_ = std::move(levels);
  var_at_level_ = order;
}

int Bdd::level_of(int v) const {
  check_internal(v >= 0 && v < var_count_, "BDD variable out of range");
  return level_of_[static_cast<std::size_t>(v)];
}

int Bdd::var_at_level(int level) const {
  check_internal(level >= 0 && level < var_count_, "BDD level out of range");
  return var_at_level_[static_cast<std::size_t>(level)];
}

int Bdd::node_level(Ref a) const noexcept {
  const int var = node(a).var;
  return var == kTerminalVar ? INT_MAX
                             : level_of_[static_cast<std::size_t>(var)];
}

std::size_t Bdd::unique_slot(int var, Ref low, Ref high) const noexcept {
  const std::size_t mask = unique_.size() - 1;
  std::size_t slot = mix(static_cast<std::uint32_t>(var), low, high) & mask;
  for (;; slot = (slot + 1) & mask) {
    const Ref ref = unique_[slot];
    if (ref == 0) return slot;
    const Node& n = nodes_[ref];
    if (n.var == var && n.low == low && n.high == high) return slot;
  }
}

void Bdd::unique_grow() {
  std::vector<Ref> old(unique_.size() * 2, 0);
  old.swap(unique_);
  for (Ref ref : old) {
    if (ref == 0) continue;
    const Node& n = nodes_[ref];
    unique_[unique_slot(n.var, n.low, n.high)] = ref;
  }
}

Bdd::Ref Bdd::cache_find(Op op, Ref a, Ref b) const noexcept {
  const std::size_t mask = cache_.size() - 1;
  for (std::size_t slot = mix(static_cast<std::uint32_t>(op), a, b) & mask;;
       slot = (slot + 1) & mask) {
    const OpEntry& entry = cache_[slot];
    if (entry.op == Op::kEmpty) return kNoRef;
    if (entry.op == op && entry.a == a && entry.b == b) return entry.result;
  }
}

void Bdd::cache_insert(Op op, Ref a, Ref b, Ref result) {
  if ((cache_count_ + 1) * 2 > cache_.size()) {
    std::vector<OpEntry> old(cache_.size() * 2);
    old.swap(cache_);
    cache_count_ = 0;
    for (const OpEntry& entry : old)
      if (entry.op != Op::kEmpty)
        cache_insert(entry.op, entry.a, entry.b, entry.result);
  }
  const std::size_t mask = cache_.size() - 1;
  std::size_t slot = mix(static_cast<std::uint32_t>(op), a, b) & mask;
  while (cache_[slot].op != Op::kEmpty) slot = (slot + 1) & mask;
  cache_[slot] = {a, b, result, op};
  ++cache_count_;
}

Bdd::Ref Bdd::make(int var, Ref low, Ref high) {
  if (low == high) return low;  // reduction rule
  std::size_t slot = unique_slot(var, low, high);
  if (unique_[slot] != 0) return unique_[slot];
  check_internal(nodes_.size() < UINT32_MAX, "BDD node table overflow");
  const Ref ref = static_cast<Ref>(nodes_.size());
  nodes_.push_back({var, low, high});
  // The table holds size() - 2 entries, this node included: keep the load
  // at most half.
  if ((nodes_.size() - 2) * 2 > unique_.size()) {
    unique_grow();
    slot = unique_slot(var, low, high);
  }
  unique_[slot] = ref;
  return ref;
}

Bdd::Ref Bdd::var(int v) {
  check_internal(v >= 0 && v < var_count_, "BDD variable out of range");
  return make(v, kFalse, kTrue);
}

Bdd::Ref Bdd::nvar(int v) {
  check_internal(v >= 0 && v < var_count_, "BDD variable out of range");
  return make(v, kTrue, kFalse);
}

Bdd::Ref Bdd::apply_not(Ref a) {
  if (a == kFalse) return kTrue;
  if (a == kTrue) return kFalse;
  if (const Ref cached = cache_find(Op::kNot, a, 0); cached != kNoRef)
    return cached;
  const Node n = node(a);
  // High cofactor first, here and in apply() and ite(): a Ref is its
  // allocation serial, so this order decides every Ref and must not be
  // left to the compiler's unspecified argument evaluation order.
  const Ref high = apply_not(n.high);
  Ref result = make(n.var, apply_not(n.low), high);
  cache_insert(Op::kNot, a, 0, result);
  return result;
}

Bdd::Ref Bdd::apply(Op op, Ref a, Ref b) {
  switch (op) {
    case Op::kAnd:
      if (a == kFalse || b == kFalse) return kFalse;
      if (a == kTrue) return b;
      if (b == kTrue) return a;
      if (a == b) return a;
      break;
    case Op::kOr:
      if (a == kTrue || b == kTrue) return kTrue;
      if (a == kFalse) return b;
      if (b == kFalse) return a;
      if (a == b) return a;
      break;
    case Op::kXor:
      if (a == kFalse) return b;
      if (b == kFalse) return a;
      if (a == b) return kFalse;
      if (a == kTrue) return apply_not(b);
      if (b == kTrue) return apply_not(a);
      break;
    case Op::kNot:
    case Op::kEmpty:
      check_internal(false, "kNot goes through apply_not");
  }
  // Commutative ops: canonicalise the operand order for the cache.
  if (a > b) std::swap(a, b);
  if (const Ref cached = cache_find(op, a, b); cached != kNoRef) return cached;

  // Copy: recursive calls may grow nodes_ and invalidate references.
  const int la = node_level(a);
  const int lb = node_level(b);
  const Node na = node(a);
  const Node nb = node(b);
  const int v = la <= lb ? na.var : nb.var;
  const Ref a_low = la <= lb ? na.low : a;
  const Ref a_high = la <= lb ? na.high : a;
  const Ref b_low = lb <= la ? nb.low : b;
  const Ref b_high = lb <= la ? nb.high : b;
  const Ref high = apply(op, a_high, b_high);
  Ref result = make(v, apply(op, a_low, b_low), high);
  cache_insert(op, a, b, result);
  return result;
}

Bdd::Ref Bdd::apply_and(Ref a, Ref b) { return apply(Op::kAnd, a, b); }
Bdd::Ref Bdd::apply_or(Ref a, Ref b) { return apply(Op::kOr, a, b); }
Bdd::Ref Bdd::apply_xor(Ref a, Ref b) { return apply(Op::kXor, a, b); }

Bdd::Ref Bdd::ite(Ref f, Ref g, Ref h) {
  const Ref otherwise = apply_and(apply_not(f), h);
  return apply_or(apply_and(f, g), otherwise);
}

std::size_t Bdd::node_count(Ref a) const {
  if (is_terminal(a)) return 0;
  std::unordered_set<Ref> seen;
  std::vector<Ref> stack{a};
  while (!stack.empty()) {
    Ref ref = stack.back();
    stack.pop_back();
    if (is_terminal(ref) || !seen.insert(ref).second) continue;
    stack.push_back(node(ref).low);
    stack.push_back(node(ref).high);
  }
  return seen.size();
}

bool Bdd::evaluate(Ref a, const std::vector<bool>& assignment) const {
  while (!is_terminal(a)) {
    const Node& n = node(a);
    check_internal(static_cast<std::size_t>(n.var) < assignment.size(),
                   "assignment too short for BDD evaluation");
    a = assignment[static_cast<std::size_t>(n.var)] ? n.high : n.low;
  }
  return a == kTrue;
}

double Bdd::sat_count(Ref a) const {
  // count(n) over remaining variables below level(n); scale at the top.
  // Levels, not variable indices: under an explicit order the number of
  // free variables skipped along an edge is a level difference.
  std::unordered_map<Ref, double> memo;
  auto level = [&](Ref ref) {
    return is_terminal(ref) ? var_count_ : node_level(ref);
  };
  auto count = [&](auto&& self, Ref ref) -> double {
    if (ref == kFalse) return 0.0;
    if (ref == kTrue) return 1.0;
    if (auto it = memo.find(ref); it != memo.end()) return it->second;
    const Node& n = node(ref);
    auto weight = [&](Ref child) {
      // Variables skipped between this node and the child are free.
      return self(self, child) *
             static_cast<double>(1ULL << (level(child) - level(ref) - 1));
    };
    double result = weight(n.low) + weight(n.high);
    memo.emplace(ref, result);
    return result;
  };
  if (a == kFalse) return 0.0;
  return count(count, a) * static_cast<double>(1ULL << level(a));
}

}  // namespace ftsynth
