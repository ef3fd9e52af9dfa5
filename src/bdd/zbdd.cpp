#include "bdd/zbdd.h"

#include <climits>
#include <unordered_set>
#include <utility>

#include "core/error.h"

namespace ftsynth {

namespace {
constexpr int kTerminalVar = INT_MAX;
}  // namespace

Zbdd::Zbdd() {
  nodes_.push_back({kTerminalVar, kEmpty, kEmpty});  // 0: {}
  nodes_.push_back({kTerminalVar, kBase, kBase});    // 1: {{}}
}

int Zbdd::new_var() { return var_count_++; }

Zbdd::Ref Zbdd::make(int var, Ref low, Ref high) {
  if (high == kEmpty) return low;  // zero-suppression rule
  const UniqueKey key{var, low, high};
  if (auto it = unique_.find(key); it != unique_.end()) return it->second;
  if (budget_ != nullptr && budget_->poll()) throw Interrupt{true};
  if (node_limit_ != 0 && nodes_.size() >= node_limit_) throw Interrupt{false};
  check_internal(nodes_.size() < UINT32_MAX, "ZBDD node table overflow");
  const Ref ref = static_cast<Ref>(nodes_.size());
  nodes_.push_back({var, low, high});
  unique_.emplace(key, ref);
  return ref;
}

Zbdd::Ref Zbdd::single(int v) {
  check_internal(v >= 0 && v < var_count_, "ZBDD variable out of range");
  return make(v, kEmpty, kBase);
}

Zbdd::Ref Zbdd::set_union(Ref a, Ref b) {
  if (a == b) return a;
  if (a == kEmpty) return b;
  if (b == kEmpty) return a;
  if (a > b) std::swap(a, b);  // commutative: canonical cache key
  const OpKey key{Op::kUnion, a, b};
  if (auto it = cache_.find(key); it != cache_.end()) return it->second;
  // Copy: recursive calls may grow nodes_ and invalidate references.
  const Node na = node(a);
  const Node nb = node(b);
  Ref result;
  if (na.var == nb.var) {
    // High branch first, here and in every operation below: a Ref is its
    // allocation serial, so this order decides every Ref and must not be
    // left to the compiler's unspecified argument evaluation order.
    const Ref high = set_union(na.high, nb.high);
    result = make(na.var, set_union(na.low, nb.low), high);
  } else if (na.var < nb.var) {
    // b (including a terminal, var = INT_MAX) has no sets with na.var.
    result = make(na.var, set_union(na.low, b), na.high);
  } else {
    result = make(nb.var, set_union(nb.low, a), nb.high);
  }
  cache_.emplace(key, result);
  return result;
}

Zbdd::Ref Zbdd::set_intersection(Ref a, Ref b) {
  if (a == b) return a;
  if (a == kEmpty || b == kEmpty) return kEmpty;
  if (a > b) std::swap(a, b);
  const OpKey key{Op::kIntersection, a, b};
  if (auto it = cache_.find(key); it != cache_.end()) return it->second;
  const Node na = node(a);
  const Node nb = node(b);
  Ref result;
  if (na.var == nb.var) {
    const Ref high = set_intersection(na.high, nb.high);
    result = make(na.var, set_intersection(na.low, nb.low), high);
  } else if (na.var < nb.var) {
    // Sets containing na.var cannot be in b; only a's low part survives.
    result = set_intersection(na.low, b);
  } else {
    result = set_intersection(nb.low, a);
  }
  cache_.emplace(key, result);
  return result;
}

Zbdd::Ref Zbdd::product(Ref a, Ref b) {
  if (a == kEmpty || b == kEmpty) return kEmpty;
  if (a == kBase) return b;
  if (b == kBase) return a;
  if (a > b) std::swap(a, b);  // pairwise union is commutative
  const OpKey key{Op::kProduct, a, b};
  if (auto it = cache_.find(key); it != cache_.end()) return it->second;
  const Node na = node(a);
  const Node nb = node(b);
  Ref result;
  if (na.var == nb.var) {
    // Sets containing v: any pairing where at least one side contributes v.
    const Ref low_high = product(na.low, nb.high);
    const Ref high_low = product(na.high, nb.low);
    const Ref mixed = set_union(high_low, low_high);
    const Ref both = product(na.high, nb.high);
    const Ref high = set_union(both, mixed);
    result = make(na.var, product(na.low, nb.low), high);
  } else {
    const Node& top = na.var < nb.var ? na : nb;
    const Ref other = na.var < nb.var ? b : a;
    const Ref high = product(top.high, other);
    result = make(top.var, product(top.low, other), high);
  }
  cache_.emplace(key, result);
  return result;
}

Zbdd::Ref Zbdd::without(Ref a, Ref b) {
  if (a == kEmpty) return kEmpty;
  if (b == kEmpty) return a;
  if (b == kBase) return kEmpty;  // {} is a subset of every set
  if (a == b) return kEmpty;      // every set subsumes itself
  const OpKey key{Op::kWithout, a, b};
  if (auto it = cache_.find(key); it != cache_.end()) return it->second;
  const Node na = node(a);
  const Node nb = node(b);
  Ref result;
  if (na.var == nb.var) {
    // v+s of a.high is subsumed by t in b.low (t has no v, t <= s) or by
    // v+t of b.high (t <= s); a.low only by b.low.
    const Ref high = without(without(na.high, nb.low), nb.high);
    result = make(na.var, without(na.low, nb.low), high);
  } else if (na.var < nb.var) {
    // No set of b mentions na.var: screen both branches against all of b.
    const Ref high = without(na.high, b);
    result = make(na.var, without(na.low, b), high);
  } else {
    // Sets of a (including kBase's {}) never contain nb.var, so only the
    // b-sets without it -- b.low -- can subsume them.
    result = without(a, nb.low);
  }
  cache_.emplace(key, result);
  return result;
}

Zbdd::Ref Zbdd::minimal(Ref a) {
  if (is_terminal(a)) return a;
  const OpKey key{Op::kMinimal, a, 0};
  if (auto it = cache_.find(key); it != cache_.end()) return it->second;
  const Node n = node(a);
  // A set v+s (s in high) is non-minimal iff s' <= s for some s' already
  // minimal in high, or t <= s for some t in low (t has no v).
  Ref low = minimal(n.low);
  Ref high = without(minimal(n.high), low);
  Ref result = make(n.var, low, high);
  cache_.emplace(key, result);
  return result;
}

double Zbdd::set_count(Ref a) const {
  std::unordered_map<Ref, double> memo;
  auto count = [&](auto&& self, Ref ref) -> double {
    if (ref == kEmpty) return 0.0;
    if (ref == kBase) return 1.0;
    if (auto it = memo.find(ref); it != memo.end()) return it->second;
    const Node& n = node(ref);
    double result = self(self, n.low) + self(self, n.high);
    memo.emplace(ref, result);
    return result;
  };
  return count(count, a);
}

std::size_t Zbdd::node_count(Ref a) const {
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

void Zbdd::for_each_set(
    Ref a, const std::function<bool(const std::vector<int>&)>& visit) const {
  std::vector<int> current;
  bool stopped = false;
  auto walk = [&](auto&& self, Ref ref) -> void {
    if (stopped || ref == kEmpty) return;
    if (ref == kBase) {
      if (!visit(current)) stopped = true;
      return;
    }
    const Node& n = node(ref);
    self(self, n.low);
    current.push_back(n.var);
    self(self, n.high);
    current.pop_back();
  };
  walk(walk, a);
}

void Zbdd::release_tables() {
  unique_ = {};
  cache_ = {};
}

}  // namespace ftsynth
