#include "bdd/bdd.h"

#include <algorithm>
#include <climits>
#include <unordered_map>
#include <unordered_set>

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
  var_refs_.emplace_back();
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

void Bdd::unique_insert(Ref ref) {
  if ((unique_count_ + 1) * 2 > unique_.size()) {
    std::vector<Ref> old;
    old.swap(unique_);
    unique_rebuild(old.size() * 2, old);
  }
  const Node& n = nodes_[ref];
  unique_[unique_slot(n.var, n.low, n.high)] = ref;
  ++unique_count_;
}

void Bdd::unique_erase(Ref ref) {
  const Node& n = nodes_[ref];
  const std::size_t mask = unique_.size() - 1;
  std::size_t hole = unique_slot(n.var, n.low, n.high);
  check_internal(unique_[hole] == ref, "BDD node missing from unique table");
  for (std::size_t slot = (hole + 1) & mask; unique_[slot] != 0;
       slot = (slot + 1) & mask) {
    const Node& m = nodes_[unique_[slot]];
    const std::size_t home =
        mix(static_cast<std::uint32_t>(m.var), m.low, m.high) & mask;
    // The entry may fill the hole unless its home lies cyclically in
    // (hole, slot]: then the hole is before its probe run starts.
    if (((slot - home) & mask) >= ((slot - hole) & mask)) {
      unique_[hole] = unique_[slot];
      hole = slot;
    }
  }
  unique_[hole] = 0;
  --unique_count_;
}

void Bdd::unique_rebuild(std::size_t capacity, const std::vector<Ref>& refs) {
  unique_.assign(capacity, 0);
  unique_count_ = 0;
  for (Ref ref : refs) {
    if (ref == 0) continue;
    const Node& n = nodes_[ref];
    unique_[unique_slot(n.var, n.low, n.high)] = ref;
    ++unique_count_;
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

void Bdd::cache_clear() {
  if (cache_count_ == 0) return;  // sifting clears once per swap
  std::fill(cache_.begin(), cache_.end(), OpEntry{});
  cache_count_ = 0;
}

Bdd::Ref Bdd::make(int var, Ref low, Ref high) {
  if (low == high) return low;  // reduction rule
  const std::size_t slot = unique_slot(var, low, high);
  if (unique_[slot] != 0) return unique_[slot];
  Ref ref;
  if (!free_.empty()) {
    ref = free_.back();
    free_.pop_back();
    nodes_[ref] = {var, low, high};
  } else {
    check_internal(nodes_.size() < UINT32_MAX, "BDD node table overflow");
    ref = static_cast<Ref>(nodes_.size());
    nodes_.push_back({var, low, high});
  }
  if ((unique_count_ + 1) * 2 <= unique_.size()) {
    unique_[slot] = ref;  // the probe above already found its place
    ++unique_count_;
  } else {
    unique_insert(ref);
  }
  var_refs_[static_cast<std::size_t>(var)].push_back(ref);
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
  Ref result = make(n.var, apply_not(n.low), apply_not(n.high));
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
  Ref result = make(v, apply(op, a_low, b_low), apply(op, a_high, b_high));
  cache_insert(op, a, b, result);
  return result;
}

Bdd::Ref Bdd::apply_and(Ref a, Ref b) { return apply(Op::kAnd, a, b); }
Bdd::Ref Bdd::apply_or(Ref a, Ref b) { return apply(Op::kOr, a, b); }
Bdd::Ref Bdd::apply_xor(Ref a, Ref b) { return apply(Op::kXor, a, b); }

Bdd::Ref Bdd::ite(Ref f, Ref g, Ref h) {
  return apply_or(apply_and(f, g), apply_and(apply_not(f), h));
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

void Bdd::swap_adjacent_levels(int level) {
  check_internal(level >= 0 && level + 1 < var_count_,
                 "BDD level swap out of range");
  const int v = var_at_level_[static_cast<std::size_t>(level)];
  const int w = var_at_level_[static_cast<std::size_t>(level + 1)];
  // Op-cache results bake in the old level comparisons.
  cache_clear();
  // make(v, ...) below appends rebuilt cofactor nodes to var_refs_[v], so
  // move the worklist out first; v-nodes independent of w go back in at the
  // end (they simply ride down one level, their structure untouched).
  std::vector<Ref> worklist =
      std::move(var_refs_[static_cast<std::size_t>(v)]);
  var_refs_[static_cast<std::size_t>(v)].clear();
  std::vector<Ref> keep;
  // Cofactors of a child C by w: (C.low, C.high) when C decides w, else
  // (C, C) -- C is constant in w.
  auto split = [&](Ref c, Ref& w0, Ref& w1) {
    const Node& n = node(c);
    if (!is_terminal(c) && n.var == w) {
      w0 = n.low;
      w1 = n.high;
    } else {
      w0 = c;
      w1 = c;
    }
  };
  for (Ref r : worklist) {
    const Node n = node(r);  // copy: make() may reallocate nodes_
    if (!((!is_terminal(n.low) && node(n.low).var == w) ||
          (!is_terminal(n.high) && node(n.high).var == w))) {
      // Independent of w: the node keeps its variable and structure.
      keep.push_back(r);
      continue;
    }
    Ref l0, l1, h0, h1;
    split(n.low, l0, l1);
    split(n.high, h0, h1);
    // <v, L, H> = <w, <v, l0, h0>, <v, l1, h1>> once w is above v. The
    // rewrite is in place so every external ref to r keeps its meaning.
    unique_erase(r);
    const Ref nlow = make(v, l0, h0);
    const Ref nhigh = make(v, l1, h1);
    // nlow != nhigh: r depends on w (a reduced child decides it), so its
    // two w-cofactors are distinct functions and make() is canonical.
    check_internal(nlow != nhigh, "BDD level swap collapsed a node");
    // Canonicity argument: distinct allocated nodes denote distinct
    // functions, the rewrite preserves r's function, and every other
    // <w, ., .> node denotes some other function -- so no collision.
    check_internal(unique_[unique_slot(w, nlow, nhigh)] == 0,
                   "BDD level swap produced a duplicate node");
    nodes_[r] = {w, nlow, nhigh};
    unique_insert(r);
    var_refs_[static_cast<std::size_t>(w)].push_back(r);
  }
  auto& v_refs = var_refs_[static_cast<std::size_t>(v)];
  v_refs.insert(v_refs.end(), keep.begin(), keep.end());
  std::swap(var_at_level_[static_cast<std::size_t>(level)],
            var_at_level_[static_cast<std::size_t>(level + 1)]);
  level_of_[static_cast<std::size_t>(v)] = level + 1;
  level_of_[static_cast<std::size_t>(w)] = level;
}

std::size_t Bdd::level_width(int level) const {
  check_internal(level >= 0 && level < var_count_, "BDD level out of range");
  return var_refs_[static_cast<std::size_t>(
                       var_at_level_[static_cast<std::size_t>(level)])]
      .size();
}

void Bdd::collect_garbage(const std::vector<Ref>& roots) {
  cache_clear();  // cached results may reference nodes about to die
  std::vector<bool> marked(nodes_.size(), false);
  std::vector<Ref> stack;
  for (Ref r : roots)
    if (!is_terminal(r) && !marked[r]) {
      marked[r] = true;
      stack.push_back(r);
    }
  while (!stack.empty()) {
    const Node& n = node(stack.back());
    stack.pop_back();
    for (Ref child : {n.low, n.high})
      if (!is_terminal(child) && !marked[child]) {
        marked[child] = true;
        stack.push_back(child);
      }
  }
  // Only entries still in the unique table are allocated; previously freed
  // slots are already on free_ and must not be pushed twice.
  std::vector<Ref> dead;
  for (Ref r : unique_)
    if (r != 0 && !marked[r]) dead.push_back(r);
  std::sort(dead.begin(), dead.end());
  free_.insert(free_.end(), dead.begin(), dead.end());
  std::vector<Ref> live;
  for (auto& refs : var_refs_) refs.clear();
  for (Ref r = 2; r < nodes_.size(); ++r)
    if (marked[r]) {
      live.push_back(r);
      var_refs_[static_cast<std::size_t>(nodes_[r].var)].push_back(r);
    }
  // The table shrinks back to fit the survivors.
  std::size_t capacity = kInitialCapacity;
  while (live.size() * 2 > capacity) capacity *= 2;
  unique_rebuild(capacity, live);
}

std::size_t Bdd::live_size(const std::vector<Ref>& roots) const {
  std::vector<bool> marked(size(), false);
  std::vector<Ref> stack;
  std::size_t live = 0;
  for (Ref r : roots)
    if (!is_terminal(r) && !marked[r]) {
      marked[r] = true;
      ++live;
      stack.push_back(r);
    }
  while (!stack.empty()) {
    const Node& n = node(stack.back());
    stack.pop_back();
    for (Ref child : {n.low, n.high})
      if (!is_terminal(child) && !marked[child]) {
        marked[child] = true;
        ++live;
        stack.push_back(child);
      }
  }
  return live;
}

SiftStats Bdd::sift(const std::vector<Ref>& roots, const SiftOptions& options) {
  return rudell_sift(*this, roots, options);
}

}  // namespace ftsynth
