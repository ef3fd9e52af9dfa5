#include "bdd/zbdd.h"

#include <algorithm>
#include <climits>
#include <unordered_set>

#include "core/error.h"

namespace ftsynth {

namespace {
constexpr int kTerminalVar = INT_MAX;
}  // namespace

Zbdd::Zbdd() {
  nodes_.push_back({kTerminalVar, kEmpty, kEmpty});  // 0: {}
  nodes_.push_back({kTerminalVar, kBase, kBase});    // 1: {{}}
}

int Zbdd::new_var() {
  level_of_.push_back(var_count_);
  var_at_level_.push_back(var_count_);
  var_refs_.emplace_back();
  return var_count_++;
}

void Zbdd::set_order(const std::vector<int>& order) {
  check_internal(size() == 2, "ZBDD set_order requires an empty diagram");
  check_internal(order.size() == static_cast<std::size_t>(var_count_),
                 "ZBDD order must cover every variable");
  std::vector<bool> seen(static_cast<std::size_t>(var_count_), false);
  for (int v : order) {
    check_internal(v >= 0 && v < var_count_, "ZBDD order variable out of range");
    check_internal(!seen[static_cast<std::size_t>(v)],
                   "ZBDD order repeats a variable");
    seen[static_cast<std::size_t>(v)] = true;
  }
  var_at_level_ = order;
  for (int level = 0; level < var_count_; ++level)
    level_of_[static_cast<std::size_t>(order[static_cast<std::size_t>(level)])] =
        level;
}

int Zbdd::level_of(int v) const {
  check_internal(v >= 0 && v < var_count_, "ZBDD variable out of range");
  return level_of_[static_cast<std::size_t>(v)];
}

int Zbdd::var_at_level(int level) const {
  check_internal(level >= 0 && level < var_count_, "ZBDD level out of range");
  return var_at_level_[static_cast<std::size_t>(level)];
}

int Zbdd::var_level(int var) const noexcept {
  return var == kTerminalVar ? INT_MAX
                             : level_of_[static_cast<std::size_t>(var)];
}

int Zbdd::node_level(Ref a) const noexcept { return var_level(node(a).var); }

Zbdd::Ref Zbdd::make(int var, Ref low, Ref high) {
  if (high == kEmpty) return low;  // zero-suppression rule
  const UniqueKey key{var, low, high};
  if (auto it = unique_.find(key); it != unique_.end()) return it->second;
  // A level swap rewrites nodes in place and must run to completion -- a
  // half-swapped level is not a valid diagram -- so interrupts are deferred
  // to the swap boundaries (sift() polls there).
  if (!in_swap_) {
    if (budget_ != nullptr && budget_->poll()) throw Interrupt{true};
    if (node_limit_ != 0 && nodes_.size() - free_.size() >= node_limit_)
      throw Interrupt{false};
  }
  Ref ref;
  if (!free_.empty()) {
    ref = free_.back();
    free_.pop_back();
    nodes_[ref] = {var, low, high};
  } else {
    check_internal(nodes_.size() < UINT32_MAX, "ZBDD node table overflow");
    ref = static_cast<Ref>(nodes_.size());
    nodes_.push_back({var, low, high});
  }
  unique_.emplace(key, ref);
  var_refs_[static_cast<std::size_t>(var)].push_back(ref);
  if (auto_reorder_ && !in_swap_ && unique_.size() >= reorder_threshold_)
    reorder_pending_ = true;
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
  const int la = var_level(na.var);
  const int lb = var_level(nb.var);
  Ref result;
  if (la == lb) {
    result = make(na.var, set_union(na.low, nb.low),
                  set_union(na.high, nb.high));
  } else if (la < lb) {
    // b (including a terminal, level = sentinel) has no sets with na.var.
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
  const int la = var_level(na.var);
  const int lb = var_level(nb.var);
  Ref result;
  if (la == lb) {
    result = make(na.var, set_intersection(na.low, nb.low),
                  set_intersection(na.high, nb.high));
  } else if (la < lb) {
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
  const int la = var_level(na.var);
  const int lb = var_level(nb.var);
  Ref result;
  if (la == lb) {
    // Sets containing v: any pairing where at least one side contributes v.
    Ref high = set_union(product(na.high, nb.high),
                         set_union(product(na.high, nb.low),
                                   product(na.low, nb.high)));
    result = make(na.var, product(na.low, nb.low), high);
  } else {
    const Node& top = la < lb ? na : nb;
    const Ref other = la < lb ? b : a;
    result = make(top.var, product(top.low, other), product(top.high, other));
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
  const int la = var_level(na.var);
  const int lb = var_level(nb.var);
  Ref result;
  if (la == lb) {
    // v+s of a.high is subsumed by t in b.low (t has no v, t <= s) or by
    // v+t of b.high (t <= s); a.low only by b.low.
    result = make(na.var, without(na.low, nb.low),
                  without(without(na.high, nb.low), nb.high));
  } else if (la < lb) {
    // No set of b mentions na.var: screen both branches against all of b.
    result = make(na.var, without(na.low, b), without(na.high, b));
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

void Zbdd::swap_adjacent_levels(int level) {
  check_internal(level >= 0 && level + 1 < var_count_,
                 "ZBDD level swap out of range");
  const int v = var_at_level_[static_cast<std::size_t>(level)];
  const int w = var_at_level_[static_cast<std::size_t>(level + 1)];
  // Op-cache results bake in the old level comparisons.
  cache_.clear();
  in_swap_ = true;
  // make(v, ...) below appends rebuilt cofactor nodes to var_refs_[v], so
  // move the worklist out first; v-nodes independent of w go back in at the
  // end (they simply ride down one level, their structure untouched).
  std::vector<Ref> worklist =
      std::move(var_refs_[static_cast<std::size_t>(v)]);
  var_refs_[static_cast<std::size_t>(v)].clear();
  std::vector<Ref> keep;
  // Splits a child family C by w: (sets without w, sets with w, w stripped).
  auto split = [&](Ref c, Ref& without_w, Ref& with_w) {
    const Node& n = node(c);
    if (!is_terminal(c) && n.var == w) {
      without_w = n.low;
      with_w = n.high;
    } else {
      without_w = c;
      with_w = kEmpty;
    }
  };
  for (Ref r : worklist) {
    const Node n = node(r);  // copy: make() may reallocate nodes_
    Ref l0, l1, h0, h1;
    split(n.low, l0, l1);
    split(n.high, h0, h1);
    if (l1 == kEmpty && h1 == kEmpty) {
      // Independent of w: the node keeps its variable and structure.
      keep.push_back(r);
      continue;
    }
    // <v, L, H> = <w, <v, l0, h0>, <v, l1, h1>> once w is above v. The
    // rewrite is in place so every external ref to r keeps its meaning.
    unique_.erase(UniqueKey{n.var, n.low, n.high});
    const Ref nlow = make(v, l0, h0);
    const Ref nhigh = make(v, l1, h1);
    // nhigh != kEmpty: l1/h1 are not both empty, so the node stays valid
    // under zero-suppression.
    nodes_[r] = {w, nlow, nhigh};
    const bool inserted = unique_.emplace(UniqueKey{w, nlow, nhigh}, r).second;
    // Canonicity argument: distinct allocated nodes denote distinct
    // families, the rewrite preserves r's family, and every other
    // <w, ., .> node denotes some other family -- so no collision.
    check_internal(inserted, "ZBDD level swap produced a duplicate node");
    var_refs_[static_cast<std::size_t>(w)].push_back(r);
  }
  auto& v_refs = var_refs_[static_cast<std::size_t>(v)];
  v_refs.insert(v_refs.end(), keep.begin(), keep.end());
  std::swap(var_at_level_[static_cast<std::size_t>(level)],
            var_at_level_[static_cast<std::size_t>(level + 1)]);
  level_of_[static_cast<std::size_t>(v)] = level + 1;
  level_of_[static_cast<std::size_t>(w)] = level;
  in_swap_ = false;
}

std::size_t Zbdd::level_width(int level) const {
  check_internal(level >= 0 && level < var_count_, "ZBDD level out of range");
  return var_refs_[static_cast<std::size_t>(
                       var_at_level_[static_cast<std::size_t>(level)])]
      .size();
}

void Zbdd::collect_garbage(const std::vector<Ref>& roots) {
  cache_.clear();  // cached results may reference nodes about to die
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
  for (auto it = unique_.begin(); it != unique_.end();) {
    if (!marked[it->second]) {
      dead.push_back(it->second);
      it = unique_.erase(it);
    } else {
      ++it;
    }
  }
  std::sort(dead.begin(), dead.end());
  free_.insert(free_.end(), dead.begin(), dead.end());
  for (auto& refs : var_refs_) refs.clear();
  for (Ref r = 2; r < nodes_.size(); ++r)
    if (marked[r])
      var_refs_[static_cast<std::size_t>(nodes_[r].var)].push_back(r);
}

std::size_t Zbdd::live_size(const std::vector<Ref>& roots) const {
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

SiftStats Zbdd::sift(const std::vector<Ref>& roots,
                     const SiftOptions& options) {
  SiftStats stats;
  collect_garbage(roots);  // sizes below must mean LIVE nodes
  std::size_t current = live_size(roots);
  stats.size_before = current;
  const int levels = var_count_;
  auto exhausted = [&]() {
    if (options.max_swaps != 0 && stats.swaps >= options.max_swaps)
      return true;
    return options.budget != nullptr && options.budget->poll();
  };
  if (levels >= 2) {
    stats.passes = 1;
    // Heaviest variables first: parking the fattest level pays the most
    // and unlocks gains for everything sifted after it. Width-0 variables
    // (declared but absent from the live diagram) cannot change any size,
    // so they keep their positions.
    std::vector<std::size_t> width(static_cast<std::size_t>(levels), 0);
    std::vector<int> vars;
    vars.reserve(static_cast<std::size_t>(levels));
    for (int v = 0; v < levels; ++v) {
      width[static_cast<std::size_t>(v)] = level_width(level_of(v));
      if (width[static_cast<std::size_t>(v)] > 0) vars.push_back(v);
    }
    std::stable_sort(vars.begin(), vars.end(), [&](int a, int b) {
      return width[static_cast<std::size_t>(a)] >
             width[static_cast<std::size_t>(b)];
    });

    for (int v : vars) {
      if (exhausted()) {
        stats.interrupted = true;
        break;
      }
      int pos = level_of(v);
      int best_pos = pos;
      std::size_t best = current;
      const std::size_t limit =
          best +
          best * static_cast<std::size_t>(options.max_growth_percent) / 100 +
          2;
      // One journey: nearer boundary first, then sweep across to the other
      // one, then settle on the best position seen.
      auto travel = [&](int target) {
        while (pos != target) {
          if (exhausted()) {
            stats.interrupted = true;
            return;
          }
          swap_adjacent_levels(pos < target ? pos : pos - 1);
          ++stats.swaps;
          pos += pos < target ? 1 : -1;
          const std::size_t size = live_size(roots);
          if (size < best) {
            best = size;
            best_pos = pos;
          }
          if (size > limit) return;  // growth damper: stop this direction
        }
      };
      if (pos <= levels - 1 - pos) {
        travel(0);
        if (!stats.interrupted) travel(levels - 1);
      } else {
        travel(levels - 1);
        if (!stats.interrupted) travel(0);
      }
      // Always park at the best position, even on interrupt: the journey
      // above may have left the variable somewhere worse.
      while (pos != best_pos) {
        swap_adjacent_levels(pos < best_pos ? pos : pos - 1);
        ++stats.swaps;
        pos += pos < best_pos ? 1 : -1;
      }
      current = best;
      // Reclaim this journey's exploration nodes so the next journey's
      // swap loops do not drag dead levels around.
      collect_garbage(roots);
      if (stats.interrupted) break;
    }
  }
  stats.size_after = current;
  reorder_pending_ = false;
  // Rearm well above the new live size so the trigger means real growth,
  // not the table crossing the same threshold again right away.
  reorder_threshold_ =
      std::max<std::size_t>(2 * table_size(), kDefaultReorderThreshold);
  return stats;
}

void Zbdd::set_auto_reorder(bool on, std::size_t threshold) {
  auto_reorder_ = on;
  reorder_threshold_ = threshold != 0 ? threshold : kDefaultReorderThreshold;
  if (!on) reorder_pending_ = false;
}

std::optional<SiftStats> Zbdd::maybe_reorder(const std::vector<Ref>& roots,
                                             const SiftOptions& options) {
  if (!reorder_pending_) return std::nullopt;
  return sift(roots, options);
}

}  // namespace ftsynth
