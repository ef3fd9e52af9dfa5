#include "analysis/cutsets.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <deque>
#include <iterator>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>
#include <unordered_map>
#include <utility>

#include "analysis/cache.h"
#include "analysis/ordering.h"
#include "analysis/probability.h"
#include "bdd/zbdd.h"
#include "bound/frontier.h"
#include "bound/pdag.h"
#include "core/error.h"
#include "fta/simplify.h"

namespace ftsynth {

std::size_t CutSetAnalysis::min_order() const noexcept {
  return cut_sets.empty() ? 0 : cut_sets.front().size();
}

std::vector<const CutSet*> CutSetAnalysis::of_order(std::size_t order) const {
  std::vector<const CutSet*> out;
  for (const CutSet& cs : cut_sets) {
    if (cs.size() == order) out.push_back(&cs);
  }
  return out;
}

std::string CutSetAnalysis::to_string() const {
  std::string out;
  for (const CutSet& cs : cut_sets) {
    out += "{";
    for (std::size_t i = 0; i < cs.size(); ++i) {
      if (i != 0) out += ", ";
      if (cs[i].negated) out += "NOT ";
      out += cs[i].event->name().view();
    }
    out += "}\n";
  }
  if (deadline_exceeded) out += "(deadline exceeded: partial result)\n";
  else if (truncated) out += "(truncated: limits reached)\n";
  return out;
}

namespace {

// -- Interned-bitset working sets ---------------------------------------------
//
// Every (event, polarity) literal of the tree under analysis is interned
// once into a dense id (2 * event_rank + negated), so a working cut set is
// a fixed-width word-array bitset. micsup and mocus rank events by name,
// which makes set_less the canonical output order; zbdd and bound
// rank them in their variable order (see Context::intern). The two
// derived fields make the subsumption hot loop cheap:
//
//   * count: cached popcount -- a set can only be subsumed by a set with
//     strictly fewer literals (equal counts subsume only on equality,
//     which deduplication removes first), so minimisation buckets by it;
//   * signature: the OR-fold of all words -- `(a.sig & ~b.sig) != 0`
//     disproves "a subset of b" with one AND-NOT before the word loop.
struct Set {
  std::vector<std::uint64_t> words;
  std::uint32_t count = 0;       ///< popcount over all words
  std::uint64_t signature = 0;   ///< OR of all words
};

/// Calls `visit(literal)` for every literal of `set`, ascending.
template <typename Visit>
void for_each_literal(const Set& set, Visit&& visit) {
  for (std::size_t w = 0; w < set.words.size(); ++w) {
    std::uint64_t bits = set.words[w];
    while (bits != 0) {
      visit(static_cast<int>(w * 64) + std::countr_zero(bits));
      bits &= bits - 1;
    }
  }
}

void set_insert(Set& set, int literal) {
  std::uint64_t& word = set.words[static_cast<std::size_t>(literal) >> 6];
  const std::uint64_t bit = 1ULL << (literal & 63);
  if ((word & bit) == 0) {
    word |= bit;
    ++set.count;
    set.signature |= bit;
  }
}

/// Set union: the cut-set semantics of an AND combination.
Set set_or(const Set& a, const Set& b) {
  Set out;
  out.words.resize(a.words.size());
  std::uint32_t count = 0;
  for (std::size_t i = 0; i < a.words.size(); ++i) {
    const std::uint64_t word = a.words[i] | b.words[i];
    out.words[i] = word;
    count += static_cast<std::uint32_t>(std::popcount(word));
  }
  out.count = count;
  out.signature = a.signature | b.signature;
  return out;
}

/// True if the set contains both x and NOT x. Polarities of one event are
/// the adjacent bit pair (2k, 2k + 1), which never straddles a word.
bool contradictory(const Set& set) noexcept {
  constexpr std::uint64_t kEvenBits = 0x5555555555555555ULL;
  for (const std::uint64_t word : set.words) {
    if ((word & (word >> 1) & kEvenBits) != 0) return true;
  }
  return false;
}

/// Subset-or-equal test: signature and popcount pre-filters, then the
/// word loop.
bool subset(const Set& small, const Set& big) noexcept {
  if (small.count > big.count) return false;
  if ((small.signature & ~big.signature) != 0) return false;
  for (std::size_t i = 0; i < small.words.size(); ++i) {
    if ((small.words[i] & ~big.words[i]) != 0) return false;
  }
  return true;
}

bool set_equal(const Set& a, const Set& b) noexcept {
  return a.count == b.count && a.words == b.words;
}

/// Canonical working order: by popcount, then by the ascending literal
/// sequence. For equal counts, lexicographic order of the sorted id lists
/// is decided by the lowest differing bit: the common literals below it
/// are shared, so whichever set owns that bit has the smaller id there.
bool set_less(const Set& a, const Set& b) noexcept {
  if (a.count != b.count) return a.count < b.count;
  for (std::size_t i = 0; i < a.words.size(); ++i) {
    if (a.words[i] == b.words[i]) continue;
    const std::uint64_t diff = a.words[i] ^ b.words[i];
    return (a.words[i] & (diff & -diff)) != 0;
  }
  return false;
}

/// Shared bookkeeping: the literal interning table and limit tracking.
class Context {
 public:
  explicit Context(const CutSetOptions& options)
      : options_(options), budget_(options.budget) {}

  /// Interns `events` (their rank is their listing index); every
  /// literal_id() lookup and bitset width derives from this table, so it
  /// must run before any set is built. zbdd and bound pass their
  /// variable order, since a literal id is a diagram variable or PDAG
  /// literal; finish() then sorts by name rank. micsup and mocus use
  /// intern_by_name.
  /// `original` is the caller's tree: finish() points every literal at
  /// its equally-named leaf there (the engines run on a normalised copy
  /// whose nodes die with the run).
  void intern(std::vector<const FtNode*> events, const FaultTree& original) {
    events_ = std::move(events);
    event_index_.reserve(events_.size());
    name_index_.reserve(events_.size());
    for (std::size_t i = 0; i < events_.size(); ++i) {
      event_index_.emplace(events_[i], static_cast<int>(i));
      name_index_.emplace(events_[i]->name(), static_cast<int>(i));
    }
    words_ = (2 * events_.size() + 63) / 64;
    std::vector<int> by_name(events_.size());
    std::iota(by_name.begin(), by_name.end(), 0);
    const auto name_less = [&](int a, int b) {
      return events_[static_cast<std::size_t>(a)]->name() <
             events_[static_cast<std::size_t>(b)]->name();
    };
    if (!std::is_sorted(by_name.begin(), by_name.end(), name_less))
      std::stable_sort(by_name.begin(), by_name.end(), name_less);
    rank_.resize(events_.size());
    leaves_.resize(events_.size());
    for (std::size_t r = 0; r < by_name.size(); ++r) {
      const auto i = static_cast<std::size_t>(by_name[r]);
      rank_[i] = static_cast<int>(r);
      leaves_[r] = original.find_event(events_[i]->name());
      if (i != r) ids_by_name_ = false;
    }
  }

  /// Interns `events` in name order: literal ids then order like the
  /// (name, polarity) literals they stand for, so set_less IS the
  /// canonical cut-set order and finish() emits minimise()'s output as is.
  void intern_by_name(std::vector<const FtNode*> events,
                      const FaultTree& original) {
    std::sort(events.begin(), events.end(),
              [](const FtNode* a, const FtNode* b) {
                return a->name() < b->name();
              });
    intern(std::move(events), original);
  }

  /// Amortised deadline probe for the engines' hot loops. Once it fires
  /// the run is marked partial and every later probe returns true
  /// immediately, so the engines unwind fast.
  bool deadline_hit() noexcept {
    if (deadline_exceeded_) return true;
    if (!budget_.poll()) return false;
    mark_deadline();
    return true;
  }

  /// Latches the deadline flags without probing (the ZBDD engine learns of
  /// expiry from the manager's interrupt, not from its own probe).
  void mark_deadline() noexcept {
    deadline_exceeded_ = true;
    truncated_ = true;
  }

  int literal_id(const FtNode* event, bool negated) const {
    auto it = event_index_.find(event);
    check_internal(it != event_index_.end(),
                   "cut-set literal was not interned");
    return it->second * 2 + (negated ? 1 : 0);
  }

  /// Literal id for an interned event name, or -1 when the name is not in
  /// this analysis's universe (a cone-cache entry that cannot be mapped).
  int literal_id_by_name(Symbol name, bool negated) const {
    auto it = name_index_.find(name);
    if (it == name_index_.end()) return -1;
    return it->second * 2 + (negated ? 1 : 0);
  }

  const FtNode* event_of(int literal) const {
    return events_[static_cast<std::size_t>(literal / 2)];
  }

  /// The original tree's leaf for interned event `index`; null when the
  /// normalised copy invented the event.
  const FtNode* original_leaf(std::size_t index) const {
    return leaves_[static_cast<std::size_t>(rank_[index])];
  }

  /// True while no limit or deadline has bitten: results so far are exact,
  /// so they are safe to publish into a cone cache.
  bool clean() const noexcept { return !truncated_ && !deadline_exceeded_; }

  Set empty_set() const { return Set{std::vector<std::uint64_t>(words_), 0, 0}; }

  Set literal_set(int literal) const {
    Set set = empty_set();
    set_insert(set, literal);
    return set;
  }

  Set set_from_literals(const std::vector<int>& literals) const {
    Set set = empty_set();
    for (int literal : literals) set_insert(set, literal);
    return set;
  }

  /// Applies the order/count limits; sets the truncation flag when they
  /// bite. Keeps the smallest sets when over the count limit.
  std::vector<Set> clamp(std::vector<Set> sets) {
    std::vector<Set> kept;
    kept.reserve(sets.size());
    for (Set& set : sets) {
      if (set.count > options_.max_order) {
        truncated_ = true;
        continue;
      }
      kept.push_back(std::move(set));
    }
    if (kept.size() > options_.max_sets) {
      truncated_ = true;
      // The kept prefix is the first max_sets sets of the listing order,
      // whatever the engine.
      sort_canonical(kept);
      kept.resize(options_.max_sets);
    }
    return kept;
  }

  /// Sorts `sets` into the canonical (size, name, polarity) order that
  /// finish() lists. Under name-ranked ids that is set_less (a no-op on
  /// minimise() output); otherwise it sorts on each set's name_keys.
  void sort_canonical(std::vector<Set>& sets) const {
    if (ids_by_name_) {
      if (!std::is_sorted(sets.begin(), sets.end(), set_less))
        std::sort(sets.begin(), sets.end(), set_less);
      return;
    }
    std::vector<std::pair<std::vector<int>, Set>> keyed;
    keyed.reserve(sets.size());
    for (Set& set : sets) keyed.emplace_back(name_keys(set), std::move(set));
    std::sort(keyed.begin(), keyed.end(), [](const auto& a, const auto& b) {
      return keys_less(a.first, b.first);
    });
    for (std::size_t i = 0; i < sets.size(); ++i)
      sets[i] = std::move(keyed[i].second);
  }

  /// Lists `sets` in the canonical (size, name, polarity) order, every
  /// literal pointing into the original tree. Name-ranked ids in set_less
  /// order -- every clean micsup or mocus run -- are that order already
  /// and are emitted in one pass. Otherwise (zbdd, bdd, bound, partial
  /// runs) each set becomes its sorted `2 * name_rank + negated` keys and
  /// the keys are sorted once: integers only, never names.
  CutSetAnalysis finish(std::vector<Set> sets) const {
    CutSetAnalysis analysis;
    analysis.truncated = truncated_;
    analysis.deadline_exceeded = deadline_exceeded_;
    analysis.peak_sets = peak_sets_;
    analysis.cut_sets.reserve(sets.size());
    const auto literal = [&](int key) {
      const FtNode* leaf = leaves_[static_cast<std::size_t>(key / 2)];
      if (leaf == nullptr) {
        const auto index = static_cast<std::size_t>(
            std::find(rank_.begin(), rank_.end(), key / 2) - rank_.begin());
        check_internal(false, "normalised tree invented leaf '" +
                                  events_[index]->name().str() + "'");
      }
      return CutLiteral{leaf, (key & 1) != 0};
    };
    if (ids_by_name_ && std::is_sorted(sets.begin(), sets.end(), set_less)) {
      for (const Set& set : sets) {
        CutSet cs;
        cs.reserve(set.count);
        for_each_literal(set, [&](int lit) { cs.push_back(literal(lit)); });
        analysis.cut_sets.push_back(std::move(cs));
      }
      return analysis;
    }
    std::vector<std::vector<int>> keyed;
    keyed.reserve(sets.size());
    for (const Set& set : sets) keyed.push_back(name_keys(set));
    std::sort(keyed.begin(), keyed.end(), keys_less);
    for (const std::vector<int>& keys : keyed) {
      CutSet cs;
      cs.reserve(keys.size());
      for (int key : keys) cs.push_back(literal(key));
      analysis.cut_sets.push_back(std::move(cs));
    }
    return analysis;
  }

  /// `set` as its ascending `2 * name_rank + negated` keys.
  std::vector<int> name_keys(const Set& set) const {
    std::vector<int> keys;
    keys.reserve(set.count);
    for_each_literal(set, [&](int lit) {
      keys.push_back(2 * rank_[static_cast<std::size_t>(lit / 2)] +
                     (lit & 1));
    });
    if (!ids_by_name_) std::sort(keys.begin(), keys.end());
    return keys;
  }

  /// The canonical order on name_keys: size first, then lexicographic.
  static bool keys_less(const std::vector<int>& a,
                        const std::vector<int>& b) {
    if (a.size() != b.size()) return a.size() < b.size();
    return a < b;
  }

  void track_peak(std::size_t size) noexcept {
    peak_sets_ = std::max(peak_sets_, size);
  }
  void mark_truncated() noexcept { truncated_ = true; }
  const CutSetOptions& options() const noexcept { return options_; }

 private:
  const CutSetOptions& options_;
  Budget budget_;  ///< run-local copy (amortised deadline tick)
  std::unordered_map<const FtNode*, int> event_index_;
  std::unordered_map<Symbol, int> name_index_;
  std::vector<const FtNode*> events_;
  std::vector<int> rank_;               ///< interned index -> name rank
  std::vector<const FtNode*> leaves_;   ///< name rank -> original leaf
  bool ids_by_name_ = true;             ///< rank_ is the identity
  std::size_t words_ = 0;
  bool truncated_ = false;
  bool deadline_exceeded_ = false;
  std::size_t peak_sets_ = 0;
};

/// Removes non-minimal, duplicate and contradictory sets; result is sorted
/// canonically (set_less). Input already in that order (merged or
/// minimised families) skips the sort. The subsumption pass is quadratic
/// in the worst case, so on large batches it probes the deadline (when a
/// context is given) and returns the partially-minimised prefix on
/// expiry. Two observations cut the constant far below the naive scan:
///
///   * popcount bucketing -- after the canonical sort candidates arrive in
///     ascending popcount order, duplicates are adjacent (removed up
///     front), and a survivor can only subsume a candidate with strictly
///     more literals, so every bucket scan stops at the first entry whose
///     count reaches the candidate's;
///   * lowest-literal indexing -- a subsumer is a subset of the candidate,
///     so its lowest literal is one of the candidate's own literals: the
///     kept list is bucketed by lowest literal id and a candidate with k
///     literals is screened against just those k buckets, a small slice of
///     the survivors. Bucket entries carry (count, signature) so the scan
///     stays in one dense array until a signature actually passes.
std::vector<Set> minimise(std::vector<Set> sets, Context* context = nullptr) {
  if (!std::is_sorted(sets.begin(), sets.end(), set_less))
    std::sort(sets.begin(), sets.end(), set_less);
  sets.erase(std::unique(sets.begin(), sets.end(), set_equal), sets.end());
  if (sets.empty()) return {};
  // The empty set sorts first and absorbs every other set. It also has no
  // lowest literal to index under, so it gets its own exit rather than a
  // bucket.
  if (sets[0].count == 0) {
    std::vector<Set> kept;
    kept.push_back(std::move(sets[0]));
    return kept;
  }
  struct IndexEntry {
    std::uint32_t count;      ///< popcount of kept[index]
    std::uint32_t index;      ///< position in the kept list
    std::uint64_t signature;  ///< signature of kept[index]
  };
  const std::size_t universe = sets[0].words.size() * 64;
  std::vector<std::vector<IndexEntry>> buckets(universe);
  std::vector<Set> kept;
  // True when some survivor subsumes the candidate. Only the buckets of
  // the candidate's own literals can hold one, and entries are appended
  // in ascending count order, so each bucket scan breaks early.
  const auto screened_out = [&](const Set& candidate) {
    const std::uint64_t not_sig = ~candidate.signature;
    for (std::size_t w = 0; w < candidate.words.size(); ++w) {
      std::uint64_t bits = candidate.words[w];
      while (bits != 0) {
        const std::size_t literal =
            w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
        bits &= bits - 1;
        for (const IndexEntry& entry : buckets[literal]) {
          if (entry.count >= candidate.count) break;
          if ((entry.signature & not_sig) != 0) continue;
          if (subset(kept[entry.index], candidate)) return true;
        }
      }
    }
    return false;
  };
  const auto keep = [&](Set& candidate) {
    for (std::size_t w = 0; w < candidate.words.size(); ++w) {
      if (candidate.words[w] == 0) continue;
      const std::size_t lowest =
          w * 64 + static_cast<std::size_t>(std::countr_zero(candidate.words[w]));
      buckets[lowest].push_back(
          IndexEntry{candidate.count, static_cast<std::uint32_t>(kept.size()),
                     candidate.signature});
      break;
    }
    kept.push_back(std::move(candidate));
  };
  for (Set& candidate : sets) {
    if (context != nullptr && context->deadline_hit()) break;
    if (contradictory(candidate)) continue;
    if (!screened_out(candidate)) keep(candidate);
  }
  return kept;
}

// -- Cone-cache bridge ---------------------------------------------------------
//
// Cached families are tree-independent (event name + polarity); the
// helpers below translate between them and this analysis's interned
// bitsets. Lookups re-canonicalise with the LOCAL set_less order, so a
// cache-resolved family is literal-for-literal the one minimise() would
// have returned here -- the substitution is invisible in the output.

using NodeHashes =
    std::unordered_map<const FtNode*, StructuralHash, std::hash<const FtNode*>>;

/// The options' cone cache when its keyspace matches this engine + limit
/// configuration; null otherwise (a mismatched cache is ignored, since its
/// families were computed under a different truncation regime).
ConeCache* usable_cache(const CutSetOptions& options,
                        std::string_view engine) {
  ConeCache* cache = options.cone_cache;
  if (cache == nullptr) return nullptr;
  const ConeKeyspace& keyspace = cache->keyspace();
  if (keyspace.engine != engine || keyspace.max_order != options.max_order ||
      keyspace.max_sets != options.max_sets)
    return nullptr;
  return cache;
}

/// Cached family -> local bitsets, canonically sorted (a family stored by
/// this engine under name-ranked ids arrives sorted). nullopt when some
/// event name is outside this analysis's universe (possible only for a
/// foreign/corrupt persistent entry; treated as a miss).
std::optional<std::vector<Set>> sets_from_family(const ConeFamily& family,
                                                 const Context& context) {
  std::vector<Set> sets;
  sets.reserve(family.sets.size());
  for (const std::vector<ConeLiteral>& cached : family.sets) {
    Set set = context.empty_set();
    for (const ConeLiteral& literal : cached) {
      const int id = context.literal_id_by_name(literal.event, literal.negated);
      if (id < 0) return std::nullopt;
      set_insert(set, id);
    }
    sets.push_back(std::move(set));
  }
  if (!std::is_sorted(sets.begin(), sets.end(), set_less))
    std::sort(sets.begin(), sets.end(), set_less);
  return sets;
}

/// Local bitsets -> cached family, preserving set order (already canonical
/// on every store path: minimise() emits sets in set_less order).
ConeFamily family_from_sets(const std::vector<Set>& sets,
                            const Context& context) {
  ConeFamily family;
  family.sets.reserve(sets.size());
  for (const Set& set : sets) {
    std::vector<ConeLiteral> literals;
    literals.reserve(set.count);
    for_each_literal(set, [&](int lit) {
      literals.push_back({context.event_of(lit)->name(), (lit & 1) != 0});
    });
    family.sets.push_back(std::move(literals));
  }
  return family;
}

/// True for the nodes worth caching: real gates. Leaves and NOT-over-leaf
/// wrappers resolve in O(1) anyway, so caching them only adds lookups.
bool cacheable_cone(const FtNode* node) noexcept {
  return node->kind() == NodeKind::kGate && node->gate() != GateKind::kNot;
}

/// How many sets the ZBDD engine samples for the LISTING once keep_diagram
/// is on and the diagram has proved the family over max_sets (the run is
/// flagged truncated regardless; the reliability numbers come exact from
/// the diagram). Comfortably above the 20 sets report rendering shows.
constexpr std::size_t kDiagramSampleSets = 512;

/// Shared root fast-path: when the WHOLE tree's cone is cached, no engine
/// needs to run at all. Returns the finished analysis on a hit.
std::optional<CutSetAnalysis> cached_root_analysis(const FaultTree& flat,
                                                   const NodeHashes& hashes,
                                                   ConeCache* cache,
                                                   Context& context) {
  if (cache == nullptr || flat.top() == nullptr ||
      !cacheable_cone(flat.top()))
    return std::nullopt;
  const std::shared_ptr<const ConeFamily> family =
      cache->find(hashes.at(flat.top()));
  if (family == nullptr) return std::nullopt;
  std::optional<std::vector<Set>> sets = sets_from_family(*family, context);
  if (!sets) return std::nullopt;
  return context.finish(context.clamp(std::move(*sets)));
}

// -- Bottom-up engine ----------------------------------------------------------

class BottomUp {
 public:
  /// `cone_cache` (with `hashes` over the same tree) enables cross-tree
  /// reuse; both may be null for the classic pointer-memoised run.
  BottomUp(const FaultTree& tree, Context& context,
           ConeCache* cone_cache = nullptr, const NodeHashes* hashes = nullptr)
      : tree_(tree),
        context_(context),
        cone_cache_(cone_cache),
        hashes_(hashes) {}

  std::vector<Set> run() {
    const FtNode* top = tree_.top();
    if (top == nullptr) return {};
    // Every AND/OR edge is one use of its child's family; the caller's
    // use of the top's is one more.
    tree_.for_each_reachable([&](const FtNode& node) {
      if (node.kind() != NodeKind::kGate || node.gate() == GateKind::kNot)
        return;
      for (const FtNode* child : node.children()) ++uses_[child];
    });
    ++uses_[top];
    return take(top);
  }

  /// Publishes every memoised gate family into the cone cache. Call only
  /// after a CLEAN run (context.clean()): a family computed under a fired
  /// limit is partial and must never be reused.
  void store_cones() {
    if (cone_cache_ == nullptr) return;
    for (std::size_t i = 0; i < released_oversize_; ++i)
      cone_cache_->note_oversize_skip();
    for (const auto& [node, sets] : memo_) {
      if (!cacheable_cone(node)) continue;
      if (sets.size() > ConeCache::kMaxCachedSets) {
        // Clean but uncacheable: this engine has no structural form to
        // fall back to (the ZBDD engine stores the diagram instead).
        cone_cache_->note_oversize_skip();
        continue;
      }
      cone_cache_->store(hashes_->at(node), family_from_sets(sets, context_));
    }
  }

 private:
  /// Returns a reference into the memo (stable: unordered_map nodes do not
  /// move on rehash). A cache hit on a diamond-shaped DAG used to copy the
  /// whole intermediate set list on every revisit; callers now copy only
  /// what they combine.
  std::vector<Set>& resolve(const FtNode* node) {
    if (auto it = memo_.find(node); it != memo_.end()) return it->second;
    if (cone_cache_ != nullptr && cacheable_cone(node)) {
      if (const std::shared_ptr<const ConeFamily> family =
              cone_cache_->find(hashes_->at(node))) {
        if (std::optional<std::vector<Set>> sets =
                sets_from_family(*family, context_)) {
          context_.track_peak(sets->size());
          return memo_.emplace(node, std::move(*sets)).first->second;
        }
      }
    }
    std::vector<Set> result = resolve_uncached(node);
    context_.track_peak(result.size());
    return memo_.emplace(node, std::move(result)).first->second;
  }

  /// Counts one use of `node`'s memoised family off. True when that was
  /// the last use and store_cones would never publish the family (no
  /// cache, a leaf, or too many sets): the entry may then leave the memo.
  bool last_use(const FtNode* node, std::size_t size) {
    if (--uses_.at(node) != 0) return false;
    if (cone_cache_ == nullptr || !cacheable_cone(node)) return true;
    if (size <= ConeCache::kMaxCachedSets) return false;
    ++released_oversize_;  // store_cones still reports the skip
    return true;
  }

  /// One use of `node`'s family, as a value: moved out of the memo on its
  /// last use (see last_use), copied otherwise.
  std::vector<Set> take(const FtNode* node) {
    std::vector<Set>& sets = resolve(node);
    if (!last_use(node, sets.size())) return sets;
    std::vector<Set> out = std::move(sets);
    memo_.erase(node);
    return out;
  }

  /// Ends a use of `node`'s family made through resolve().
  void release(const FtNode* node) {
    if (last_use(node, memo_.at(node).size())) memo_.erase(node);
  }

  std::vector<Set> resolve_uncached(const FtNode* node) {
    switch (node->kind()) {
      case NodeKind::kHouse:
        return {context_.empty_set()};  // constant true: the empty cut set
      case NodeKind::kBasic:
      case NodeKind::kUndeveloped:
      case NodeKind::kLoop:
        return {context_.literal_set(context_.literal_id(node, false))};
      case NodeKind::kGate:
        break;
    }
    if (node->gate() == GateKind::kNot) {
      const FtNode* child = node->children().front();
      check_internal(child->is_leaf(),
                     "cut sets need a normalised tree (NOT over leaf)");
      return {context_.literal_set(context_.literal_id(child, true))};
    }
    // Child families arrive minimal and in set_less order. OR merges them
    // (minimise() then only screens); AND minimises after every operand,
    // which is exact -- min(min(A x B) x C) = min(A x B x C) -- and keeps
    // the next cross product small.
    const bool is_or = node->gate() == GateKind::kOr;
    std::vector<Set> acc;
    bool first = true;
    // kPand is quantified by analysis/temporal.h; for cut-set purposes the
    // *event sets* are those of the AND (a conservative upper bound).
    for (const FtNode* child : node->children()) {
      if (context_.deadline_hit()) break;  // keep the partial accumulation
      if (first) {
        acc = take(child);
      } else if (is_or) {
        std::vector<Set> sets = take(child);
        std::vector<Set> merged;
        merged.reserve(acc.size() + sets.size());
        std::merge(std::make_move_iterator(acc.begin()),
                   std::make_move_iterator(acc.end()),
                   std::make_move_iterator(sets.begin()),
                   std::make_move_iterator(sets.end()),
                   std::back_inserter(merged), set_less);
        acc = std::move(merged);
      } else {
        // AND: cross product, dropping contradictions as they appear.
        const std::vector<Set>& sets = resolve(child);
        std::vector<Set> product;
        product.reserve(acc.size() * sets.size());
        for (const Set& a : acc) {
          if (context_.deadline_hit()) break;
          for (const Set& b : sets) {
            Set merged = set_or(a, b);
            if (!contradictory(merged)) product.push_back(std::move(merged));
          }
          if (product.size() > context_.options().max_sets * 4) {
            // Keep the blow-up bounded before minimisation.
            product = context_.clamp(minimise(std::move(product), &context_));
          }
        }
        release(child);
        context_.track_peak(product.size());
        // Past the deadline keep the raw partial product (see below).
        acc = context_.deadline_hit() ? std::move(product)
                                      : minimise(std::move(product), &context_);
      }
      first = false;
      context_.track_peak(acc.size());
    }
    // Past the deadline the result is partial anyway; skip the O(n^2)
    // minimisation so the whole engine unwinds in O(n log n).
    if (context_.deadline_hit() || !is_or) return context_.clamp(std::move(acc));
    return context_.clamp(minimise(std::move(acc), &context_));
  }

  const FaultTree& tree_;
  Context& context_;
  ConeCache* cone_cache_;      ///< not owned; null = no cross-tree reuse
  const NodeHashes* hashes_;   ///< set exactly when cone_cache_ is
  std::unordered_map<const FtNode*, std::vector<Set>> memo_;
  /// Remaining uses of each node's family (run() counts them).
  std::unordered_map<const FtNode*, std::size_t> uses_;
  /// Oversize cacheable families dropped from the memo before store_cones.
  std::size_t released_oversize_ = 0;
};

// -- Top-down MOCUS engine -------------------------------------------------------

class Mocus {
 public:
  Mocus(const FaultTree& tree, Context& context,
        ConeCache* cone_cache = nullptr, const NodeHashes* hashes = nullptr)
      : tree_(tree),
        context_(context),
        cone_cache_(cone_cache),
        hashes_(hashes) {}

  std::vector<Set> run() {
    const FtNode* top = tree_.top();
    if (top == nullptr) return {};

    // A row is a conjunction of unresolved nodes plus resolved literals.
    struct Row {
      std::vector<const FtNode*> gates;
      Set literals;
    };
    std::deque<Row> rows;
    rows.push_back({{top}, context_.empty_set()});
    std::vector<Set> done;

    while (!rows.empty()) {
      if (context_.deadline_hit()) break;  // finish with the sets done so far
      Row row = std::move(rows.front());
      rows.pop_front();
      context_.track_peak(rows.size() + done.size());
      if (row.gates.empty()) {
        if (row.literals.count > context_.options().max_order) {
          context_.mark_truncated();
        } else if (!contradictory(row.literals)) {
          done.push_back(std::move(row.literals));
        }
        continue;
      }
      const FtNode* node = row.gates.back();
      row.gates.pop_back();
      // Cone-cache short-circuit: a cached gate is semantically an OR over
      // its minimal cut sets, so it expands to one row per set -- the
      // whole subtree below it is never visited.
      if (cone_cache_ != nullptr && cacheable_cone(node)) {
        if (const std::shared_ptr<const ConeFamily> family =
                cone_cache_->find(hashes_->at(node))) {
          if (std::optional<std::vector<Set>> sets =
                  sets_from_family(*family, context_)) {
            for (Set& set : *sets) {
              Row branch;
              branch.gates = row.gates;
              branch.literals = set_or(row.literals, set);
              rows.push_back(std::move(branch));
            }
            continue;
          }
        }
      }
      switch (node->kind()) {
        case NodeKind::kHouse:
          rows.push_back(std::move(row));  // true: contributes nothing
          break;
        case NodeKind::kBasic:
        case NodeKind::kUndeveloped:
        case NodeKind::kLoop:
          set_insert(row.literals, context_.literal_id(node, false));
          rows.push_back(std::move(row));
          break;
        case NodeKind::kGate:
          if (node->gate() == GateKind::kNot) {
            const FtNode* child = node->children().front();
            check_internal(child->is_leaf(),
                           "MOCUS needs a normalised tree (NOT over leaf)");
            set_insert(row.literals, context_.literal_id(child, true));
            rows.push_back(std::move(row));
          } else if (node->gate() == GateKind::kAnd ||
                     node->gate() == GateKind::kPand) {
            for (const FtNode* child : node->children())
              row.gates.push_back(child);
            rows.push_back(std::move(row));
          } else {  // OR: one row per child
            for (const FtNode* child : node->children()) {
              Row branch = row;
              branch.gates.push_back(child);
              rows.push_back(std::move(branch));
            }
          }
          break;
      }
      if (rows.size() > context_.options().max_sets * 4) {
        // Row explosion guard: finish the rows we have, drop the rest.
        context_.mark_truncated();
        while (rows.size() > context_.options().max_sets) rows.pop_back();
      }
    }
    if (context_.deadline_hit()) return context_.clamp(std::move(done));
    return context_.clamp(minimise(std::move(done), &context_));
  }

 private:
  const FaultTree& tree_;
  Context& context_;
  ConeCache* cone_cache_;      ///< not owned; null = classic expansion
  const NodeHashes* hashes_;   ///< set exactly when cone_cache_ is
};

}  // namespace

ConeKeyspace cone_keyspace(const CutSetOptions& options) {
  return {to_string(options.engine), options.max_order, options.max_sets};
}

std::string to_string(CutSetEngine engine) {
  switch (engine) {
    case CutSetEngine::kMicsup:
      return "micsup";
    case CutSetEngine::kMocus:
      return "mocus";
    case CutSetEngine::kZbdd:
      return "zbdd";
    case CutSetEngine::kBound:
      // The bound engine never consults the cone cache (a cached family
      // carries no interval), so as a keyspace tag this only keeps
      // keyspaces distinct.
      return "bound";
  }
  return "micsup";
}

std::optional<CutSetEngine> parse_cut_set_engine(std::string_view text) {
  if (text == "micsup") return CutSetEngine::kMicsup;
  if (text == "mocus") return CutSetEngine::kMocus;
  if (text == "zbdd") return CutSetEngine::kZbdd;
  if (text == "bound") return CutSetEngine::kBound;
  return std::nullopt;
}

CutSetAnalysis minimal_cut_sets(const FaultTree& tree,
                                const CutSetOptions& options) {
  FaultTree flat = normalise(tree);
  Context context(options);
  context.intern_by_name(dfs_variable_order(flat), tree);
  ConeCache* cache = usable_cache(options, "micsup");
  NodeHashes hashes;
  if (cache != nullptr && flat.top() != nullptr)
    hashes = structural_hashes(flat);
  BottomUp engine(flat, context, cache, &hashes);
  std::vector<Set> sets = engine.run();
  if (cache != nullptr && context.clean()) engine.store_cones();
  return context.finish(std::move(sets));
}

CutSetAnalysis mocus_cut_sets(const FaultTree& tree,
                              const CutSetOptions& options) {
  FaultTree flat = normalise(tree);
  Context context(options);
  context.intern_by_name(dfs_variable_order(flat), tree);
  ConeCache* cache = usable_cache(options, "mocus");
  NodeHashes hashes;
  if (cache != nullptr && flat.top() != nullptr)
    hashes = structural_hashes(flat);
  std::vector<Set> sets = Mocus(flat, context, cache, &hashes).run();
  // MOCUS only materialises the root family; publish it so a warm re-run
  // (or a later tree with this exact cone) short-circuits at the top.
  if (cache != nullptr && context.clean() && flat.top() != nullptr &&
      cacheable_cone(flat.top())) {
    if (sets.size() <= ConeCache::kMaxCachedSets) {
      cache->store(hashes.at(flat.top()), family_from_sets(sets, context));
    } else {
      cache->note_oversize_skip();
    }
  }
  return context.finish(std::move(sets));
}

CutSetAnalysis compute_cut_sets(const FaultTree& tree,
                                const CutSetOptions& options) {
  switch (options.engine) {
    case CutSetEngine::kMocus:
      return mocus_cut_sets(tree, options);
    case CutSetEngine::kZbdd:
      return zbdd_cut_sets(tree, options);
    case CutSetEngine::kBound:
      return bound_cut_sets(tree, options);
    case CutSetEngine::kMicsup:
      break;
  }
  return minimal_cut_sets(tree, options);
}

std::vector<std::vector<int>> minimise_literal_sets(
    const std::vector<std::vector<int>>& sets, int universe) {
  check_internal(universe >= 0, "literal universe must be non-negative");
  const std::size_t words =
      (static_cast<std::size_t>(universe) + 63) / 64;
  std::vector<Set> packed;
  packed.reserve(sets.size());
  for (const std::vector<int>& literals : sets) {
    Set set{std::vector<std::uint64_t>(words), 0, 0};
    for (int literal : literals) {
      check_internal(literal >= 0 && literal < universe,
                     "literal id outside the declared universe");
      set_insert(set, literal);
    }
    packed.push_back(std::move(set));
  }
  std::vector<std::vector<int>> out;
  out.reserve(packed.size());
  for (const Set& set : minimise(std::move(packed))) {
    std::vector<int> literals;
    literals.reserve(set.count);
    for_each_literal(set, [&](int lit) { literals.push_back(lit); });
    out.push_back(std::move(literals));
  }
  return out;
}

// -- Symbolic ZBDD engine --------------------------------------------------------

CutSetAnalysis zbdd_cut_sets(const FaultTree& tree,
                             const CutSetOptions& options) {
  FaultTree flat = normalise(tree);
  Context context(options);
  std::vector<const FtNode*> order = dfs_variable_order(flat);
  context.intern(order, tree);
  if (flat.top() == nullptr) return context.finish({});

  ConeCache* cache = usable_cache(options, "zbdd");
  NodeHashes hashes;
  if (cache != nullptr) hashes = structural_hashes(flat);
  if (std::optional<CutSetAnalysis> hit =
          cached_root_analysis(flat, hashes, cache, context)) {
    // The whole tree's family is cached: skip the diagram entirely (and
    // the ordering policy with it -- there is no diagram to reorder).
    return std::move(*hit);
  }

  // The manager lives inside the diagram handle so that keep_diagram can
  // hand it to the caller without a move; without the flag the handle
  // simply dies with this frame.
  auto diagram_handle = std::make_shared<CutSetDiagram>();
  Zbdd& zbdd = diagram_handle->zbdd;
  // Literal id == ZBDD variable: two per event, the plain polarity first,
  // events in depth-first occurrence order (the shared static heuristic --
  // the SEED order; the sift policy may move it afterwards).
  for (std::size_t i = 0; i < 2 * order.size(); ++i) zbdd.new_var();
  Budget budget = options.budget;  // run-local copy sharing the latch
  zbdd.set_budget(&budget);
  // Node ceiling: proportional to the set ceiling (a family of max_sets
  // cut sets rarely needs more nodes than literals-per-set times sets),
  // with a floor so small limits cannot starve genuine diagrams.
  zbdd.set_node_limit(options.max_sets * 8 + (1u << 16));
  const bool dynamic_order = options.order != OrderPolicy::kStatic;
  if (dynamic_order) zbdd.set_auto_reorder(true);

  std::vector<Set> sets;
  // Declared outside the try so the post-run report covers interrupted
  // runs too: the diagram stays valid when an operation throws.
  Zbdd::Ref contra = Zbdd::kEmpty;
  Zbdd::Ref root = Zbdd::kEmpty;
  bool conversion_complete = false;
  std::unordered_map<const FtNode*, Zbdd::Ref> memo;
  SiftStats sift_total;
  try {
    // Sets holding both polarities of an event are contradictory; the
    // pair family {{x, NOT x}, ...} subtracts them via `without`.
    flat.for_each_reachable([&](const FtNode& node) {
      if (node.kind() != NodeKind::kGate || node.gate() != GateKind::kNot)
        return;
      const FtNode* child = node.children().front();
      check_internal(child->is_leaf(),
                     "cut sets need a normalised tree (NOT over leaf)");
      const int plain = context.literal_id(child, false);
      contra = zbdd.set_union(
          contra, zbdd.product(zbdd.single(plain), zbdd.single(plain + 1)));
    });

    // Cached family -> diagram: union of per-set single-variable products.
    // The family is minimal and contradiction-free by construction (clean
    // producer run), and a ZBDD is canonical per family under a fixed
    // variable order, so this builds the very node convert() would reach.
    auto ref_from_family =
        [&](const ConeFamily& family) -> std::optional<Zbdd::Ref> {
      Zbdd::Ref acc = Zbdd::kEmpty;
      for (const std::vector<ConeLiteral>& cached : family.sets) {
        Zbdd::Ref product = Zbdd::kBase;
        for (const ConeLiteral& literal : cached) {
          const int id =
              context.literal_id_by_name(literal.event, literal.negated);
          if (id < 0) return std::nullopt;
          product = zbdd.product(product, zbdd.single(id));
        }
        acc = zbdd.set_union(acc, product);
      }
      return acc;
    };

    // Cached diagram structure -> diagram: one forward pass over the
    // serialised nodes (children strictly precede parents), each rebuilt
    // as low UNION ({{v}} PRODUCT high). That is make(v, low, high)
    // expressed through public, order-INDEPENDENT set algebra, so a
    // consumer under any current level order -- static, or moved by a
    // different sift history than the producer's -- adopts the entry and
    // re-canonicalises locally. This is what makes cones bigger than
    // kMaxCachedSets warm-startable: the family is never enumerated.
    auto ref_from_diagram =
        [&](const ConeDiagram& cached) -> std::optional<Zbdd::Ref> {
      std::vector<Zbdd::Ref> slots;
      slots.reserve(cached.nodes.size() + 2);
      slots.push_back(Zbdd::kEmpty);
      slots.push_back(Zbdd::kBase);
      for (const ConeDiagramNode& node : cached.nodes) {
        const int id = context.literal_id_by_name(node.event, node.negated);
        if (id < 0) return std::nullopt;
        if (node.low >= slots.size() || node.high >= slots.size())
          return std::nullopt;
        slots.push_back(zbdd.set_union(
            slots[node.low], zbdd.product(zbdd.single(id), slots[node.high])));
      }
      if (cached.root >= slots.size()) return std::nullopt;
      return slots[cached.root];
    };

    // Everything resolvable without recursing into gate children: memo
    // hits, cached cones, leaves and (normalised) NOT gates. AND/OR gates
    // return nullopt and get an explicit conversion frame below.
    auto resolve_simple =
        [&](const FtNode* node) -> std::optional<Zbdd::Ref> {
      if (auto it = memo.find(node); it != memo.end()) return it->second;
      if (cache != nullptr && cacheable_cone(node)) {
        if (const ConeCache::ConeHit hit = cache->find_any(hashes.at(node))) {
          std::optional<Zbdd::Ref> cached =
              hit.family != nullptr ? ref_from_family(*hit.family)
                                    : ref_from_diagram(*hit.diagram);
          if (cached) {
            memo.emplace(node, *cached);
            return *cached;
          }
        }
      }
      Zbdd::Ref result = Zbdd::kEmpty;
      switch (node->kind()) {
        case NodeKind::kHouse:
          result = Zbdd::kBase;  // constant true: the empty cut set
          break;
        case NodeKind::kBasic:
        case NodeKind::kUndeveloped:
        case NodeKind::kLoop:
          result = zbdd.single(context.literal_id(node, false));
          break;
        case NodeKind::kGate: {
          if (node->gate() != GateKind::kNot) return std::nullopt;
          const FtNode* child = node->children().front();
          check_internal(child->is_leaf(),
                         "cut sets need a normalised tree (NOT over leaf)");
          result = zbdd.single(context.literal_id(child, true));
          break;
        }
      }
      memo.emplace(node, result);
      return result;
    };

    // Bottom-up conversion with per-node memoisation: shared subtrees of
    // the DAG convert once, and every memoised family is already minimal.
    //
    // The walk is an explicit postorder stack rather than recursion so
    // that EVERY live intermediate family is enumerable: dynamic
    // reordering garbage-collects at its safe points, and a partial
    // accumulator hiding in a recursive activation record would be swept.
    struct Frame {
      const FtNode* node;
      std::size_t next = 0;  ///< index of the next child to combine
      Zbdd::Ref acc = Zbdd::kEmpty;
    };
    std::vector<Frame> frames;
    // Every ref the engine still holds -- the GC root set for reordering.
    auto live_roots = [&]() {
      std::vector<Zbdd::Ref> roots;
      roots.reserve(memo.size() + frames.size() + 2);
      roots.push_back(contra);
      roots.push_back(root);
      for (const auto& [node, ref] : memo) roots.push_back(ref);
      for (const Frame& frame : frames) roots.push_back(frame.acc);
      return roots;
    };
    // Honours a pressure-flagged reorder between operations. make() never
    // reorders itself: an operation mid-flight holds node copies on the C++
    // stack that an in-place swap would silently bypass.
    SiftOptions sift_options;
    sift_options.budget = &budget;
    auto reorder_point = [&]() {
      if (!zbdd.reorder_pending()) return;
      if (std::optional<SiftStats> stats =
              zbdd.maybe_reorder(live_roots(), sift_options))
        sift_total.merge(*stats);
    };

    auto convert = [&](const FtNode* top) -> Zbdd::Ref {
      if (std::optional<Zbdd::Ref> simple = resolve_simple(top))
        return *simple;
      frames.push_back(
          {top, 0, top->gate() == GateKind::kOr ? Zbdd::kEmpty : Zbdd::kBase});
      while (!frames.empty()) {
        Frame& frame = frames.back();
        const FtNode* node = frame.node;
        const bool is_or = node->gate() == GateKind::kOr;
        if (frame.next < node->children().size()) {
          const FtNode* child = node->children()[frame.next];
          std::optional<Zbdd::Ref> ready = resolve_simple(child);
          if (!ready) {
            // Descend. push_back invalidates `frame`: touch nothing after.
            frames.push_back({child, 0,
                              child->gate() == GateKind::kOr ? Zbdd::kEmpty
                                                             : Zbdd::kBase});
            continue;
          }
          ++frame.next;
          frame.acc = is_or ? zbdd.set_union(frame.acc, *ready)
                            : zbdd.product(frame.acc, *ready);
          reorder_point();  // acc is rooted via the frame: safe point
          continue;
        }
        // All children combined: finalise this gate.
        Zbdd::Ref result = frame.acc;
        if (!is_or) {  // AND; kPand conservatively as AND (analysis/temporal.h)
          if (contra != Zbdd::kEmpty) result = zbdd.without(result, contra);
        }
        result = zbdd.minimal(result);
        memo.emplace(node, result);
        frames.pop_back();
        reorder_point();
      }
      return memo.at(top);
    };

    root = zbdd.minimal(convert(flat.top()));
    conversion_complete = true;
    // For the symbolic engine the working set IS the diagram.
    context.track_peak(zbdd.size());

    // Final explicit pass: pressure may never have fired (small diagrams)
    // or may have left gains on the table; the sift policy always ends on
    // a locally minimal order. The budget still applies -- an interrupted
    // pass parks at the best order seen and degrades, never corrupts.
    if (dynamic_order) sift_total.merge(zbdd.sift(live_roots(), sift_options));

    // Extract the minimal family. The limits apply per path: long sets
    // are skipped (max_order), the enumeration stops at max_sets.
    //
    // Diagram-native mode makes extraction a LISTING concern only: the
    // reliability numbers come from diagram sweeps, so once set_count()
    // proves the family over max_sets (the run is truncated either way)
    // there is no reason to enumerate the full quota -- a bounded sample
    // keeps the listing informative while the dominant cost of huge-family
    // runs disappears.
    std::size_t extract_cap = context.options().max_sets;
    const double family_size = zbdd.set_count(root);
    if (options.keep_diagram && family_size > static_cast<double>(extract_cap))
      extract_cap = std::min(extract_cap, kDiagramSampleSets);
    std::vector<int> path;
    bool truncated_paths = false;
    if (family_size <= static_cast<double>(extract_cap)) {
      // The whole family fits the cap: one diagram-order walk lists it
      // all, and finish() sorts canonically. Only max_order can truncate.
      auto extract = [&](auto&& self, Zbdd::Ref ref) -> void {
        if (context.deadline_hit()) return;
        if (ref == Zbdd::kEmpty) return;
        if (sets.size() > extract_cap) {
          truncated_paths = true;
          return;
        }
        if (ref == Zbdd::kBase) {
          if (path.size() > context.options().max_order) {
            truncated_paths = true;
            return;
          }
          sets.push_back(context.set_from_literals(path));
          return;
        }
        const Zbdd::Node node = zbdd.node(ref);
        self(self, node.low);
        path.push_back(node.var);
        self(self, node.high);
        path.pop_back();
      };
      extract(extract, root);
    } else {
      // Truncated family: the listing is a bounded sample. Sample it
      // CANONICALLY -- smallest sets first, by name within one order, as
      // every engine's clamp() keeps them -- instead of in diagram order:
      // diagram order follows the variable order, which dynamic
      // reordering moves, and stdout must not depend on it. Per-node
      // order bounds prune each sweep to the subgraphs that can hold a
      // set of the wanted size; the enumeration ceiling bounds the
      // boundary order's cost (a sample past the ceiling keeps the
      // enumeration prefix -- the documented residual, docs/FORMATS.md).
      truncated_paths = true;
      constexpr std::size_t kNoSets = std::numeric_limits<std::size_t>::max();
      std::unordered_map<Zbdd::Ref, std::pair<std::size_t, std::size_t>>
          bounds;  // min / max literals over the node's family
      auto order_bounds = [&](auto&& self, Zbdd::Ref ref)
          -> std::pair<std::size_t, std::size_t> {
        if (ref == Zbdd::kEmpty) return {kNoSets, 0};
        if (ref == Zbdd::kBase) return {0, 0};
        if (auto it = bounds.find(ref); it != bounds.end()) return it->second;
        const Zbdd::Node node = zbdd.node(ref);
        const auto low = self(self, node.low);
        const auto high = self(self, node.high);  // never the empty family
        const std::pair<std::size_t, std::size_t> result{
            std::min(low.first,
                     high.first == kNoSets ? kNoSets : high.first + 1),
            std::max(low.second, high.second + 1)};
        bounds.emplace(ref, result);
        return result;
      };
      const auto root_bounds = order_bounds(order_bounds, root);
      const std::size_t k_hi =
          std::min(root_bounds.second, context.options().max_order);
      const std::size_t ceiling =
          std::max<std::size_t>(4 * extract_cap, std::size_t{1} << 16);
      std::vector<Set> order_sets;
      auto enumerate = [&](auto&& self, Zbdd::Ref ref,
                           std::size_t want) -> bool {
        if (ref == Zbdd::kEmpty) return true;
        if (context.deadline_hit()) return false;
        if (ref == Zbdd::kBase) {
          if (want == 0) {
            if (order_sets.size() >= ceiling) return false;
            order_sets.push_back(context.set_from_literals(path));
          }
          return true;
        }
        const auto node_bounds = order_bounds(order_bounds, ref);
        if (node_bounds.first > want || node_bounds.second < want)
          return true;  // no set of exactly `want` literals below here
        const Zbdd::Node node = zbdd.node(ref);
        if (!self(self, node.low, want)) return false;
        if (want > 0) {
          path.push_back(node.var);
          const bool keep_going = self(self, node.high, want - 1);
          path.pop_back();
          if (!keep_going) return false;
        }
        return true;
      };
      bool stop = false;
      for (std::size_t k = root_bounds.first;
           !stop && k <= k_hi && sets.size() < extract_cap; ++k) {
        order_sets.clear();
        if (!enumerate(enumerate, root, k)) stop = true;
        context.sort_canonical(order_sets);
        for (Set& set : order_sets) {
          if (sets.size() >= extract_cap) break;
          sets.push_back(std::move(set));
        }
      }
    }
    if (truncated_paths) context.mark_truncated();

    // Publish every memoised gate family after a CLEAN run (partial
    // diagrams must never be reused). Enumeration cost is bounded by the
    // same cap the other engines use. The diagram enumerates in the
    // CURRENT variable order, which the sift policy may have moved, so
    // re-canonicalise (sort literals per set, sets by set_less) -- cache
    // contents, like stdout, must be byte-identical across policies.
    if (cache != nullptr && context.clean() && !context.deadline_hit()) {
      // Cone diagram -> serialised structure, postorder (low child first)
      // so children land on earlier slots than every parent. Serialised
      // under the CURRENT variable order; consumers rebuild with
      // order-independent algebra, so the entry stays valid whatever
      // order they run under (the file bytes, unlike family entries, DO
      // depend on the producer's order policy -- an accepted asymmetry,
      // documented in docs/FORMATS.md, that never reaches stdout because
      // extraction re-canonicalises).
      auto diagram_from_ref = [&](Zbdd::Ref ref) -> ConeDiagram {
        ConeDiagram out;
        std::unordered_map<Zbdd::Ref, std::uint32_t> slot;
        auto slot_of = [&](Zbdd::Ref r) -> std::uint32_t {
          if (r == Zbdd::kEmpty) return 0;
          if (r == Zbdd::kBase) return 1;
          return slot.at(r) + 2;
        };
        struct Frame {
          Zbdd::Ref ref;
          int stage;  // 0 = visit low, 1 = visit high, 2 = emit
        };
        std::vector<Frame> stack;
        if (!zbdd.is_terminal(ref)) stack.push_back({ref, 0});
        while (!stack.empty()) {
          Frame& frame = stack.back();
          if (frame.stage == 2) {
            if (slot.find(frame.ref) == slot.end()) {
              const Zbdd::Node& node = zbdd.node(frame.ref);
              const std::uint32_t low = slot_of(node.low);
              const std::uint32_t high = slot_of(node.high);
              slot.emplace(frame.ref,
                           static_cast<std::uint32_t>(out.nodes.size()));
              out.nodes.push_back({context.event_of(node.var)->name(),
                                   (node.var & 1) != 0, low, high});
            }
            stack.pop_back();
            continue;
          }
          const Zbdd::Node& node = zbdd.node(frame.ref);
          const Zbdd::Ref child = frame.stage == 0 ? node.low : node.high;
          ++frame.stage;
          if (!zbdd.is_terminal(child) && slot.find(child) == slot.end())
            stack.push_back({child, 0});
        }
        out.root = slot_of(ref);
        return out;
      };
      for (const auto& [node, ref] : memo) {
        if (!cacheable_cone(node)) continue;
        if (zbdd.set_count(ref) >
            static_cast<double>(ConeCache::kMaxCachedSets)) {
          // Too many sets to enumerate -- the very cones the diagram
          // record kind exists for. Only a diagram too big for the node
          // cap stays uncacheable.
          if (zbdd.node_count(ref) <= ConeCache::kMaxCachedDiagramNodes) {
            cache->store_diagram(hashes.at(node), diagram_from_ref(ref));
          } else {
            cache->note_oversize_skip();
          }
          continue;
        }
        std::vector<Set> cone_sets;
        zbdd.for_each_set(ref, [&](const std::vector<int>& literals) {
          cone_sets.push_back(context.set_from_literals(literals));
          return true;
        });
        std::sort(cone_sets.begin(), cone_sets.end(), set_less);
        cache->store(hashes.at(node), family_from_sets(cone_sets, context));
      }
    }
  } catch (const Zbdd::Interrupt& interrupt) {
    // Degrade, don't die: report what we have (usually nothing from the
    // conversion phase) with the honest flags.
    if (interrupt.deadline_exceeded) context.mark_deadline();
    context.mark_truncated();
  }

  // Reordering report (--verbose): live sizes after a final sweep, the
  // stats the sifting accumulated, and the order the run ended on. Built
  // for static runs too so the policies are directly comparable.
  zbdd.collect_garbage([&] {
    std::vector<Zbdd::Ref> roots{contra, root};
    for (const auto& [node, ref] : memo) roots.push_back(ref);
    return roots;
  }());
  ReorderReport report;
  report.policy = to_string(options.order);
  report.passes = sift_total.passes;
  report.swaps = sift_total.swaps;
  report.nodes_after = zbdd.table_size();
  report.nodes_before = sift_total.swaps > 0 ? sift_total.size_before
                                             : report.nodes_after;
  report.root_nodes = zbdd.node_count(root);
  for (int level = 0; level < zbdd.var_count(); ++level) {
    if (zbdd.level_width(level) == 0) continue;
    const int literal = zbdd.var_at_level(level);
    std::string name = context.event_of(literal)->name().str();
    report.final_order.push_back((literal & 1) != 0 ? "NOT " + name
                                                    : std::move(name));
  }

  CutSetAnalysis analysis = context.finish(context.clamp(std::move(sets)));
  analysis.reorder = std::move(report);

  if (options.keep_diagram) {
    // The manager outlives this frame inside the handle: detach the
    // run-local budget copy (it dies here) and drop everything but the
    // family itself.
    zbdd.set_budget(nullptr);
    zbdd.collect_garbage({root});
    diagram_handle->root = root;
    diagram_handle->exact = conversion_complete;
    diagram_handle->events.reserve(order.size());
    // Same leaves as the cut-set literals: variable 2r/2r+1 -> the original
    // tree's equally-named leaf (null only for a leaf the normalised copy
    // invented, which finish() above would have rejected for any literal
    // actually reachable).
    for (std::size_t r = 0; r < order.size(); ++r)
      diagram_handle->events.push_back(context.original_leaf(r));
    analysis.diagram = std::move(diagram_handle);
  }
  return analysis;
}

// -- Anytime bound engine --------------------------------------------------------

CutSetAnalysis bound_cut_sets(const FaultTree& tree,
                              const CutSetOptions& options) {
  FaultTree flat = normalise(tree);
  Context context(options);
  std::vector<const FtNode*> order = dfs_variable_order(flat);
  context.intern(order, tree);

  // The frontier is probability-driven, so the basic probabilities enter
  // here rather than at the reporting stage; polarity adjustment happens
  // inside the PDAG (literal ids match this context's convention).
  ProbabilityOptions prob;
  prob.mission_time_hours = options.bound_mission_time_hours;
  prob.default_event_probability = options.bound_default_probability;
  std::vector<double> probabilities;
  probabilities.reserve(order.size());
  for (const FtNode* event : order)
    probabilities.push_back(event_probability(*event, prob));
  const bound::Pdag pdag = bound::compile_pdag(flat, order, probabilities);

  bound::BoundLimits limits;
  limits.epsilon = options.bound_epsilon;
  limits.max_order = options.max_order;
  limits.max_sets = options.max_sets;
  limits.max_expansions = options.budget.max_nodes;
  limits.budget = options.budget;
  bound::BoundOutcome outcome = bound::drain_frontier(pdag, limits);

  if (outcome.deadline_exceeded) context.mark_deadline();
  if (outcome.truncated) context.mark_truncated();
  context.track_peak(outcome.stats.peak_frontier);

  // Best-first emission is probability-ordered, not subset-ordered: a
  // later, smaller set can subsume an earlier one, so the canonical
  // minimisation pass still runs. On exhausted runs the result is the
  // exact minimal family -- literal-for-literal what the exact engines
  // return through this same kernel.
  std::vector<Set> sets;
  sets.reserve(outcome.products.size());
  for (const std::vector<int>& product : outcome.products)
    sets.push_back(context.set_from_literals(product));
  CutSetAnalysis analysis =
      context.finish(context.clamp(minimise(std::move(sets), &context)));

  analysis.p_lower = outcome.p_lower;
  analysis.p_upper = outcome.p_upper;
  analysis.converged = outcome.converged;
  FrontierStats stats;
  stats.rounds = outcome.stats.rounds;
  stats.expansions = outcome.stats.expansions;
  stats.emitted = outcome.stats.emitted;
  stats.peak_frontier = outcome.stats.peak_frontier;
  stats.subsumed = outcome.stats.subsumed;
  stats.deferred = outcome.stats.deferred;
  analysis.frontier_stats = stats;
  return analysis;
}

}  // namespace ftsynth
