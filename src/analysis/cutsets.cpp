#include "analysis/cutsets.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>
#include <unordered_map>
#include <utility>

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

// -- Flat cut-set families ----------------------------------------------------
//
// Every (event, polarity) literal of the tree under analysis is interned
// once into a dense id (2 * event_rank + negated), so a cut set is a
// fixed-width word-array bitset. micsup ranks events by name, which
// makes set_less the canonical output order; zbdd and bound rank them in
// their variable order (see Context::intern).
//
// A family of sets is one arena: its rows of `width` words lie back to
// back in one array, so building, copying or sorting a family costs a
// handful of allocations however many sets it holds. Two parallel arrays
// carry each row's derived fields, which make the subsumption hot loop
// cheap:
//
//   * counts: cached popcount -- a set can only be subsumed by a set with
//     strictly fewer literals (equal counts subsume only on equality,
//     which deduplication removes first), so minimisation buckets by it;
//   * signatures: the OR-fold of all words -- `(a.sig & ~b.sig) != 0`
//     disproves "a subset of b" with one AND-NOT before the word loop.
//
// Sorting never moves a row until the order is known: each row becomes a
// 16-byte (prefix key, index) pair, the pairs are sorted, and the rows
// are gathered once (see sorted_order).

/// A row's place in a sort: its prefix key and its index.
struct KeyIndex {
  std::uint64_t key;
  std::size_t index;
};

/// Masks the plain-polarity bit of every (x, NOT x) pair in a word.
constexpr std::uint64_t kEvenBits = 0x5555555555555555ULL;

class Family {
 public:
  explicit Family(std::size_t width) : width_(width) {}

  std::size_t width() const noexcept { return width_; }
  std::size_t size() const noexcept { return counts_.size(); }
  bool empty() const noexcept { return counts_.empty(); }

  const std::uint64_t* row(std::size_t i) const noexcept {
    return words_.data() + i * width_;
  }
  std::uint32_t count(std::size_t i) const noexcept { return counts_[i]; }
  std::uint64_t signature(std::size_t i) const noexcept {
    return signatures_[i];
  }

  void reserve(std::size_t rows) {
    words_.reserve(rows * width_);
    counts_.reserve(rows);
    signatures_.reserve(rows);
  }

  /// Appends the set of `literals` (duplicates collapse).
  void push_literals(const std::vector<int>& literals) {
    const std::size_t base = words_.size();
    words_.resize(base + width_);
    std::uint64_t* out = words_.data() + base;
    std::uint32_t count = 0;
    std::uint64_t signature = 0;
    for (int literal : literals) {
      std::uint64_t& word = out[static_cast<std::size_t>(literal) >> 6];
      const std::uint64_t bit = 1ULL << (literal & 63);
      if ((word & bit) != 0) continue;
      word |= bit;
      ++count;
      signature |= bit;
    }
    counts_.push_back(count);
    signatures_.push_back(signature);
  }

  /// Appends row `i` of `from`, a family of the same width.
  void push_row(const Family& from, std::size_t i) {
    words_.insert(words_.end(), from.row(i), from.row(i) + width_);
    counts_.push_back(from.counts_[i]);
    signatures_.push_back(from.signatures_[i]);
  }

  /// Appends the union of row `i` of `a` and row `j` of `b` -- the
  /// cut-set semantics of an AND combination -- unless it holds both x
  /// and NOT x. Polarities of one event are the adjacent bit pair
  /// (2k, 2k + 1), which never straddles a word. The count is the two
  /// counts less the shared literals, so only words the rows share are
  /// popcounted.
  void push_union(const Family& a, std::size_t i, const Family& b,
                  std::size_t j) {
    const std::size_t base = words_.size();
    words_.resize(base + width_);
    std::uint64_t* out = words_.data() + base;
    const std::uint64_t* x = a.row(i);
    const std::uint64_t* y = b.row(j);
    std::uint32_t count = a.counts_[i] + b.counts_[j];
    std::uint64_t clash = 0;
    for (std::size_t w = 0; w < width_; ++w) {
      const std::uint64_t word = x[w] | y[w];
      out[w] = word;
      if (const std::uint64_t shared = x[w] & y[w]; shared != 0)
        count -= static_cast<std::uint32_t>(std::popcount(shared));
      clash |= word & (word >> 1) & kEvenBits;
    }
    if (clash != 0) {
      words_.resize(base);
      return;
    }
    counts_.push_back(count);
    signatures_.push_back(a.signatures_[i] | b.signatures_[j]);
  }

  /// Copies row `from` over row `to` (the in-place compactions).
  void move_row(std::size_t to, std::size_t from) noexcept {
    std::copy_n(row(from), width_, words_.data() + to * width_);
    counts_[to] = counts_[from];
    signatures_[to] = signatures_[from];
  }

  /// Keeps the first `rows` rows.
  void truncate(std::size_t rows) {
    words_.resize(rows * width_);
    counts_.resize(rows);
    signatures_.resize(rows);
  }

  /// Reorders the rows so that row k is the old row order[k].index: one
  /// gather into fresh arrays.
  void gather(const std::vector<KeyIndex>& order) {
    Family out(width_);
    out.reserve(order.size());
    for (const KeyIndex& at : order) out.push_row(*this, at.index);
    *this = std::move(out);
  }

 private:
  std::size_t width_;                    ///< words per row
  std::vector<std::uint64_t> words_;     ///< size() * width_ words
  std::vector<std::uint32_t> counts_;    ///< popcount of each row
  std::vector<std::uint64_t> signatures_;  ///< OR of each row's words
};

/// Calls `visit(literal)` for every literal of row `i`, ascending.
template <typename Visit>
void for_each_literal(const Family& sets, std::size_t i, Visit&& visit) {
  const std::uint64_t* words = sets.row(i);
  for (std::size_t w = 0; w < sets.width(); ++w) {
    std::uint64_t bits = words[w];
    while (bits != 0) {
      visit(static_cast<int>(w * 64) + std::countr_zero(bits));
      bits &= bits - 1;
    }
  }
}

/// True if row `i` contains both x and NOT x.
bool contradictory(const Family& sets, std::size_t i) noexcept {
  const std::uint64_t* words = sets.row(i);
  for (std::size_t w = 0; w < sets.width(); ++w) {
    if ((words[w] & (words[w] >> 1) & kEvenBits) != 0) return true;
  }
  return false;
}

/// Subset-or-equal test of row `small` against row `big`: signature and
/// popcount pre-filters, then the word loop.
bool subset(const Family& sets, std::size_t small, std::size_t big) noexcept {
  if (sets.count(small) > sets.count(big)) return false;
  if ((sets.signature(small) & ~sets.signature(big)) != 0) return false;
  const std::uint64_t* a = sets.row(small);
  const std::uint64_t* b = sets.row(big);
  for (std::size_t w = 0; w < sets.width(); ++w) {
    if ((a[w] & ~b[w]) != 0) return false;
  }
  return true;
}

bool rows_equal(const Family& sets, std::size_t i, std::size_t j) noexcept {
  return sets.count(i) == sets.count(j) &&
         sets.signature(i) == sets.signature(j) &&
         std::equal(sets.row(i), sets.row(i) + sets.width(), sets.row(j));
}

/// Canonical working order on row `i` of `a` and row `j` of `b`: by
/// popcount, then by the ascending literal sequence. For equal counts,
/// lexicographic order of the sorted id lists is decided by the lowest
/// differing bit: the common literals below it are shared, so whichever
/// set owns that bit has the smaller id there.
bool set_less(const Family& a, std::size_t i, const Family& b,
              std::size_t j) noexcept {
  if (a.count(i) != b.count(j)) return a.count(i) < b.count(j);
  const std::uint64_t* x = a.row(i);
  const std::uint64_t* y = b.row(j);
  for (std::size_t w = 0; w < a.width(); ++w) {
    if (x[w] == y[w]) continue;
    const std::uint64_t diff = x[w] ^ y[w];
    return (x[w] & (diff & -diff)) != 0;
  }
  return false;
}

bool rows_sorted(const Family& sets) noexcept {
  for (std::size_t i = 1; i < sets.size(); ++i) {
    if (set_less(sets, i, sets, i - 1)) return false;
  }
  return true;
}

// -- Prefix-key sort ------------------------------------------------------------
//
// A prefix key packs what decides most comparisons of the canonical order
// (popcount, then ascending ids) into one integer: 10 bits of popcount,
// then the set's lowest literal ids in the 54 bits below, each in a field
// just wide enough for every id of the family's universe -- three 18-bit
// fields at the widest, 2^18 ids; nine 6-bit fields for a one-word family.
// A missing literal (a set smaller than the field count) reads as zero.
// Within one popcount every set fills the same number of fields, so the
// key is monotone with the order: a smaller key means an earlier set. The
// literal fields are filled only when every id of the universe fits 18
// bits and the popcount is below the 10-bit cap; otherwise the key is the
// (capped) popcount alone. Equal keys fall back to the full comparison,
// which a set no larger than the field count only reaches on a duplicate.

constexpr unsigned kKeyLiteralBits = 54;  ///< below the popcount field
constexpr unsigned kKeyMaxFieldBits = 18;
constexpr std::uint32_t kKeyCountCap = (1u << 10) - 1;

/// The literal field width for `width`-word rows: the bits of the largest
/// id, or 0 (no literal fields) past 18 bits or when there is no literal.
unsigned key_field_bits(std::size_t width) noexcept {
  if (width == 0) return 0;
  const auto bits = static_cast<unsigned>(std::bit_width(width * 64 - 1));
  return bits <= kKeyMaxFieldBits ? bits : 0;
}

/// Builds one prefix key from a set's popcount and its ascending ids.
class PrefixKey {
 public:
  PrefixKey(std::uint32_t count, unsigned field_bits) noexcept
      : key_(std::uint64_t{std::min(count, kKeyCountCap)} << kKeyLiteralBits),
        field_bits_(field_bits),
        fields_(field_bits != 0 && count < kKeyCountCap
                    ? kKeyLiteralBits / field_bits
                    : 0),
        shift_(kKeyLiteralBits) {}

  /// True while a literal field is still open.
  bool wants_more() const noexcept { return fields_ != 0; }

  /// Fills the next field with `id` (the next-lowest literal).
  void add(std::size_t id) noexcept {
    shift_ -= field_bits_;
    key_ |= std::uint64_t{id} << shift_;
    --fields_;
  }

  std::uint64_t key() const noexcept { return key_; }

 private:
  std::uint64_t key_;
  unsigned field_bits_;
  unsigned fields_;  ///< literal fields still open
  unsigned shift_;   ///< bit offset of the last field filled
};

/// Row `i`'s prefix key.
std::uint64_t row_key(const Family& sets, std::size_t i,
                      unsigned field_bits) noexcept {
  PrefixKey key(sets.count(i), field_bits);
  const std::uint64_t* words = sets.row(i);
  for (std::size_t w = 0; w < sets.width() && key.wants_more(); ++w) {
    std::uint64_t bits = words[w];
    while (bits != 0 && key.wants_more()) {
      key.add(w * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
      bits &= bits - 1;
    }
  }
  return key.key();
}

/// The order of `n` items under `less`, as (key, index) pairs sorted by
/// key with `less` deciding ties. `key_of(i)` must be monotone with
/// `less`: key_of(a) < key_of(b) implies less(a, b).
template <typename KeyOf, typename Less>
std::vector<KeyIndex> sorted_order(std::size_t n, KeyOf&& key_of,
                                   Less&& less) {
  std::vector<KeyIndex> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = KeyIndex{key_of(i), i};
  std::sort(order.begin(), order.end(),
            [&](const KeyIndex& a, const KeyIndex& b) {
              if (a.key != b.key) return a.key < b.key;
              return less(a.index, b.index);
            });
  return order;
}

/// Sorts `sets` into set_less order.
void sort_rows(Family& sets) {
  const unsigned field_bits = key_field_bits(sets.width());
  sets.gather(sorted_order(
      sets.size(),
      [&](std::size_t i) { return row_key(sets, i, field_bits); },
      [&](std::size_t a, std::size_t b) {
        return set_less(sets, a, sets, b);
      }));
}

/// Merges two families in set_less order into one (std::merge's rule: on
/// a tie the row of `a` comes first).
Family merge(const Family& a, const Family& b) {
  Family out(a.width());
  out.reserve(a.size() + b.size());
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (set_less(b, j, a, i)) out.push_row(b, j++);
    else out.push_row(a, i++);
  }
  for (; i < a.size(); ++i) out.push_row(a, i);
  for (; j < b.size(); ++j) out.push_row(b, j);
  return out;
}

/// Shared bookkeeping: the literal interning table and limit tracking.
class Context {
 public:
  explicit Context(const CutSetOptions& options)
      : options_(options), budget_(options.budget) {}

  /// Interns `events` (their rank is their listing index); every
  /// literal_id() lookup and family width derives from this table, so it
  /// must run before any set is built. zbdd and bound pass their
  /// variable order, since a literal id is a diagram variable or PDAG
  /// literal; finish() then sorts by name rank. micsup uses
  /// intern_by_name.
  /// `original` is the caller's tree: finish() points every literal at
  /// its equally-named leaf there (the engines run on a normalised copy
  /// whose nodes die with the run).
  void intern(std::vector<const FtNode*> events, const FaultTree& original) {
    events_ = std::move(events);
    event_index_.reserve(events_.size());
    for (std::size_t i = 0; i < events_.size(); ++i)
      event_index_.emplace(events_[i], static_cast<int>(i));
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

  const FtNode* event_of(int literal) const {
    return events_[static_cast<std::size_t>(literal / 2)];
  }

  /// The original tree's leaf for interned event `index`; null when the
  /// normalised copy invented the event.
  const FtNode* original_leaf(std::size_t index) const {
    return leaves_[static_cast<std::size_t>(rank_[index])];
  }

  /// A family sized for the interned literals, holding no set yet.
  Family family() const { return Family(words_); }

  /// The family holding the one set of `literals`.
  Family single(const std::vector<int>& literals) const {
    Family sets = family();
    sets.push_literals(literals);
    return sets;
  }

  /// Applies the order/count limits; sets the truncation flag when they
  /// bite. Keeps the smallest sets when over the count limit.
  Family clamp(Family sets) {
    std::size_t kept = 0;
    for (std::size_t i = 0; i < sets.size(); ++i) {
      if (sets.count(i) > options_.max_order) {
        truncated_ = true;
        continue;
      }
      if (kept != i) sets.move_row(kept, i);
      ++kept;
    }
    sets.truncate(kept);
    if (kept > options_.max_sets) {
      truncated_ = true;
      // The kept prefix is the first max_sets sets of the listing order,
      // whatever the engine.
      sort_canonical(sets);
      sets.truncate(options_.max_sets);
    }
    return sets;
  }

  /// Sorts `sets` into the canonical (size, name, polarity) order that
  /// finish() lists. Under name-ranked ids that is set_less (a no-op on
  /// minimise() output); otherwise it sorts on each set's name keys.
  void sort_canonical(Family& sets) const {
    if (!ids_by_name_) {
      sets.gather(name_order(name_keys(sets), sets.width()));
    } else if (!rows_sorted(sets)) {
      sort_rows(sets);
    }
  }

  /// Lists `sets` in the canonical (size, name, polarity) order, every
  /// literal pointing into the original tree. Name-ranked ids in set_less
  /// order -- every clean micsup run -- are that order already and are
  /// emitted in one pass. Otherwise (zbdd, bound, partial runs) each set
  /// becomes its sorted `2 * name_rank + negated` keys and the keys are
  /// sorted once: integers only, never names.
  CutSetAnalysis finish(const Family& sets) const {
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
    if (ids_by_name_ && rows_sorted(sets)) {
      for (std::size_t i = 0; i < sets.size(); ++i) {
        CutSet cs;
        cs.reserve(sets.count(i));
        for_each_literal(sets, i, [&](int lit) { cs.push_back(literal(lit)); });
        analysis.cut_sets.push_back(std::move(cs));
      }
      return analysis;
    }
    const NameKeys names = name_keys(sets);
    for (const KeyIndex& at : name_order(names, sets.width())) {
      CutSet cs;
      cs.reserve(names.offsets[at.index + 1] - names.offsets[at.index]);
      for (std::size_t k = names.offsets[at.index];
           k < names.offsets[at.index + 1]; ++k)
        cs.push_back(literal(names.keys[k]));
      analysis.cut_sets.push_back(std::move(cs));
    }
    return analysis;
  }

  void track_peak(std::size_t size) noexcept {
    peak_sets_ = std::max(peak_sets_, size);
  }
  void mark_truncated() noexcept { truncated_ = true; }
  const CutSetOptions& options() const noexcept { return options_; }

 private:
  /// Every row's ascending `2 * name_rank + negated` keys, back to back:
  /// row i's keys are keys[offsets[i], offsets[i + 1]).
  struct NameKeys {
    std::vector<int> keys;
    std::vector<std::size_t> offsets;
  };

  NameKeys name_keys(const Family& sets) const {
    NameKeys names;
    std::size_t total = 0;
    for (std::size_t i = 0; i < sets.size(); ++i) total += sets.count(i);
    names.keys.reserve(total);
    names.offsets.reserve(sets.size() + 1);
    names.offsets.push_back(0);
    for (std::size_t i = 0; i < sets.size(); ++i) {
      for_each_literal(sets, i, [&](int lit) {
        names.keys.push_back(2 * rank_[static_cast<std::size_t>(lit / 2)] +
                             (lit & 1));
      });
      if (!ids_by_name_)
        std::sort(names.keys.begin() +
                      static_cast<std::ptrdiff_t>(names.offsets.back()),
                  names.keys.end());
      names.offsets.push_back(names.keys.size());
    }
    return names;
  }

  /// The canonical order on name keys (size first, then lexicographic),
  /// for rows of `width` words: a name key is below 2 * events, so it
  /// fits a prefix-key field whenever a literal id does.
  static std::vector<KeyIndex> name_order(const NameKeys& names,
                                          std::size_t width) {
    const unsigned field_bits = key_field_bits(width);
    const auto begin = [&](std::size_t i) {
      return names.keys.begin() +
             static_cast<std::ptrdiff_t>(names.offsets[i]);
    };
    const auto end = [&](std::size_t i) { return begin(i + 1); };
    return sorted_order(
        names.offsets.size() - 1,
        [&](std::size_t i) {
          PrefixKey key(static_cast<std::uint32_t>(end(i) - begin(i)),
                        field_bits);
          for (auto k = begin(i); k != end(i) && key.wants_more(); ++k)
            key.add(static_cast<std::size_t>(*k));
          return key.key();
        },
        [&](std::size_t a, std::size_t b) {
          if (end(a) - begin(a) != end(b) - begin(b))
            return end(a) - begin(a) < end(b) - begin(b);
          return std::lexicographical_compare(begin(a), end(a), begin(b),
                                              end(b));
        });
  }

  const CutSetOptions& options_;
  Budget budget_;  ///< run-local copy (amortised deadline tick)
  std::unordered_map<const FtNode*, int> event_index_;
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
/// minimised families) skips the sort. Survivors are compacted to the
/// front of the family's own arena. The subsumption pass is quadratic
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
Family minimise(Family sets, Context* context = nullptr) {
  if (!rows_sorted(sets)) sort_rows(sets);
  std::size_t unique = 0;
  for (std::size_t i = 0; i < sets.size(); ++i) {
    if (unique > 0 && rows_equal(sets, unique - 1, i)) continue;
    if (unique != i) sets.move_row(unique, i);
    ++unique;
  }
  sets.truncate(unique);
  if (sets.empty()) return sets;
  // The empty set sorts first and absorbs every other set. It also has no
  // lowest literal to index under, so it gets its own exit rather than a
  // bucket.
  if (sets.count(0) == 0) {
    sets.truncate(1);
    return sets;
  }
  struct IndexEntry {
    std::uint32_t count;      ///< popcount of the kept row
    std::uint32_t index;      ///< the kept row's index
    std::uint64_t signature;  ///< signature of the kept row
  };
  std::vector<std::vector<IndexEntry>> buckets(sets.width() * 64);
  // Rows [0, kept) are the survivors so far; candidate i >= kept.
  std::size_t kept = 0;
  // True when some survivor subsumes candidate `i`. Only the buckets of
  // the candidate's own literals can hold one, and entries are appended
  // in ascending count order, so each bucket scan breaks early.
  const auto screened_out = [&](std::size_t i) {
    const std::uint64_t not_sig = ~sets.signature(i);
    const std::uint32_t count = sets.count(i);
    const std::uint64_t* words = sets.row(i);
    for (std::size_t w = 0; w < sets.width(); ++w) {
      std::uint64_t bits = words[w];
      while (bits != 0) {
        const std::size_t literal =
            w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
        bits &= bits - 1;
        for (const IndexEntry& entry : buckets[literal]) {
          if (entry.count >= count) break;
          if ((entry.signature & not_sig) != 0) continue;
          if (subset(sets, entry.index, i)) return true;
        }
      }
    }
    return false;
  };
  for (std::size_t i = 0; i < sets.size(); ++i) {
    if (context != nullptr && context->deadline_hit()) break;
    if (contradictory(sets, i)) continue;
    if (screened_out(i)) continue;
    const std::uint64_t* words = sets.row(i);
    for (std::size_t w = 0; w < sets.width(); ++w) {
      if (words[w] == 0) continue;
      const std::size_t lowest =
          w * 64 + static_cast<std::size_t>(std::countr_zero(words[w]));
      buckets[lowest].push_back(IndexEntry{
          sets.count(i), static_cast<std::uint32_t>(kept), sets.signature(i)});
      break;
    }
    if (kept != i) sets.move_row(kept, i);
    ++kept;
  }
  sets.truncate(kept);
  return sets;
}

/// How many sets the ZBDD engine samples for the LISTING once keep_diagram
/// is on and the diagram has proved the family over max_sets (the run is
/// flagged truncated regardless; the reliability numbers come exact from
/// the diagram). Comfortably above the 20 sets report rendering shows.
constexpr std::size_t kDiagramSampleSets = 512;

// -- Bottom-up engine ----------------------------------------------------------
class BottomUp {
 public:
  BottomUp(const FaultTree& tree, Context& context)
      : tree_(tree), context_(context) {}

  Family run() {
    const FtNode* top = tree_.top();
    if (top == nullptr) return context_.family();
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

 private:
  /// Returns a reference into the memo (stable: unordered_map nodes do not
  /// move on rehash). A memo hit on a diamond-shaped DAG used to copy the
  /// whole intermediate family on every revisit; callers now copy only
  /// what they combine.
  Family& resolve(const FtNode* node) {
    if (auto it = memo_.find(node); it != memo_.end()) return it->second;
    Family result = compute(node);
    context_.track_peak(result.size());
    return memo_.emplace(node, std::move(result)).first->second;
  }

  /// Counts one use of `node`'s memoised family off. True when that was
  /// the last use: the entry may then leave the memo.
  bool last_use(const FtNode* node) { return --uses_.at(node) == 0; }

  /// One use of `node`'s family, as a value: moved out of the memo on its
  /// last use (see last_use), copied otherwise.
  Family take(const FtNode* node) {
    Family& sets = resolve(node);
    if (!last_use(node)) return sets;
    Family out = std::move(sets);
    memo_.erase(node);
    return out;
  }

  /// Ends a use of `node`'s family made through resolve().
  void release(const FtNode* node) {
    if (last_use(node)) memo_.erase(node);
  }

  Family compute(const FtNode* node) {
    switch (node->kind()) {
      case NodeKind::kHouse:
        return context_.single({});  // constant true: the empty cut set
      case NodeKind::kBasic:
      case NodeKind::kUndeveloped:
      case NodeKind::kLoop:
        return context_.single({context_.literal_id(node, false)});
      case NodeKind::kGate:
        break;
    }
    if (node->gate() == GateKind::kNot) {
      const FtNode* child = node->children().front();
      check_internal(child->is_leaf(),
                     "cut sets need a normalised tree (NOT over leaf)");
      return context_.single({context_.literal_id(child, true)});
    }
    // Child families arrive minimal and in set_less order. OR merges them
    // (minimise() then only screens); AND minimises after every operand,
    // which is exact -- min(min(A x B) x C) = min(A x B x C) -- and keeps
    // the next cross product small.
    const bool is_or = node->gate() == GateKind::kOr;
    const std::size_t max_product = context_.options().max_sets * 4;
    Family acc = context_.family();
    bool first = true;
    // kPand is quantified by analysis/temporal.h; for cut-set purposes the
    // *event sets* are those of the AND (a conservative upper bound).
    for (const FtNode* child : node->children()) {
      if (context_.deadline_hit()) break;  // keep the partial accumulation
      if (first) {
        acc = take(child);
      } else if (is_or) {
        acc = merge(acc, take(child));
      } else {
        // AND: cross product, dropping contradictions as they appear.
        // The product never outgrows one clamp bound plus one row of it.
        const Family& sets = resolve(child);
        Family product = context_.family();
        product.reserve(std::min(acc.size() * sets.size(),
                                 max_product + sets.size()));
        for (std::size_t i = 0; i < acc.size(); ++i) {
          if (context_.deadline_hit()) break;
          for (std::size_t j = 0; j < sets.size(); ++j)
            product.push_union(acc, i, sets, j);
          if (product.size() > max_product) {
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
  std::unordered_map<const FtNode*, Family> memo_;
  /// Remaining uses of each node's family (run() counts them).
  std::unordered_map<const FtNode*, std::size_t> uses_;
};

}  // namespace

std::string to_string(CutSetEngine engine) {
  switch (engine) {
    case CutSetEngine::kMicsup:
      return "micsup";
    case CutSetEngine::kZbdd:
      return "zbdd";
    case CutSetEngine::kBound:
      return "bound";
  }
  return "micsup";
}

std::optional<CutSetEngine> parse_cut_set_engine(std::string_view text) {
  if (text == "micsup") return CutSetEngine::kMicsup;
  if (text == "zbdd") return CutSetEngine::kZbdd;
  if (text == "bound") return CutSetEngine::kBound;
  return std::nullopt;
}

CutSetAnalysis minimal_cut_sets(const FaultTree& tree,
                                const CutSetOptions& options) {
  FaultTree flat = normalise(tree);
  Context context(options);
  context.intern_by_name(dfs_variable_order(flat), tree);
  return context.finish(BottomUp(flat, context).run());
}

CutSetAnalysis compute_cut_sets(const FaultTree& tree,
                                const CutSetOptions& options) {
  switch (options.engine) {
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
  Family packed(words);
  packed.reserve(sets.size());
  for (const std::vector<int>& literals : sets) {
    for (int literal : literals) {
      check_internal(literal >= 0 && literal < universe,
                     "literal id outside the declared universe");
    }
    packed.push_literals(literals);
  }
  const Family minimal = minimise(std::move(packed));
  std::vector<std::vector<int>> out;
  out.reserve(minimal.size());
  for (std::size_t i = 0; i < minimal.size(); ++i) {
    std::vector<int> literals;
    literals.reserve(minimal.count(i));
    for_each_literal(minimal, i, [&](int lit) { literals.push_back(lit); });
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
  if (flat.top() == nullptr) return context.finish(context.family());

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

  Family sets = context.family();
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
      // Negated literal first: a Ref is its allocation serial, so the
      // order is fixed here rather than left to argument evaluation.
      const Zbdd::Ref negated = zbdd.single(plain + 1);
      const Zbdd::Ref pair = zbdd.product(zbdd.single(plain), negated);
      contra = zbdd.set_union(contra, pair);
    });

    // Everything resolvable without recursing into gate children: memo
    // hits, leaves and (normalised) NOT gates. AND/OR gates return nullopt
    // and get an explicit conversion frame below.
    auto resolve_simple =
        [&](const FtNode* node) -> std::optional<Zbdd::Ref> {
      if (auto it = memo.find(node); it != memo.end()) return it->second;
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
          sets.push_literals(path);
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
      Family order_sets = context.family();
      auto enumerate = [&](auto&& self, Zbdd::Ref ref,
                           std::size_t want) -> bool {
        if (ref == Zbdd::kEmpty) return true;
        if (context.deadline_hit()) return false;
        if (ref == Zbdd::kBase) {
          if (want == 0) {
            if (order_sets.size() >= ceiling) return false;
            order_sets.push_literals(path);
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
        order_sets.truncate(0);
        if (!enumerate(enumerate, root, k)) stop = true;
        context.sort_canonical(order_sets);
        for (std::size_t i = 0;
             i < order_sets.size() && sets.size() < extract_cap; ++i)
          sets.push_row(order_sets, i);
      }
    }
    if (truncated_paths) context.mark_truncated();
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
  Family sets = context.family();
  sets.reserve(outcome.products.size());
  for (const std::vector<int>& product : outcome.products)
    sets.push_literals(product);
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
