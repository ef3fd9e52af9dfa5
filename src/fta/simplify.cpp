#include "fta/simplify.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <unordered_map>

#include "core/error.h"

namespace ftsynth {

namespace {

class Normaliser {
 public:
  Normaliser(const FaultTree& source, FaultTree& target)
      : source_(source), target_(target) {}

  FtNode* run() { return rebuild(source_.top(), /*negated=*/false); }

 private:
  // nullptr encodes constant false; a kHouse node encodes constant true.
  static bool is_house(const FtNode* node) noexcept {
    return node != nullptr && node->kind() == NodeKind::kHouse;
  }

  FtNode* house() {
    return target_.add_house(Symbol("always"), "condition fixed true");
  }

  FtNode* rebuild(const FtNode* node, bool negated) {
    if (node == nullptr) return negated ? house() : nullptr;
    auto key = std::make_pair(node, negated);
    if (auto it = memo_.find(key); it != memo_.end()) return it->second;
    FtNode* result = rebuild_uncached(node, negated);
    memo_.emplace(key, result);
    return result;
  }

  FtNode* rebuild_uncached(const FtNode* node, bool negated) {
    switch (node->kind()) {
      case NodeKind::kHouse:
        return negated ? nullptr : house();
      case NodeKind::kBasic:
      case NodeKind::kUndeveloped:
      case NodeKind::kLoop: {
        FtNode* leaf = copy_leaf(node);
        if (!negated) return leaf;
        return target_.add_gate(GateKind::kNot,
                                "NOT " + std::string(node->name().view()),
                                {leaf});
      }
      case NodeKind::kGate:
        break;
    }
    if (node->gate() == GateKind::kNot)
      return rebuild(node->children().front(), !negated);
    if (node->gate() == GateKind::kPand) {
      // Order-significant: no flattening, no deduplication, no De Morgan.
      require(!negated, ErrorKind::kAnalysis,
              "NOT over a PAND gate is not supported");
      std::vector<FtNode*> children;
      children.reserve(node->children().size());
      for (const FtNode* child : node->children()) {
        FtNode* rebuilt = rebuild(child, false);
        if (rebuilt == nullptr) return nullptr;  // a child cannot occur
        if (is_house(rebuilt)) continue;          // always-true child
        children.push_back(rebuilt);
      }
      if (children.empty()) return house();
      if (children.size() == 1) return children.front();
      return target_.add_gate(GateKind::kPand, node->description(),
                              std::move(children));
    }

    // De Morgan: a negated AND becomes an OR of negated children.
    const bool is_and = (node->gate() == GateKind::kAnd) != negated;
    std::vector<FtNode*> children;
    for (const FtNode* child : node->children()) {
      FtNode* rebuilt = rebuild(child, negated);
      if (is_and) {
        if (rebuilt == nullptr) return nullptr;  // AND with false
        if (is_house(rebuilt)) continue;          // AND with true
      } else {
        if (rebuilt == nullptr) continue;         // OR with false
        if (is_house(rebuilt)) return rebuilt;    // OR with true
      }
      // Flatten a same-kind gate child.
      const bool same_kind =
          rebuilt->kind() == NodeKind::kGate &&
          rebuilt->gate() == (is_and ? GateKind::kAnd : GateKind::kOr);
      if (same_kind) {
        for (FtNode* grandchild : rebuilt->children()) {
          if (std::find(children.begin(), children.end(), grandchild) ==
              children.end())
            children.push_back(grandchild);
        }
      } else if (std::find(children.begin(), children.end(), rebuilt) ==
                 children.end()) {
        children.push_back(rebuilt);
      }
    }
    if (children.empty()) return is_and ? house() : nullptr;
    if (children.size() == 1) return children.front();
    return target_.add_gate(is_and ? GateKind::kAnd : GateKind::kOr,
                            node->description(), std::move(children));
  }

  FtNode* copy_leaf(const FtNode* node) {
    switch (node->kind()) {
      case NodeKind::kBasic: {
        FtNode* copy = target_.add_basic(node->name(), node->rate(),
                                         node->description(), node->origin());
        if (node->has_fixed_probability())
          copy->set_fixed_probability(node->fixed_probability());
        return copy;
      }
      case NodeKind::kUndeveloped:
        return target_.add_undeveloped(node->name(), node->description(),
                                       node->origin());
      case NodeKind::kLoop:
        return target_.add_loop(node->name(), node->description(),
                                node->origin());
      default:
        throw Error(ErrorKind::kInternal, "copy_leaf on a non-leaf");
    }
  }

  struct PairHash {
    std::size_t operator()(
        const std::pair<const FtNode*, bool>& key) const noexcept {
      return std::hash<const void*>{}(key.first) * 2 +
             (key.second ? 1 : 0);
    }
  };

  const FaultTree& source_;
  FaultTree& target_;
  std::unordered_map<std::pair<const FtNode*, bool>, FtNode*, PairHash> memo_;
};

}  // namespace

FaultTree normalise(const FaultTree& tree) {
  FaultTree out(tree.name());
  out.set_top_description(tree.top_description());
  out.set_top(Normaliser(tree, out).run());
  return out;
}

FaultTree deduplicate(const FaultTree& tree) {
  FaultTree out(tree.name());
  out.set_top_description(tree.top_description());
  if (tree.top() == nullptr) return out;

  // Children-first rebuild; gates are interned on (kind, sorted child ids).
  struct GateKey {
    GateKind kind;
    std::vector<int> children;  // new-tree node ids, sorted
    bool operator==(const GateKey& other) const noexcept {
      return kind == other.kind && children == other.children;
    }
  };
  struct GateKeyHash {
    std::size_t operator()(const GateKey& key) const noexcept {
      std::size_t h = static_cast<std::size_t>(key.kind);
      for (int id : key.children)
        h = h * 1000003u ^ static_cast<std::size_t>(id);
      return h;
    }
  };
  std::unordered_map<GateKey, FtNode*, GateKeyHash> interned;
  std::vector<FtNode*> rebuilt(tree.nodes().size(), nullptr);  // by node id

  tree.for_each_reachable([&](const FtNode& node) {
    FtNode* copy = nullptr;
    switch (node.kind()) {
      case NodeKind::kBasic:
        copy = out.add_basic(node.name(), node.rate(), node.description(),
                             node.origin());
        if (node.has_fixed_probability())
          copy->set_fixed_probability(node.fixed_probability());
        break;
      case NodeKind::kHouse:
        copy = out.add_house(node.name(), node.description());
        break;
      case NodeKind::kUndeveloped:
        copy = out.add_undeveloped(node.name(), node.description(),
                                   node.origin());
        break;
      case NodeKind::kLoop:
        copy = out.add_loop(node.name(), node.description(), node.origin());
        break;
      case NodeKind::kGate: {
        // PAND is order-significant: keep duplicates and child order.
        const bool ordered = node.gate() == GateKind::kPand;
        GateKey key{node.gate(), {}};
        std::vector<FtNode*> children;
        children.reserve(node.children().size());
        for (const FtNode* child : node.children()) {
          FtNode* mapped = rebuilt[static_cast<std::size_t>(child->id())];
          // Drop duplicate children inside one gate (X OR X == X).
          if (ordered || std::find(children.begin(), children.end(),
                                   mapped) == children.end())
            children.push_back(mapped);
        }
        if (children.size() == 1 && node.gate() != GateKind::kNot) {
          copy = children.front();
          break;
        }
        for (const FtNode* child : children) key.children.push_back(child->id());
        if (!ordered) std::sort(key.children.begin(), key.children.end());
        if (auto it = interned.find(key); it != interned.end()) {
          copy = it->second;
          break;
        }
        copy = out.add_gate(node.gate(), node.description(),
                            std::move(children));
        interned.emplace(std::move(key), copy);
        break;
      }
    }
    rebuilt[static_cast<std::size_t>(node.id())] = copy;
  });
  out.set_top(rebuilt[static_cast<std::size_t>(tree.top()->id())]);
  return out;
}

namespace {

/// Incremental 128-bit mixer. Deterministic by construction: only the fed
/// bytes and fixed constants enter the state, never pointers or
/// std::hash. Each 64-bit word is folded into both lanes with different
/// odd multipliers and a cross-feed, then the final value gets a
/// splitmix-style avalanche per lane so single-bit input differences
/// spread over the whole 128-bit output.
class HashMixer {
 public:
  void feed(std::uint64_t word) noexcept {
    lo_ = (std::rotl(lo_ ^ word, 27)) * 0x9E3779B97F4A7C15ULL;
    hi_ = (std::rotl(hi_ + word, 31)) * 0xC2B2AE3D27D4EB4FULL + lo_;
  }

  void feed_bytes(std::string_view bytes) noexcept {
    std::uint64_t word = 0;
    int filled = 0;
    for (unsigned char byte : bytes) {
      word |= static_cast<std::uint64_t>(byte) << (8 * filled);
      if (++filled == 8) {
        feed(word);
        word = 0;
        filled = 0;
      }
    }
    // Length-extension guard: the tail word carries the byte count.
    feed(word ^ (static_cast<std::uint64_t>(bytes.size()) << 56));
  }

  void feed_double(double value) noexcept {
    feed(std::bit_cast<std::uint64_t>(value));
  }

  StructuralHash finish() const noexcept {
    return {avalanche(hi_ ^ 0x165667B19E3779F9ULL),
            avalanche(lo_ + 0x27D4EB2F165667C5ULL)};
  }

 private:
  static std::uint64_t avalanche(std::uint64_t x) noexcept {
    x ^= x >> 30;
    x *= 0xBF58476D1CE4E5B9ULL;
    x ^= x >> 27;
    x *= 0x94D049BB133111EBULL;
    x ^= x >> 31;
    return x;
  }

  std::uint64_t lo_ = 0x6C62272E07BB0142ULL;
  std::uint64_t hi_ = 0x62B821756295C58DULL;
};

}  // namespace

std::string StructuralHash::to_hex() const {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out(32, '0');
  for (int i = 0; i < 16; ++i) {
    out[static_cast<std::size_t>(15 - i)] = kDigits[(hi >> (4 * i)) & 0xF];
    out[static_cast<std::size_t>(31 - i)] = kDigits[(lo >> (4 * i)) & 0xF];
  }
  return out;
}

std::optional<StructuralHash> StructuralHash::from_hex(std::string_view text) {
  if (text.size() != 32) return std::nullopt;
  StructuralHash hash;
  for (int i = 0; i < 32; ++i) {
    const char c = text[static_cast<std::size_t>(i)];
    std::uint64_t nibble;
    if (c >= '0' && c <= '9') {
      nibble = static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      nibble = static_cast<std::uint64_t>(c - 'a') + 10;
    } else {
      return std::nullopt;
    }
    std::uint64_t& lane = i < 16 ? hash.hi : hash.lo;
    lane = (lane << 4) | nibble;
  }
  return hash;
}

std::unordered_map<const FtNode*, StructuralHash, std::hash<const FtNode*>>
structural_hashes(const FaultTree& tree) {
  std::unordered_map<const FtNode*, StructuralHash, std::hash<const FtNode*>>
      hashes;
  // for_each_reachable is postorder over the DAG: children are hashed
  // before any parent asks for them.
  tree.for_each_reachable([&](const FtNode& node) {
    HashMixer mixer;
    mixer.feed(static_cast<std::uint64_t>(node.kind()));
    if (node.is_leaf()) {
      // Event identity and quantification; descriptions and origins are
      // presentation-only and deliberately excluded.
      mixer.feed_bytes(node.name().view());
      mixer.feed_double(node.rate());
      mixer.feed_double(node.has_fixed_probability() ? node.fixed_probability()
                                                     : -1.0);
    } else {
      mixer.feed(static_cast<std::uint64_t>(node.gate()));
      mixer.feed(node.children().size());
      std::vector<StructuralHash> children;
      children.reserve(node.children().size());
      for (const FtNode* child : node.children())
        children.push_back(hashes.at(child));
      // AND/OR/NOT are child-order-insensitive (X AND Y == Y AND X);
      // PAND is order-significant, exactly as in deduplicate().
      if (node.gate() != GateKind::kPand)
        std::sort(children.begin(), children.end());
      for (const StructuralHash& child : children) {
        mixer.feed(child.hi);
        mixer.feed(child.lo);
      }
    }
    hashes.emplace(&node, mixer.finish());
  });
  return hashes;
}

StructuralHash structural_hash(const FaultTree& tree) {
  if (tree.top() == nullptr) return {};
  return structural_hashes(tree).at(tree.top());
}

bool is_normalised(const FaultTree& tree) {
  bool ok = true;
  tree.for_each_reachable([&](const FtNode& node) {
    if (node.kind() != NodeKind::kGate) return;
    if (node.gate() == GateKind::kNot) {
      if (!node.children().front()->is_leaf()) ok = false;
      return;
    }
    if (node.gate() == GateKind::kPand) return;  // never flattened
    for (const FtNode* child : node.children()) {
      if (child->kind() == NodeKind::kGate && child->gate() == node.gate())
        ok = false;
    }
  });
  return ok;
}

}  // namespace ftsynth
