#include "core/symbol.h"

#include <mutex>
#include <unordered_set>

namespace ftsynth {

namespace {

/// Transparent hash: the table is probed with a string_view, so a lookup
/// builds no std::string.
struct TextHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view text) const noexcept {
    return std::hash<std::string_view>{}(text);
  }
};

/// Process-wide intern table. Node-based so element addresses are stable.
/// Sharded by string hash: parallel synthesis interns heavily (every event
/// and gate name), and a single mutex serialises the whole fleet.
class Interner {
 public:
  /// Find first: almost every call is a hit (synthesis re-interns the same
  /// event names for every top), and only a miss allocates the node.
  const std::string* intern(std::string_view text) {
    Shard& shard = shards_[TextHash{}(text) % kShards];
    std::lock_guard<std::mutex> lock(shard.mutex);
    if (auto it = shard.table.find(text); it != shard.table.end()) return &*it;
    return &*shard.table.emplace(text).first;
  }

  static Interner& instance() {
    static Interner interner;
    return interner;
  }

 private:
  static constexpr std::size_t kShards = 64;
  struct Shard {
    std::mutex mutex;
    std::unordered_set<std::string, TextHash, std::equal_to<>> table;
  };
  Shard shards_[kShards];
};

const std::string& empty_string() {
  static const std::string empty;
  return empty;
}

}  // namespace

Symbol::Symbol(std::string_view text)
    : text_(Interner::instance().intern(text)) {}

const std::string& Symbol::str() const {
  return text_ ? *text_ : empty_string();
}

}  // namespace ftsynth
