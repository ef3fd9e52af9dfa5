// Inert names left by the retired cone cache (DESIGN.md §8): the product
// consults none of them.
#pragma once

#include <cstdint>

namespace ftsynth {

struct CutSetOptions;

/// Ignored; perfbench/probe.cpp names it; ROADMAP item 2 deletes it.
struct ConeKeyspace {};

/// Ignored; perfbench/probe.cpp names it; ROADMAP item 2 deletes it.
inline ConeKeyspace cone_keyspace(const CutSetOptions&) { return {}; }

/// Ignored; perfbench/probe.cpp names it; ROADMAP item 2 deletes it.
struct ConeCacheStats {
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
};

/// Ignored; perfbench/probe.cpp names it; ROADMAP item 2 deletes it.
class ConeCache {
 public:
  explicit ConeCache(ConeKeyspace = {}) {}
  ConeCacheStats stats() const { return {}; }
};

}  // namespace ftsynth
