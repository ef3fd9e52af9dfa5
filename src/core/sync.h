// Cache-line padding for counters that batch-level workers bump
// concurrently: the shared DiagnosticSink's counts. Each
// independently-written hot word lives on its own cache line so writers
// never bounce each other's lines.

#pragma once

#include <atomic>
#include <cstddef>
#include <new>

namespace ftsynth {

/// The alignment used to keep independently-written hot words on their
/// own cache line. hardware_destructive_interference_size would be the
/// textbook constant, but libstdc++ gates it behind a warning and 64 is
/// right for every target this project builds on.
inline constexpr std::size_t kCacheLineSize = 64;

/// An atomic counter padded to a full cache line. Use one per thread (or
/// per shard) for statistics that are aggregated at read time: writers
/// stay relaxed and never bounce each other's lines.
template <typename T>
struct alignas(kCacheLineSize) PaddedAtomic {
  std::atomic<T> value{};

  void add(T delta, std::memory_order order = std::memory_order_relaxed) {
    value.fetch_add(delta, order);
  }
  T load(std::memory_order order = std::memory_order_relaxed) const {
    return value.load(order);
  }
  void store(T v, std::memory_order order = std::memory_order_relaxed) {
    value.store(v, order);
  }
};

}  // namespace ftsynth
