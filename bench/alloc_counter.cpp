#include "alloc_counter.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

// GCC pairs inlined `new` expressions with these frees and warns of a
// mismatch; both ends are the replacements below, so it is a false alarm.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* block = std::malloc(size == 0 ? 1 : size)) return block;
  throw std::bad_alloc();
}
void operator delete(void* block) noexcept { std::free(block); }
void operator delete(void* block, std::size_t) noexcept { std::free(block); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

std::size_t allocations_so_far() {
  return g_allocations.load(std::memory_order_relaxed);
}

void report_allocations(benchmark::State& state, std::size_t made) {
  state.counters["allocs"] = benchmark::Counter(
      static_cast<double>(made), benchmark::Counter::kAvgIterations);
}
