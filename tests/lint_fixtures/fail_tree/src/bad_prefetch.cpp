// Fixture: a raw prefetch outside src/graph/graph.hpp — the line below
// must be reported by prefetch-in-graph with its exact line number.
#include <cstddef>
#include <cstdint>

namespace fixture {

std::uint32_t sum_ahead(const std::uint32_t* a, std::size_t n) {
  std::uint32_t s = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (i + 8 < n) __builtin_prefetch(a + i + 8, 0, 1);  // line 11
    s += a[i];
  }
  return s;
}

}  // namespace fixture
