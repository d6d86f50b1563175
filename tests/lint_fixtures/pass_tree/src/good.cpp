// Fixture: a clean library source file. A forbidden token appears once,
// but with a lint:allow waiver carrying a rationale — so zero findings.
#include <chrono>
#include <cstdint>

namespace fixture {

// Error strings mentioning "rand() is banned" or time(0) must not match:
// string literal contents are scrubbed before token matching. Nor does
// prose naming __builtin_prefetch(p) outside src/graph/graph.hpp.
const char* policy_message() {
  return "rand() is banned; so is time(0) and std::cout in library code";
}

std::uint64_t entropy_for_docs() {
  // Hypothetical sanctioned use, waived with a written rationale:
  std::uint64_t seed = 0x9e3779b97f4a7c15ull;  // lint:allow(determinism-no-wall-clock): constant mixes like random_device docs reference, no entropy drawn
  const std::uint64_t big = 1'000'000'007ull;  // digit separators survive
  return seed ^ big;
}

}  // namespace fixture
