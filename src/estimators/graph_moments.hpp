// Scalar graph-moment estimators built on the S-normalization of eq. 7.
//
// The normalizer S = (1/B) Σ 1/deg(v_i) of the paper's vertex-label
// estimator converges to |V|/|E| (Theorem 4.1), so 1/S is an
// asymptotically unbiased estimator of the average degree vol(V)/|V| —
// Section 3 assumes d̄ is known; this is how a crawler obtains it. The
// degree-moment generalization Σ deg^k estimators follow the same pattern.
// Each edge estimator folds its sample through GraphMomentsSink
// (stream/sinks.hpp), the uniform one through UniformDegreeSink.
#pragma once

#include <cmath>
#include <cstdint>
#include <span>

#include "core/types.hpp"
#include "graph/graph.hpp"

namespace frontier {

/// Average symmetric degree d̄ from stationary RW/FS/RE edge samples:
/// 1 / mean(1/deg(v_i)). Returns 0 for empty input. Pays per edge for
/// the sink's Welford stat of observed degrees, which it discards.
[[nodiscard]] double estimate_average_degree(const Graph& g,
                                             std::span<const Edge> edges);

/// Average degree from uniform vertex samples (plain mean of degrees).
[[nodiscard]] double estimate_average_degree_uniform(
    const Graph& g, std::span<const VertexId> vertices);

/// deg^e, bit-equal to std::pow(double(deg), double(e)) and usually far
/// cheaper: the product of e copies of deg, which is an exact integer
/// while it stays below 2^53 (where std::pow returns that same exact
/// value); std::pow only above. GraphMomentsSink's degree powers.
[[nodiscard]] inline double degree_power(std::uint32_t deg,
                                         unsigned e) noexcept {
  const double d = static_cast<double>(deg);
  double p = 1.0;
  // Each step multiplies exact integers: exact while the true product is
  // below 2^53, and at least 2^53 once it is not (rounding is monotone),
  // so the test below sees exactly the products that were exact.
  for (unsigned i = 0; i < e; ++i) p *= d;
  return p < 0x1p53 ? p : std::pow(d, static_cast<double>(e));
}

/// k-th raw moment of the degree distribution, E[deg^k], from stationary
/// edge samples: the Σ deg^(k-1) / Σ deg^(-1) reweighting. k = 1 reduces
/// to estimate_average_degree. GraphMomentsSink(g, k) keeps all k power
/// sums: O(k) memory and about k²/2 multiplications per edge.
[[nodiscard]] double estimate_degree_moment(const Graph& g,
                                            std::span<const Edge> edges,
                                            unsigned k);

/// Estimated |E| (ordered symmetric edges = vol(V)) given the true |V| —
/// the companion of estimate_average_degree for crawlers that know the
/// user-id space size: vol ≈ |V| / S.
[[nodiscard]] double estimate_volume(const Graph& g,
                                     std::span<const Edge> edges,
                                     double num_vertices);

}  // namespace frontier
