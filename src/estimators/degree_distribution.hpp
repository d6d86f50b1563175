// Degree-distribution estimators.
//
// Walk/edge samples: eq. 7 specialized per degree value — one accumulation
// pass fills θ̂ for every i simultaneously (the per-i indicator functions
// partition the samples, so a histogram of 1/deg(v_i) weights keyed by the
// degree of interest is exactly the batched estimator). The batch function
// below and the streaming DegreeDistributionSink both run that pass
// through DegreeDistributionFold.
//
// Uniform vertex samples: the plain empirical degree histogram.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <vector>

#include "core/types.hpp"
#include "graph/graph.hpp"
#include "graph/metrics.hpp"

namespace frontier {

class StreamEventBlock;

/// The eq.-7 fold over sampled edges (u_i, v_i), in order: Σ 1/deg(v_i),
/// and the same sum per bucket of v_i's `kind`-degree. Edges may arrive
/// as one span or as a stream of blocks; given the same edge sequence the
/// state is bit-identical either way.
class DegreeDistributionFold {
 public:
  DegreeDistributionFold(const Graph& g, DegreeKind kind)
      : graph_(&g), kind_(kind) {}

  /// Folds `edges`, looking each deg(v_i) up in the graph 16 edges after
  /// requesting it, so the lookups' cache misses overlap.
  void add(std::span<const Edge> edges);

  /// Folds the edge rows of `block`; deg(v_i) comes from its degree
  /// column, which must hold degrees in this fold's graph.
  void add(const StreamEventBlock& block);

  /// θ̂: theta[i] estimates the fraction of vertices whose `kind`-degree
  /// is i. Sized to the largest observed degree + 1; empty before any edge.
  [[nodiscard]] std::vector<double> distribution() const;
  [[nodiscard]] std::uint64_t edges() const noexcept { return n_; }

  /// Checkpoint state: the kind (verified on load), the buckets, the
  /// total and the edge count.
  void save(std::ostream& os) const;
  void load(std::istream& is);

 private:
  template <typename IsEdge, typename Target, typename Degree>
  void fold(std::size_t rows, IsEdge is_edge, Target target, Degree degree);

  const Graph* graph_;
  DegreeKind kind_;
  std::vector<double> weighted_;  // Σ 1/deg(v_i) per degree bucket
  double s_ = 0.0;                // Σ 1/deg(v_i)
  std::uint64_t n_ = 0;
};

/// θ̂ from random-walk or random-edge sampled edges (eq. 7 batched over all
/// degrees). theta_hat[i] estimates the fraction of vertices whose
/// `kind`-degree equals i. Sized to the largest observed degree + 1.
[[nodiscard]] std::vector<double> estimate_degree_distribution(
    const Graph& g, std::span<const Edge> edges, DegreeKind kind);

/// θ̂ from uniform vertex samples (empirical histogram).
[[nodiscard]] std::vector<double> estimate_degree_distribution_uniform(
    const Graph& g, std::span<const VertexId> vertices, DegreeKind kind);

/// Convenience: estimate θ̂ then return its CCDF γ̂ (eq. 2's γ).
[[nodiscard]] std::vector<double> estimate_degree_ccdf(
    const Graph& g, std::span<const Edge> edges, DegreeKind kind);

}  // namespace frontier
