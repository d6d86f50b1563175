// Global clustering coefficient estimator (Section 4.2.4, Corollary 4.2).
//
//   Ĉ = (1/(S·B)) Σ_i f(v_i, u_i) / ( 2 · C(deg(v_i), 2) )
//   S  = (1/B) Σ_i 1/deg(v_i)   restricted to deg(v_i) >= 2,
//
// where f(v,u) counts the common neighbors of v and u, so Ĉ → C almost
// surely. These are the corrected weights, not the paper's displayed ones;
// the fold, the derivation and the deviation are ClusteringSink's
// (stream/motif_sinks.*).
#pragma once

#include <span>

#include "core/types.hpp"
#include "graph/graph.hpp"

namespace frontier {

/// Ĉ from a sequence of stationary-RW (or random-edge) sampled edges.
/// Each sample queries the common-neighbor count f(v_i, u_i) on g — the
/// one-hop information a crawler obtains when it expands both endpoints.
[[nodiscard]] double estimate_global_clustering(const Graph& g,
                                                std::span<const Edge> edges);

}  // namespace frontier
