#include "graph/metrics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <numeric>
#include <vector>

#include "experiments/datasets.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"

namespace frontier {
namespace {

TEST(DegreeDistribution, StarGraph) {
  const Graph g = star_graph(5);  // center deg 4, four leaves deg 1
  const auto theta = degree_distribution(g, DegreeKind::kSymmetric);
  ASSERT_EQ(theta.size(), 5u);
  EXPECT_DOUBLE_EQ(theta[1], 0.8);
  EXPECT_DOUBLE_EQ(theta[4], 0.2);
  EXPECT_DOUBLE_EQ(theta[0] + theta[2] + theta[3], 0.0);
}

TEST(DegreeDistribution, SumsToOne) {
  Rng rng(1);
  const Graph g = barabasi_albert(1000, 2, rng);
  for (auto kind :
       {DegreeKind::kSymmetric, DegreeKind::kIn, DegreeKind::kOut}) {
    const auto theta = degree_distribution(g, kind);
    const double total =
        std::accumulate(theta.begin(), theta.end(), 0.0);
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST(DegreeDistribution, DirectedInVsOut) {
  GraphBuilder b(3);
  b.add_edge(0, 1);
  b.add_edge(2, 1);  // vertex 1: in-degree 2, out-degree 0
  const Graph g = b.build();
  const auto in = degree_distribution(g, DegreeKind::kIn);
  const auto out = degree_distribution(g, DegreeKind::kOut);
  EXPECT_DOUBLE_EQ(in[2], 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(out[0], 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(out[1], 2.0 / 3.0);
}

TEST(CcdfFromPdf, MatchesDefinition) {
  const std::vector<double> theta{0.1, 0.2, 0.3, 0.4};
  const auto gamma = ccdf_from_pdf(theta);
  ASSERT_EQ(gamma.size(), 4u);
  EXPECT_NEAR(gamma[0], 0.9, 1e-12);   // sum of theta[1..3]
  EXPECT_NEAR(gamma[1], 0.7, 1e-12);
  EXPECT_NEAR(gamma[2], 0.4, 1e-12);
  EXPECT_NEAR(gamma[3], 0.0, 1e-12);
}

TEST(CcdfFromPdf, MonotoneNonIncreasing) {
  Rng rng(2);
  const Graph g = barabasi_albert(2000, 2, rng);
  const auto gamma =
      ccdf_from_pdf(degree_distribution(g, DegreeKind::kSymmetric));
  for (std::size_t i = 1; i < gamma.size(); ++i) {
    EXPECT_LE(gamma[i], gamma[i - 1] + 1e-12);
  }
}

TEST(ExactLabelDensity, CountsPredicate) {
  const Graph g = path_graph(10);
  const double frac = exact_label_density(
      g, [](VertexId v) { return v % 2 == 0; });
  EXPECT_DOUBLE_EQ(frac, 0.5);
}

TEST(SharedNeighbors, TriangleAndSquare) {
  const Graph tri = complete_graph(3);
  EXPECT_EQ(shared_neighbors(tri, 0, 1), 1u);
  const Graph sq = cycle_graph(4);
  EXPECT_EQ(shared_neighbors(sq, 0, 1), 0u);
  EXPECT_EQ(shared_neighbors(sq, 0, 2), 2u);  // diagonal
}

/// Codegree written independently of shared_neighbors: the length of the
/// std::set_intersection of the two sorted rows.
std::uint32_t reference_codegree(const Graph& g, VertexId u, VertexId v) {
  const auto a = g.neighbors(u);
  const auto b = g.neighbors(v);
  std::vector<VertexId> common;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(common));
  return static_cast<std::uint32_t>(common.size());
}

struct RuleSides {
  std::size_t probe = 0;
  std::size_t merge = 0;
};

/// Compares shared_neighbors with the reference on every ordered vertex
/// pair of g and counts the pairs on each side of codegree_probes.
RuleSides expect_codegree_on_every_pair(const Graph& g) {
  RuleSides sides;
  const auto n = static_cast<VertexId>(g.num_vertices());
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = 0; v < n; ++v) {
      const std::uint32_t got = shared_neighbors(g, u, v);
      const std::uint32_t want = reference_codegree(g, u, v);
      if (got != want) {
        ADD_FAILURE() << "shared_neighbors(" << u << ", " << v << ") = " << got
                      << ", set_intersection gives " << want;
        return sides;
      }
      const std::uint32_t du = g.degree(u);
      const std::uint32_t dv = g.degree(v);
      if (codegree_probes(std::min(du, dv), std::max(du, dv))) {
        ++sides.probe;
      } else {
        ++sides.merge;
      }
    }
  }
  return sides;
}

/// Compares has_edge and has_directed_edge with std::binary_search plus
/// the direction flag on every ordered pair, and on ids past the end.
void expect_edge_tests_on_every_pair(const Graph& g) {
  const auto n = static_cast<VertexId>(g.num_vertices());
  for (VertexId u = 0; u < n; ++u) {
    const auto nbrs = g.neighbors(u);
    const auto dirs = g.directions(u);
    for (VertexId v = 0; v < n; ++v) {
      const bool edge = std::binary_search(nbrs.begin(), nbrs.end(), v);
      bool forward = false;
      if (edge) {
        const EdgeDir d =
            dirs[std::lower_bound(nbrs.begin(), nbrs.end(), v) - nbrs.begin()];
        forward = d == EdgeDir::kForward || d == EdgeDir::kBoth;
      }
      ASSERT_EQ(g.has_edge(u, v), edge) << "u=" << u << " v=" << v;
      ASSERT_EQ(g.has_directed_edge(u, v), forward)
          << "u=" << u << " v=" << v;
    }
    EXPECT_FALSE(g.has_edge(u, n));
    EXPECT_FALSE(g.has_directed_edge(n, u));
  }
}

/// A star's centre joined to a clique: leaf-to-centre pairs are the
/// probe side's short-row-against-hub case.
Graph star_joined_to_clique() {
  return join_by_single_edge(star_graph(80), complete_graph(12));
}

/// Vertices 0, 3 and 7 are isolated (empty rows); the rest form a
/// directed path and a triangle with one reciprocal edge.
Graph graph_with_isolated_vertices() {
  GraphBuilder b(9);
  b.add_edge(1, 2);
  b.add_edge(2, 4);
  b.add_edge(4, 5);
  b.add_edge(5, 6);
  b.add_edge(6, 8);
  b.add_edge(8, 6);
  b.add_edge(8, 5);
  return b.build();
}

TEST(SharedNeighbors, MatchesSetIntersectionOnBothSidesOfTheRule) {
  const RuleSides star = expect_codegree_on_every_pair(star_joined_to_clique());
  EXPECT_GT(star.probe, 0u);
  EXPECT_GT(star.merge, 0u);
  // Identical rows of equal length: all merge.
  const RuleSides clique = expect_codegree_on_every_pair(complete_graph(40));
  EXPECT_EQ(clique.probe, 0u);
  // Rows of 3 against rows of 50 probe; the 50-vs-50 pairs merge.
  const RuleSides bipartite =
      expect_codegree_on_every_pair(complete_bipartite(3, 50));
  EXPECT_GT(bipartite.probe, 0u);
  EXPECT_GT(bipartite.merge, 0u);
  Rng rng(4);
  const RuleSides ba =
      expect_codegree_on_every_pair(barabasi_albert(300, 3, rng));
  EXPECT_GT(ba.probe, 0u);
  EXPECT_GT(ba.merge, 0u);
  const RuleSides gab = expect_codegree_on_every_pair(make_gab(150, 5).graph);
  EXPECT_GT(gab.probe, 0u);
  EXPECT_GT(gab.merge, 0u);
  expect_codegree_on_every_pair(grid_graph(7, 9));
  expect_codegree_on_every_pair(graph_with_isolated_vertices());
}

TEST(SharedNeighbors, SizeRule) {
  // A leaf against a hub probes; equal rows merge; an empty row against
  // an empty row has nothing to probe.
  EXPECT_TRUE(codegree_probes(1, 1000));
  EXPECT_FALSE(codegree_probes(39, 39));
  EXPECT_FALSE(codegree_probes(0, 0));
  // The boundary: 11 entries into 11 cost 11 · 4 = 44 search steps
  // against a 2 · 22 = 44-step merge, so the merge keeps the tie; one
  // more entry in the longer row tips it to the probe.
  EXPECT_FALSE(codegree_probes(11, 11));
  EXPECT_TRUE(codegree_probes(11, 12));
}

TEST(GraphSearch, HasEdgeMatchesBinarySearch) {
  expect_edge_tests_on_every_pair(star_joined_to_clique());
  expect_edge_tests_on_every_pair(complete_graph(40));
  expect_edge_tests_on_every_pair(complete_bipartite(3, 50));
  Rng rng(6);
  expect_edge_tests_on_every_pair(barabasi_albert(300, 3, rng));
  expect_edge_tests_on_every_pair(make_gab(150, 7).graph);
  expect_edge_tests_on_every_pair(grid_graph(7, 9));
  const Graph isolated = graph_with_isolated_vertices();
  ASSERT_EQ(isolated.degree(0), 0u);  // an empty row is searched too
  expect_edge_tests_on_every_pair(isolated);
}

TEST(GraphSearch, LowerBoundIndexMatchesStdLowerBound) {
  for (std::size_t len = 0; len <= 70; ++len) {
    std::vector<VertexId> row(len);
    for (std::size_t i = 0; i < len; ++i) {
      row[i] = static_cast<VertexId>(3 * i + 1);
    }
    for (VertexId x = 0; x <= 3 * len + 2; ++x) {
      const auto want = static_cast<std::size_t>(
          std::lower_bound(row.begin(), row.end(), x) - row.begin());
      ASSERT_EQ(lower_bound_index(row, x), want) << "len=" << len << " x=" << x;
    }
  }
}

TEST(TrianglesPerVertex, CompleteGraph) {
  const Graph g = complete_graph(5);
  const auto tri = triangles_per_vertex(g);
  for (auto t : tri) EXPECT_EQ(t, 6u);  // C(4,2)
}

TEST(TrianglesPerVertex, TriangleFree) {
  const Graph g = complete_bipartite(3, 3);
  for (auto t : triangles_per_vertex(g)) EXPECT_EQ(t, 0u);
}

TEST(GlobalClustering, CompleteGraphIsOne) {
  EXPECT_DOUBLE_EQ(exact_global_clustering(complete_graph(6)), 1.0);
}

TEST(GlobalClustering, BipartiteIsZero) {
  EXPECT_DOUBLE_EQ(exact_global_clustering(complete_bipartite(3, 4)), 0.0);
}

TEST(GlobalClustering, StarIsZero) {
  // Only the center has degree >= 2 and it closes no triangles.
  EXPECT_DOUBLE_EQ(exact_global_clustering(star_graph(6)), 0.0);
}

TEST(GlobalClustering, TriangleWithPendant) {
  // Triangle {0,1,2} plus pendant 3 attached to 0.
  GraphBuilder b(4);
  b.add_undirected_edge(0, 1);
  b.add_undirected_edge(1, 2);
  b.add_undirected_edge(2, 0);
  b.add_undirected_edge(0, 3);
  const Graph g = b.build();
  // c(0) = 1/C(3,2) = 1/3, c(1) = c(2) = 1, vertex 3 excluded (deg 1).
  EXPECT_NEAR(exact_global_clustering(g), (1.0 / 3.0 + 1.0 + 1.0) / 3.0,
              1e-12);
}

TEST(Assortativity, ZeroOnDegreeRegularGraph) {
  // All out/in degrees equal -> zero variance -> r = 0 by convention.
  EXPECT_DOUBLE_EQ(exact_assortativity(cycle_graph(7)), 0.0);
}

TEST(Assortativity, StarIsStronglyDisassortative) {
  // Undirected star: every directed edge connects deg-n-1 with deg-1.
  const double r = exact_assortativity(star_graph(10));
  EXPECT_NEAR(r, -1.0, 1e-9);
}

TEST(Assortativity, InRange) {
  Rng rng(3);
  const Graph g = barabasi_albert(2000, 2, rng);
  const double r = exact_assortativity(g);
  EXPECT_GE(r, -1.0);
  EXPECT_LE(r, 1.0);
}

TEST(Assortativity, PositiveOnAssortativeConstruction) {
  // Two cliques of different sizes joined by one edge: high-degree vertices
  // mostly link to high-degree vertices.
  const Graph joined =
      join_by_single_edge(complete_graph(8), complete_graph(3));
  EXPECT_GT(exact_assortativity(joined), 0.5);
}

TEST(Summarize, Table1Columns) {
  GraphBuilder b(5);
  b.add_undirected_edge(0, 1);
  b.add_undirected_edge(1, 2);
  b.add_undirected_edge(3, 4);
  const Graph g = b.build();
  const GraphSummary s = summarize(g, "toy");
  EXPECT_EQ(s.name, "toy");
  EXPECT_EQ(s.num_vertices, 5u);
  EXPECT_EQ(s.lcc_size, 3u);
  EXPECT_EQ(s.num_directed_edges, 6u);
  EXPECT_DOUBLE_EQ(s.average_degree, 6.0 / 5.0);
  EXPECT_DOUBLE_EQ(s.wmax, 2.0 / (6.0 / 5.0));
}

TEST(DegreeOf, DispatchesKinds) {
  GraphBuilder b(2);
  b.add_edge(0, 1);
  const Graph g = b.build();
  EXPECT_EQ(degree_of(g, 0, DegreeKind::kOut), 1u);
  EXPECT_EQ(degree_of(g, 0, DegreeKind::kIn), 0u);
  EXPECT_EQ(degree_of(g, 0, DegreeKind::kSymmetric), 1u);
}

}  // namespace
}  // namespace frontier
