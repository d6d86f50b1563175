#include "estimators/graph_moments.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "graph/generators.hpp"
#include "sampling/frontier_sampler.hpp"
#include "sampling/single_rw.hpp"

namespace frontier {
namespace {

std::vector<Edge> full_edge_pass(const Graph& g) {
  std::vector<Edge> edges;
  edges.reserve(g.volume());
  for (EdgeIndex j = 0; j < g.volume(); ++j) edges.push_back(g.edge_at(j));
  return edges;
}

TEST(AverageDegreeEstimator, ExactOnFullPass) {
  Rng rng(1);
  const Graph g = barabasi_albert(500, 3, rng);
  EXPECT_NEAR(estimate_average_degree(g, full_edge_pass(g)),
              g.average_degree(), 1e-9);
}

TEST(AverageDegreeEstimator, EmptyIsZero) {
  const Graph g = cycle_graph(4);
  EXPECT_DOUBLE_EQ(estimate_average_degree(g, {}), 0.0);
}

TEST(AverageDegreeEstimator, ConvergesOnWalk) {
  Rng rng(2);
  const Graph g = barabasi_albert(300, 2, rng);
  const SingleRandomWalk walker(g, {.steps = 200000});
  const double est = estimate_average_degree(g, walker.run(rng).edges);
  EXPECT_NEAR(est, g.average_degree(), 0.05 * g.average_degree());
}

TEST(AverageDegreeEstimator, UniformVariant) {
  const Graph g = star_graph(5);  // degrees 4,1,1,1,1 -> mean 8/5
  std::vector<VertexId> all{0, 1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(estimate_average_degree_uniform(g, all), 1.6);
  EXPECT_DOUBLE_EQ(estimate_average_degree_uniform(g, {}), 0.0);
}

TEST(DegreeMomentEstimator, FirstMomentIsAverageDegree) {
  Rng rng(3);
  const Graph g = barabasi_albert(200, 2, rng);
  const auto edges = full_edge_pass(g);
  EXPECT_NEAR(estimate_degree_moment(g, edges, 1),
              estimate_average_degree(g, edges), 1e-9);
}

TEST(DegreeMomentEstimator, SecondMomentExactOnFullPass) {
  Rng rng(4);
  const Graph g = barabasi_albert(200, 2, rng);
  double truth = 0.0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const double d = g.degree(v);
    truth += d * d;
  }
  truth /= static_cast<double>(g.num_vertices());
  EXPECT_NEAR(estimate_degree_moment(g, full_edge_pass(g), 2), truth, 1e-6);
}

TEST(DegreeMomentEstimator, ZerothMomentIsOne) {
  Rng rng(5);
  const Graph g = cycle_graph(5);
  EXPECT_DOUBLE_EQ(estimate_degree_moment(g, full_edge_pass(g), 0), 1.0);
  EXPECT_DOUBLE_EQ(estimate_degree_moment(g, {}, 0), 0.0);
}

TEST(DegreePower, BitEqualToStdPow) {
  // 94906265² is the last square below 2^53 and 94906266² the first above,
  // so exponent 2 crosses from the integer product to std::pow between
  // them; 2^26 squares to exactly 2^52.
  constexpr std::uint32_t kDegrees[] = {
      1u, 2u, 3u, 1000u, 1u << 26, 94906265u, 94906266u, 0xFFFFFFFFu};
  for (const std::uint32_t deg : kDegrees) {
    for (unsigned e = 0; e <= 4; ++e) {
      const double want =
          std::pow(static_cast<double>(deg), static_cast<double>(e));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(degree_power(deg, e)),
                std::bit_cast<std::uint64_t>(want))
          << "deg=" << deg << " e=" << e;
    }
  }
  EXPECT_LT(94906265.0 * 94906265.0, 0x1p53);
  EXPECT_GT(94906266.0 * 94906266.0, 0x1p53);
}

TEST(VolumeEstimator, ExactOnFullPassGivenTrueN) {
  Rng rng(6);
  const Graph g = barabasi_albert(300, 3, rng);
  const double est = estimate_volume(
      g, full_edge_pass(g), static_cast<double>(g.num_vertices()));
  EXPECT_NEAR(est, static_cast<double>(g.volume()), 1e-6);
  EXPECT_THROW((void)estimate_volume(g, full_edge_pass(g), 0.0),
               std::invalid_argument);
}

TEST(VolumeEstimator, FrontierSamplingEstimatesVolume) {
  Rng rng(7);
  const Graph g = barabasi_albert(500, 3, rng);
  const FrontierSampler fs(g, {.dimension = 20, .steps = 200000});
  const double est = estimate_volume(
      g, fs.run(rng).edges, static_cast<double>(g.num_vertices()));
  EXPECT_NEAR(est, static_cast<double>(g.volume()),
              0.05 * static_cast<double>(g.volume()));
}

}  // namespace
}  // namespace frontier
