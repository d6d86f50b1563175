#include "estimators/degree_distribution.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "core/checksum.hpp"
#include "experiments/datasets.hpp"
#include "graph/generators.hpp"
#include "sampling/frontier_sampler.hpp"
#include "sampling/multiple_rw.hpp"
#include "sampling/single_rw.hpp"
#include "stream/block.hpp"
#include "stream/sinks.hpp"

namespace frontier {
namespace {

std::vector<Edge> full_edge_pass(const Graph& g) {
  std::vector<Edge> edges;
  edges.reserve(g.volume());
  for (EdgeIndex j = 0; j < g.volume(); ++j) edges.push_back(g.edge_at(j));
  return edges;
}

TEST(DegreeDistributionEstimator, ExactOnFullPass) {
  Rng rng(1);
  const Graph g = directed_preferential(400, 2, 0.5, rng);
  for (auto kind :
       {DegreeKind::kSymmetric, DegreeKind::kIn, DegreeKind::kOut}) {
    const auto truth = degree_distribution(g, kind);
    const auto est = estimate_degree_distribution(g, full_edge_pass(g), kind);
    ASSERT_EQ(est.size(), truth.size());
    for (std::size_t i = 0; i < truth.size(); ++i) {
      // Vertices with in/out degree 0 are invisible to edge sampling only
      // if their symmetric degree is 0 too — here every vertex has an edge,
      // so the full pass reproduces the exact distribution.
      EXPECT_NEAR(est[i], truth[i], 1e-9) << "degree " << i;
    }
  }
}

TEST(DegreeDistributionEstimator, SumsToOne) {
  Rng rng(2);
  const Graph g = barabasi_albert(300, 2, rng);
  const SingleRandomWalk walker(g, {.steps = 5000});
  const auto est = estimate_degree_distribution(
      g, walker.run(rng).edges, DegreeKind::kSymmetric);
  EXPECT_NEAR(std::accumulate(est.begin(), est.end(), 0.0), 1.0, 1e-9);
}

TEST(DegreeDistributionEstimator, EmptyInputIsEmpty) {
  const Graph g = cycle_graph(4);
  EXPECT_TRUE(
      estimate_degree_distribution(g, {}, DegreeKind::kSymmetric).empty());
}

TEST(DegreeDistributionEstimator, ConvergesOnLongWalk) {
  Rng rng(3);
  const Graph g = barabasi_albert(150, 2, rng);
  const auto truth = degree_distribution(g, DegreeKind::kSymmetric);
  const SingleRandomWalk walker(g, {.steps = 500000});
  const auto est = estimate_degree_distribution(
      g, walker.run(rng).edges, DegreeKind::kSymmetric);
  for (std::size_t i = 0; i < truth.size(); ++i) {
    if (truth[i] < 0.005) continue;  // skip rare degrees (noise dominated)
    EXPECT_NEAR(est[i], truth[i], 0.15 * truth[i] + 0.002) << "degree " << i;
  }
}

TEST(DegreeDistributionEstimator, FrontierSamplerConvergesToo) {
  Rng rng(4);
  const Graph g = barabasi_albert(150, 2, rng);
  const auto truth = degree_distribution(g, DegreeKind::kSymmetric);
  const FrontierSampler fs(g, {.dimension = 20, .steps = 500000});
  const auto est = estimate_degree_distribution(g, fs.run(rng).edges,
                                                DegreeKind::kSymmetric);
  for (std::size_t i = 0; i < truth.size(); ++i) {
    if (truth[i] < 0.005) continue;
    EXPECT_NEAR(est[i], truth[i], 0.15 * truth[i] + 0.002) << "degree " << i;
  }
}

TEST(DegreeDistributionUniform, ExactWhenEveryVertexSampledOnce) {
  Rng rng(5);
  const Graph g = barabasi_albert(200, 2, rng);
  std::vector<VertexId> all(g.num_vertices());
  std::iota(all.begin(), all.end(), 0);
  const auto truth = degree_distribution(g, DegreeKind::kSymmetric);
  const auto est =
      estimate_degree_distribution_uniform(g, all, DegreeKind::kSymmetric);
  ASSERT_EQ(est.size(), truth.size());
  for (std::size_t i = 0; i < truth.size(); ++i) {
    EXPECT_NEAR(est[i], truth[i], 1e-12);
  }
}

TEST(DegreeCcdfEstimator, MatchesPdfThenCcdf) {
  Rng rng(6);
  const Graph g = barabasi_albert(100, 2, rng);
  const SingleRandomWalk walker(g, {.steps = 2000});
  Rng ra(50);
  Rng rb(50);
  const auto edges_a = walker.run(ra).edges;
  const auto edges_b = walker.run(rb).edges;
  const auto via_helper = estimate_degree_ccdf(g, edges_a, DegreeKind::kIn);
  const auto manual = ccdf_from_pdf(
      estimate_degree_distribution(g, edges_b, DegreeKind::kIn));
  ASSERT_EQ(via_helper.size(), manual.size());
  for (std::size_t i = 0; i < manual.size(); ++i) {
    EXPECT_NEAR(via_helper[i], manual[i], 1e-12);
  }
}

// Golden digests of the eq.-7 fold. Fixed-seed FS (m = 16), SingleRW and
// MultipleRW samples on a small G_AB and a small BA graph, every
// DegreeKind: the batch estimator's output, the streaming sink's output
// fed the same edges, and the sink's serialized state (its checkpoint
// format). Recorded from the two separate folds the shared one replaced.

std::vector<std::vector<Edge>> golden_samples(const Graph& g) {
  Rng rng(2024);
  const FrontierSampler fs(g, {.dimension = 16, .steps = 3000});
  const SingleRandomWalk srw(g, {.steps = 3000});
  const MultipleRandomWalks mrw(g,
                                {.num_walkers = 16, .steps_per_walker = 190});
  std::vector<std::vector<Edge>> samples;
  samples.push_back(fs.run(rng).edges);
  samples.push_back(srw.run(rng).edges);
  samples.push_back(mrw.run(rng).edges);
  return samples;
}

void put_u64(std::string& bytes, std::uint64_t x) {
  for (int i = 0; i < 8; ++i) {
    bytes.push_back(static_cast<char>((x >> (8 * i)) & 0xff));
  }
}

void put_doubles(std::string& bytes, const std::vector<double>& x) {
  put_u64(bytes, x.size());
  for (const double d : x) put_u64(bytes, std::bit_cast<std::uint64_t>(d));
}

TEST(DegreeDistributionEstimator, BatchAndSinkMatchGoldenDigests) {
  Rng rng(11);
  const Graph ba = barabasi_albert(400, 3, rng);
  const Graph gab = make_gab(200, 5).graph;
  std::string batch_bytes;
  std::string sink_bytes;
  std::string state_bytes;
  for (const Graph* g : {&gab, &ba}) {
    for (const std::vector<Edge>& edges : golden_samples(*g)) {
      ASSERT_FALSE(edges.empty());
      for (const DegreeKind kind :
           {DegreeKind::kSymmetric, DegreeKind::kIn, DegreeKind::kOut}) {
        const std::vector<double> batch =
            estimate_degree_distribution(*g, edges, kind);
        // The same edges through the sink, in blocks that do not divide
        // the sample.
        DegreeDistributionSink sink(*g, kind);
        StreamEventBlock block(61);
        block.clear(*g);
        for (std::size_t i = 0; i < edges.size(); ++i) {
          block.push_edge(edges[i].u, edges[i].v, g->degree(edges[i].v),
                          g->find_slot(edges[i].u, edges[i].v));
          if (block.room() == 0 || i + 1 == edges.size()) {
            sink.ingest_block(block);
            block.clear(*g);
          }
        }
        const std::vector<double> streamed = sink.distribution();
        ASSERT_EQ(streamed.size(), batch.size());
        for (std::size_t d = 0; d < batch.size(); ++d) {
          EXPECT_EQ(std::bit_cast<std::uint64_t>(streamed[d]),
                    std::bit_cast<std::uint64_t>(batch[d]))
              << "degree " << d;
        }
        put_doubles(batch_bytes, batch);
        put_doubles(sink_bytes, streamed);
        std::ostringstream state(std::ios::binary);
        sink.save_state(state);
        state_bytes += state.str();
      }
    }
  }
  // The sink's output is bit-equal to the batch output, so both digests
  // are the same number.
  constexpr std::uint64_t kDistributionDigest = 0x67f8679cb4aeca68ULL;
  EXPECT_EQ(crc64(batch_bytes.data(), batch_bytes.size()),
            kDistributionDigest);
  EXPECT_EQ(crc64(sink_bytes.data(), sink_bytes.size()), kDistributionDigest);
  EXPECT_EQ(crc64(state_bytes.data(), state_bytes.size()),
            0x5b6d365ef60eb445ULL);
}

}  // namespace
}  // namespace frontier
