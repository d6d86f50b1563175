// Online sinks vs batch estimators: fed the same edge/vertex sequence,
// every sink must produce bit-identical output to its batch counterpart.
#include "stream/sinks.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "estimators/degree_distribution.hpp"
#include "estimators/density.hpp"
#include "estimators/graph_moments.hpp"
#include "graph/generators.hpp"
#include "sampling/frontier_sampler.hpp"
#include "sampling/metropolis.hpp"
#include "sampling/single_rw.hpp"
#include "stream/block.hpp"
#include "stream/engine.hpp"
#include "stream/sampler_cursors.hpp"

namespace frontier {
namespace {

Graph test_graph() {
  Rng rng(99);
  return barabasi_albert(300, 3, rng);
}

// Streams a batch record's observations straight into a sink through
// blocks, so sink output can be compared against the batch estimator over
// the identical sequence. Edge rows carry deg(v) and the CSR slot of
// (u, v) in g, as a cursor's do.
void feed(EstimatorSink& sink, const Graph& g, std::span<const Edge> edges,
          std::span<const VertexId> vertices = {}) {
  StreamEventBlock block(256);
  block.clear(g);
  const auto flush = [&] {
    sink.ingest_block(block);
    block.clear(g);
  };
  for (const Edge& e : edges) {
    if (block.room() == 0) flush();
    block.push_edge(e.u, e.v, g.degree(e.v), g.find_slot(e.u, e.v));
  }
  for (const VertexId v : vertices) {
    if (block.room() == 0) flush();
    block.push_vertex(v);
  }
  flush();
}

SampleRecord fs_record(const Graph& g, std::uint64_t seed,
                       std::uint64_t steps) {
  const FrontierSampler fs(g, {.dimension = 10, .steps = steps});
  Rng rng(seed);
  return fs.run(rng);
}

TEST(StreamSinks, DegreeDistributionMatchesBatch) {
  const Graph g = test_graph();
  const SampleRecord rec = fs_record(g, 5, 20000);
  DegreeDistributionSink sink(g, DegreeKind::kSymmetric);
  feed(sink, g, rec.edges);
  const auto batch = estimate_degree_distribution(g, rec.edges,
                                                  DegreeKind::kSymmetric);
  const auto streamed = sink.distribution();
  ASSERT_EQ(batch.size(), streamed.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(batch[i], streamed[i]) << "bucket " << i;  // bitwise
  }
  const auto batch_ccdf = estimate_degree_ccdf(g, rec.edges,
                                               DegreeKind::kSymmetric);
  EXPECT_EQ(batch_ccdf, sink.ccdf());
  EXPECT_EQ(sink.edges_consumed(), rec.edges.size());
}

TEST(StreamSinks, DegreeDistributionInDegreeKind) {
  const Graph g = test_graph();
  const SampleRecord rec = fs_record(g, 6, 10000);
  DegreeDistributionSink sink(g, DegreeKind::kIn);
  feed(sink, g, rec.edges);
  EXPECT_EQ(estimate_degree_distribution(g, rec.edges, DegreeKind::kIn),
            sink.distribution());
}

TEST(StreamSinks, VertexDensityMatchesBatch) {
  const Graph g = test_graph();
  const SampleRecord rec = fs_record(g, 7, 15000);
  const auto pred = [&g](VertexId v) { return g.degree(v) > 5; };
  VertexDensitySink sink(g, pred);
  feed(sink, g, rec.edges);
  EXPECT_EQ(estimate_vertex_label_density(g, rec.edges, pred), sink.value());
}

TEST(StreamSinks, EdgeDensityMatchesBatch) {
  const Graph g = test_graph();
  const SampleRecord rec = fs_record(g, 8, 15000);
  const auto labeled = [](const Edge& e) { return e.u % 2 == 0; };
  const auto has_label = [](const Edge& e) { return e.v % 3 == 0; };
  EdgeDensitySink sink(labeled, has_label);
  feed(sink, g, rec.edges);
  EXPECT_EQ(estimate_edge_label_density(rec.edges, labeled, has_label),
            sink.value());
}

TEST(StreamSinks, AssortativityMatchesBatch) {
  const Graph g = test_graph();
  const SampleRecord rec = fs_record(g, 9, 15000);
  AssortativitySink sink(g);
  feed(sink, g, rec.edges);
  EXPECT_EQ(estimate_assortativity(g, rec.edges), sink.value());
}

/// The sink reads each row's direction flag at its slot, so it takes only
/// blocks whose slots index its graph; a non-edge row (kNoSlot) is
/// unlabeled and skipped.
TEST(StreamSinks, AssortativityReadsOnlyItsGraphsSlots) {
  const Graph g = test_graph();
  Rng rng(12);
  const Graph other = directed_preferential(g.num_vertices(), 3, 0.4, rng);
  const Edge e = g.edge_at(0);
  StreamEventBlock block(4);
  block.clear(other);
  block.push_edge(e.u, e.v, g.degree(e.v), g.find_slot(e.u, e.v));
  AssortativitySink sink(g);
  EXPECT_THROW(sink.ingest_block(block), std::invalid_argument);

  Edge far{0, static_cast<VertexId>(g.num_vertices() - 1)};
  while (g.has_edge(far.u, far.v)) --far.v;
  block.clear(g);
  block.push_edge(far.u, far.v, g.degree(far.v), g.find_slot(far.u, far.v));
  sink.ingest_block(block);
  EXPECT_EQ(sink.labeled_count(), 0u);
}

TEST(StreamSinks, GraphMomentsMatchBatch) {
  const Graph g = test_graph();
  const SampleRecord rec = fs_record(g, 10, 15000);
  GraphMomentsSink sink(g, 3);
  feed(sink, g, rec.edges);
  EXPECT_EQ(estimate_average_degree(g, rec.edges), sink.average_degree());
  EXPECT_EQ(estimate_degree_moment(g, rec.edges, 1), sink.degree_moment(1));
  EXPECT_EQ(estimate_degree_moment(g, rec.edges, 2), sink.degree_moment(2));
  EXPECT_EQ(estimate_degree_moment(g, rec.edges, 3), sink.degree_moment(3));
  EXPECT_EQ(estimate_volume(g, rec.edges, 300.0), sink.volume(300.0));
  EXPECT_THROW((void)sink.degree_moment(4), std::out_of_range);
  EXPECT_EQ(sink.observed_degrees().count(), rec.edges.size());
}

TEST(StreamSinks, UniformDegreeMatchesBatchOnMhVisits) {
  const Graph g = test_graph();
  const MetropolisHastingsWalk mh(g, {.steps = 10000});
  Rng rng(11);
  const SampleRecord rec = mh.run(rng);
  UniformDegreeSink sink(g);
  feed(sink, g, {}, rec.vertices);
  EXPECT_EQ(estimate_average_degree_uniform(g, rec.vertices), sink.value());
  EXPECT_EQ(sink.vertices_consumed(), rec.vertices.size());
}

TEST(StreamSinks, EmptyStreamsGiveZeroEstimates) {
  const Graph g = test_graph();
  DegreeDistributionSink dd(g, DegreeKind::kSymmetric);
  EXPECT_TRUE(dd.distribution().empty());
  VertexDensitySink vd(g, [](VertexId) { return true; });
  EXPECT_EQ(vd.value(), 0.0);
  GraphMomentsSink gm(g);
  EXPECT_EQ(gm.average_degree(), 0.0);
  UniformDegreeSink ud(g);
  EXPECT_EQ(ud.value(), 0.0);
}

TEST(StreamSinks, EdgeSinksIgnoreVertexOnlyEvents) {
  const Graph g = test_graph();
  GraphMomentsSink sink(g);
  feed(sink, g, {}, std::vector<VertexId>{0, 1, 2});
  EXPECT_EQ(sink.edges_consumed(), 0u);
}

TEST(StreamSinks, EngineFeedsAllSinksAndCountsEvents) {
  // End-to-end: a streaming engine over an FS cursor reproduces the batch
  // estimates of the same seed without materializing the record.
  const Graph g = test_graph();
  const FrontierSampler fs(g, {.dimension = 10, .steps = 20000});
  Rng batch_rng(5);
  const SampleRecord rec = fs.run(batch_rng);

  SinkSet sinks;
  sinks.push_back(
      std::make_unique<DegreeDistributionSink>(g, DegreeKind::kSymmetric));
  sinks.push_back(std::make_unique<GraphMomentsSink>(g));
  StreamEngine engine(
      std::make_unique<FrontierCursor>(g, fs.config(), Rng(5)),
      std::move(sinks));
  const std::uint64_t events = engine.run_to_completion();
  EXPECT_EQ(events, 20000u);
  EXPECT_EQ(engine.events(), 20000u);
  EXPECT_TRUE(engine.finished());

  const auto& dd =
      dynamic_cast<const DegreeDistributionSink&>(*engine.sinks()[0]);
  const auto& gm = dynamic_cast<const GraphMomentsSink&>(*engine.sinks()[1]);
  EXPECT_EQ(estimate_degree_distribution(g, rec.edges, DegreeKind::kSymmetric),
            dd.distribution());
  EXPECT_EQ(estimate_average_degree(g, rec.edges), gm.average_degree());
  EXPECT_EQ(engine.cursor().cost(), rec.cost);
}

}  // namespace
}  // namespace frontier
