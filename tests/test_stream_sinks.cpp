// Online sinks, and the batch estimators that fold through them
// (fold_sample): values pinned to goldens recorded from the separate batch
// loops the folds replaced, and a sink's state independent of how its
// blocks index the graph.
#include "stream/sinks.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <functional>
#include <memory>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/checksum.hpp"
#include "estimators/assortativity.hpp"
#include "estimators/clustering.hpp"
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

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

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
  fold_sample(sink, g, rec.edges);
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
  fold_sample(sink, g, rec.edges);
  EXPECT_EQ(estimate_degree_distribution(g, rec.edges, DegreeKind::kIn),
            sink.distribution());
}

TEST(StreamSinks, VertexDensityMatchesRecordedValue) {
  const Graph g = test_graph();
  const SampleRecord rec = fs_record(g, 7, 15000);
  const auto pred = [&g](VertexId v) { return g.degree(v) > 5; };
  VertexDensitySink sink(g, pred);
  fold_sample(sink, g, rec.edges);
  EXPECT_EQ(bits(sink.value()), 0x3fd476f4cc9adcd8ULL);
  EXPECT_EQ(bits(estimate_vertex_label_density(g, rec.edges, pred)),
            0x3fd476f4cc9adcd8ULL);
}

TEST(StreamSinks, EdgeDensityMatchesRecordedValue) {
  const Graph g = test_graph();
  const SampleRecord rec = fs_record(g, 8, 15000);
  const auto labeled = [](const Edge& e) { return e.u % 2 == 0; };
  const auto has_label = [](const Edge& e) { return e.v % 3 == 0; };
  EdgeDensitySink sink(labeled, has_label);
  fold_sample(sink, g, rec.edges);
  EXPECT_EQ(bits(sink.value()), 0x3fd603a977f6c6f8ULL);
  EXPECT_EQ(bits(estimate_edge_label_density(g, rec.edges, labeled, has_label)),
            0x3fd603a977f6c6f8ULL);
}

TEST(StreamSinks, AssortativityMatchesRecordedValue) {
  const Graph g = test_graph();
  const SampleRecord rec = fs_record(g, 9, 15000);
  AssortativitySink sink(g);
  fold_sample(sink, g, rec.edges);
  EXPECT_EQ(bits(sink.value()), 0xbfafec46542aa90aULL);
  EXPECT_EQ(bits(estimate_assortativity(g, rec.edges)), 0xbfafec46542aa90aULL);
}

/// save_state of an AssortativitySink(g) fed `edges` in blocks of 97 rows
/// started by clear(on), each edge row carrying its CSR slot in `on`.
std::string assortativity_state(const Graph& g, const Graph& on,
                                std::span<const Edge> edges) {
  AssortativitySink sink(g);
  StreamEventBlock block(97);
  block.clear(on);
  for (std::size_t i = 0; i < edges.size(); ++i) {
    block.push_edge(edges[i].u, edges[i].v, g.degree(edges[i].v),
                    on.find_slot(edges[i].u, edges[i].v));
    if (block.room() == 0 || i + 1 == edges.size()) {
      sink.ingest_block(block);
      block.clear(on);
    }
  }
  std::ostringstream os(std::ios::binary);
  sink.save_state(os);
  return os.str();
}

/// The sink reads each row's direction flag at its slot in its own graph:
/// a fill whose slots index another graph (or none, as fold_sample's)
/// folds exactly like the same rows filled for g, and a non-edge row
/// (kNoSlot) is unlabeled and skipped.
TEST(StreamSinks, AssortativityReadsOnlyItsGraphsSlots) {
  const Graph g = test_graph();
  Rng rng(12);
  const Graph other = directed_preferential(g.num_vertices(), 3, 0.4, rng);
  const SampleRecord rec = fs_record(g, 9, 15000);
  const std::string own = assortativity_state(g, g, rec.edges);
  EXPECT_EQ(assortativity_state(g, other, rec.edges), own);
  AssortativitySink unindexed(g);
  fold_sample(unindexed, g, rec.edges);
  std::ostringstream os(std::ios::binary);
  unindexed.save_state(os);
  EXPECT_EQ(os.str(), own);
  EXPECT_EQ(bits(unindexed.value()), 0xbfafec46542aa90aULL);

  Edge far{0, static_cast<VertexId>(g.num_vertices() - 1)};
  while (g.has_edge(far.u, far.v)) --far.v;
  AssortativitySink sink(g);
  for (const Graph* on : {&g, &other}) {
    StreamEventBlock block(4);
    block.clear(*on);
    block.push_edge(far.u, far.v, g.degree(far.v),
                    on->find_slot(far.u, far.v));
    sink.ingest_block(block);
  }
  EXPECT_EQ(sink.labeled_count(), 0u);
}

TEST(StreamSinks, GraphMomentsMatchRecordedValues) {
  const Graph g = test_graph();
  const SampleRecord rec = fs_record(g, 10, 15000);
  GraphMomentsSink sink(g, 3);
  fold_sample(sink, g, rec.edges);
  constexpr std::uint64_t kAverage = 0x40179b0db3ddfa3fULL;
  constexpr std::uint64_t kMoment2 = 0x4050b817e7919d2cULL;
  constexpr std::uint64_t kMoment3 = 0x409822825aef8ecfULL;
  constexpr std::uint64_t kVolume = 0x409ba9b40ec82142ULL;
  EXPECT_EQ(bits(sink.average_degree()), kAverage);
  EXPECT_EQ(bits(sink.degree_moment(1)), kAverage);
  EXPECT_EQ(bits(sink.degree_moment(2)), kMoment2);
  EXPECT_EQ(bits(sink.degree_moment(3)), kMoment3);
  EXPECT_EQ(bits(sink.volume(300.0)), kVolume);
  EXPECT_EQ(bits(estimate_average_degree(g, rec.edges)), kAverage);
  EXPECT_EQ(bits(estimate_degree_moment(g, rec.edges, 1)), kAverage);
  EXPECT_EQ(bits(estimate_degree_moment(g, rec.edges, 2)), kMoment2);
  EXPECT_EQ(bits(estimate_degree_moment(g, rec.edges, 3)), kMoment3);
  EXPECT_EQ(bits(estimate_volume(g, rec.edges, 300.0)), kVolume);
  EXPECT_THROW((void)sink.degree_moment(4), std::out_of_range);
  EXPECT_EQ(sink.observed_degrees().count(), rec.edges.size());
}

TEST(StreamSinks, UniformDegreeMatchesRecordedValueOnMhVisits) {
  const Graph g = test_graph();
  const MetropolisHastingsWalk mh(g, {.steps = 10000});
  Rng rng(11);
  const SampleRecord rec = mh.run(rng);
  UniformDegreeSink sink(g);
  fold_sample(sink, g, {}, rec.vertices);
  EXPECT_EQ(bits(sink.value()), 0x4017b43b489eb442ULL);
  EXPECT_EQ(bits(estimate_average_degree_uniform(g, rec.vertices)),
            0x4017b43b489eb442ULL);
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
  fold_sample(sink, g, {}, std::vector<VertexId>{0, 1, 2});
  EXPECT_EQ(sink.edges_consumed(), 0u);
}

// ------------------------------------------------------------- goldens
//
// Each batch estimator with a sink folds through that sink, so a
// batch-vs-sink comparison would compare a value with itself. These pin
// the values instead: CRC-64 digests of every estimator's value bits on
// six fixed FS records (m = 10, 2*10^4 steps, seeds 1-3 on BA(300, 3) and
// on directed_preferential(5000, 4, 0.4)), recorded from the separate
// batch loops the folds replaced.

struct GoldenRecord {
  const Graph* g;
  std::vector<Edge> edges;
  std::vector<VertexId> visits;  // an MH walk's visits, same seed
};

const std::vector<GoldenRecord>& golden_records() {
  static const Graph ba = test_graph();
  static const Graph dp = [] {
    Rng rng(2025);
    return directed_preferential(5000, 4, 0.4, rng);
  }();
  static const std::vector<GoldenRecord> records = [] {
    std::vector<GoldenRecord> out;
    for (const Graph* g : {&ba, &dp}) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        const MetropolisHastingsWalk mh(*g, {.steps = 5000});
        Rng rng(seed);
        out.push_back({g, fs_record(*g, seed, 20000).edges,
                       mh.run(rng).vertices});
      }
    }
    return out;
  }();
  return records;
}

bool high_degree(const Graph& g, VertexId v) { return g.degree(v) > 5; }
bool even_source(const Edge& e) { return e.u % 2 == 0; }
bool target_mod3(const Edge& e) { return e.v % 3 == 0; }

/// CRC-64 over the bit patterns of `estimate` on every golden record.
std::uint64_t values_digest(
    const std::function<double(const GoldenRecord&)>& estimate) {
  std::string bytes;
  for (const GoldenRecord& r : golden_records()) {
    const std::uint64_t x = bits(estimate(r));
    for (int i = 0; i < 8; ++i) {
      bytes.push_back(static_cast<char>((x >> (8 * i)) & 0xff));
    }
  }
  return crc64(bytes.data(), bytes.size());
}

/// CRC-64 of a sink's save_state after each golden record is folded into
/// a fresh sink made by `make`.
std::uint64_t state_digest(
    const std::function<std::unique_ptr<EstimatorSink>(const Graph&)>& make) {
  std::string bytes;
  for (const GoldenRecord& r : golden_records()) {
    const auto sink = make(*r.g);
    fold_sample(*sink, *r.g, r.edges);
    std::ostringstream os(std::ios::binary);
    sink->save_state(os);
    bytes += os.str();
  }
  return crc64(bytes.data(), bytes.size());
}

TEST(StreamSinks, BatchEstimatorsMatchGoldenDigests) {
  using Estimate = std::function<double(const GoldenRecord&)>;
  const std::vector<std::pair<const char*, Estimate>> estimators = {
      {"vertex_label_density",
       [](const GoldenRecord& r) {
         return estimate_vertex_label_density(
             *r.g, r.edges, [&r](VertexId v) { return high_degree(*r.g, v); });
       }},
      {"edge_label_density",
       [](const GoldenRecord& r) {
         return estimate_edge_label_density(*r.g, r.edges, even_source,
                                            target_mod3);
       }},
      {"average_degree",
       [](const GoldenRecord& r) {
         return estimate_average_degree(*r.g, r.edges);
       }},
      {"degree_moment_0",
       [](const GoldenRecord& r) {
         return estimate_degree_moment(*r.g, r.edges, 0);
       }},
      {"degree_moment_2",
       [](const GoldenRecord& r) {
         return estimate_degree_moment(*r.g, r.edges, 2);
       }},
      {"degree_moment_3",
       [](const GoldenRecord& r) {
         return estimate_degree_moment(*r.g, r.edges, 3);
       }},
      {"volume",
       [](const GoldenRecord& r) {
         return estimate_volume(*r.g, r.edges,
                                static_cast<double>(r.g->num_vertices()));
       }},
      {"average_degree_uniform",
       [](const GoldenRecord& r) {
         return estimate_average_degree_uniform(*r.g, r.visits);
       }},
      {"assortativity",
       [](const GoldenRecord& r) {
         return estimate_assortativity(*r.g, r.edges);
       }},
      {"global_clustering",
       [](const GoldenRecord& r) {
         return estimate_global_clustering(*r.g, r.edges);
       }},
  };
  const std::vector<std::uint64_t> golden = {
      0x5baf080a90dc263bULL, 0xb6a4aebf13b6a063ULL, 0xc6487ac17e3d7870ULL,
      0x3a27282647ebcdc6ULL, 0x2324e4b4acc5466fULL, 0x076c7cb54d98e347ULL,
      0xabf22706212d2659ULL, 0x31ee00d0f0d074d1ULL, 0xc716620eed3f5931ULL,
      0xf238a1b302250f49ULL,
  };
  ASSERT_EQ(golden.size(), estimators.size());
  for (std::size_t i = 0; i < estimators.size(); ++i) {
    EXPECT_EQ(values_digest(estimators[i].second), golden[i])
        << estimators[i].first;
  }
}

/// The density sinks' checkpoint state, which the roster digests do not
/// cover (neither sink is in the default roster).
TEST(StreamSinks, DensitySinkStatesMatchGoldenDigests) {
  const std::uint64_t vd = state_digest([](const Graph& g) {
    return std::make_unique<VertexDensitySink>(
        g, [&g](VertexId v) { return high_degree(g, v); });
  });
  const std::uint64_t ed = state_digest([](const Graph&) {
    return std::make_unique<EdgeDensitySink>(even_source, target_mod3);
  });
  EXPECT_EQ(vd, 0xfb6c9f84a5ffc781ULL);
  EXPECT_EQ(ed, 0x08f976d212bde172ULL);
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
