// Batched stepping contract: for every cursor, the emitted event sequence,
// the degree column, the starts, the cost and the final RNG state do not
// depend on the block size K (including K=1) and match golden digests; every
// sink's serialized state is independent of K; every edge row's slot is
// the CSR slot of (u, v); the block's codegree column holds f(u, v) of the
// current fill, through the graph-wide memo or not; and a checkpoint taken
// mid-block resumes into the same final state as an uninterrupted K=1 run.
#include "stream/block.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/motifs.hpp"
#include "core/checksum.hpp"
#include "graph/generators.hpp"
#include "graph/metrics.hpp"
#include "sampling/frontier_sampler.hpp"
#include "sampling/metropolis.hpp"
#include "sampling/multiple_rw.hpp"
#include "sampling/random_walk_with_jumps.hpp"
#include "sampling/single_rw.hpp"
#include "stream/cursor.hpp"
#include "stream/engine.hpp"
#include "stream/motif_sinks.hpp"
#include "stream/sampler_cursors.hpp"
#include "stream/sinks.hpp"
#include "stream/spec.hpp"

namespace frontier {
namespace {

constexpr std::size_t kBatchSizes[] = {1, 7, 64, 4096};

Graph test_graph() {
  Rng rng(42);
  return barabasi_albert(300, 3, rng);
}

/// One observed step, flattened for comparison.
struct EventRec {
  bool has_edge = false;
  bool has_vertex = false;
  Edge edge{};
  VertexId vertex = kInvalidVertex;
};

/// Asserts that row i's slot is the CSR slot of its edge (u, v) in g: it
/// lies in u's row and holds v.
void expect_slot_of_edge(const Graph& g, const StreamEventBlock& block,
                         std::size_t i) {
  const VertexId u = block.u()[i];
  const EdgeIndex slot = block.slot()[i];
  ASSERT_GE(slot, g.offsets()[u]) << "slot column row " << i;
  ASSERT_LT(slot, g.offsets()[u + 1]) << "slot column row " << i;
  EXPECT_EQ(g.neighbor_array()[slot], block.v()[i]) << "slot column row " << i;
}

/// Drains via next_batch with block capacity K, also asserting the degree
/// and slot column invariants on every edge row.
std::vector<EventRec> collect_batched(SamplerCursor& cursor, std::size_t k) {
  std::vector<EventRec> out;
  StreamEventBlock block(k);
  while (cursor.next_batch(block) > 0) {
    EXPECT_LE(block.size(), k);
    EXPECT_TRUE(block.slots_index(cursor.graph()));
    for (std::size_t i = 0; i < block.size(); ++i) {
      EventRec rec;
      rec.has_edge = (block.flags()[i] & StreamEventBlock::kHasEdge) != 0;
      rec.has_vertex = (block.flags()[i] & StreamEventBlock::kHasVertex) != 0;
      if (rec.has_edge) {
        rec.edge = Edge{block.u()[i], block.v()[i]};
        EXPECT_EQ(block.deg_v()[i], cursor.graph().degree(block.v()[i]))
            << "degree column row " << i;
        expect_slot_of_edge(cursor.graph(), block, i);
      }
      if (rec.has_vertex) rec.vertex = block.vertex()[i];
      out.push_back(rec);
    }
  }
  // An exhausted cursor keeps returning empty batches.
  EXPECT_EQ(cursor.next_batch(block), 0u);
  EXPECT_TRUE(cursor.done());
  return out;
}

/// CRC-64 over a canonical little-endian encoding of a drained cursor:
/// per row a flag byte plus its flagged payload (u and v for an edge, the
/// vertex for a vertex), then the starts, the bit pattern of the cost and
/// the final RNG state. Only flagged payload is part of the contract.
std::uint64_t digest_of(const std::vector<EventRec>& events,
                        const SamplerCursor& cursor) {
  std::string bytes;
  const auto put = [&bytes](std::uint64_t x, int width) {
    for (int i = 0; i < width; ++i) {
      bytes.push_back(static_cast<char>((x >> (8 * i)) & 0xff));
    }
  };
  for (const EventRec& rec : events) {
    put((rec.has_edge ? 1u : 0u) | (rec.has_vertex ? 2u : 0u), 1);
    if (rec.has_edge) {
      put(rec.edge.u, 4);
      put(rec.edge.v, 4);
    }
    if (rec.has_vertex) put(rec.vertex, 4);
  }
  put(cursor.starts().size(), 8);
  for (const VertexId s : cursor.starts()) put(s, 4);
  put(std::bit_cast<std::uint64_t>(cursor.cost()), 8);
  for (const std::uint64_t word : cursor.rng().state()) put(word, 8);
  return crc64(bytes.data(), bytes.size());
}

/// Asserts next_batch(K) reproduces the golden event count and digest for
/// every K. The digests were recorded from the per-event reference stepper
/// that next_batch replaced, so they pin the sampling process itself, not
/// just agreement between block sizes.
template <typename MakeCursor>
void check_golden(std::size_t events, std::uint64_t digest,
                  MakeCursor make_cursor) {
  for (const std::size_t k : kBatchSizes) {
    auto cursor = make_cursor();
    const std::vector<EventRec> got = collect_batched(*cursor, k);
    EXPECT_EQ(got.size(), events) << "K=" << k;
    EXPECT_EQ(digest_of(got, *cursor), digest) << "K=" << k;
  }
}

TEST(StreamBatch, FrontierWeightedTreeAllBatchSizes) {
  const Graph g = test_graph();
  check_golden(3000, 0x601ade299e5f7c5cULL, [&] {
    return std::make_unique<FrontierCursor>(
        g, FrontierSampler::Config{.dimension = 8, .steps = 3000}, Rng(7));
  });
}

TEST(StreamBatch, FrontierLinearScanAllBatchSizes) {
  const Graph g = test_graph();
  check_golden(3000, 0x2ab53f9bc0bd4d0cULL, [&] {
    return std::make_unique<FrontierCursor>(
        g,
        FrontierSampler::Config{
            .dimension = 6, .steps = 3000,
            .selection = FrontierSampler::Selection::kLinearScan},
        Rng(8));
  });
}

TEST(StreamBatch, SingleRwWithBurnInAndLazinessAllBatchSizes) {
  const Graph g = test_graph();
  check_golden(2637, 0x9d15a4e4af645e1fULL, [&] {
    return std::make_unique<SingleRwCursor>(
        g,
        SingleRandomWalk::Config{
            .steps = 2500, .burn_in = 137, .laziness = 0.3},
        Rng(9));
  });
}

TEST(StreamBatch, SingleRwPlainAllBatchSizes) {
  const Graph g = test_graph();
  check_golden(2500, 0xab427d6f50767c56ULL, [&] {
    return std::make_unique<SingleRwCursor>(
        g, SingleRandomWalk::Config{.steps = 2500}, Rng(10));
  });
}

TEST(StreamBatch, MultipleRwAllBatchSizes) {
  const Graph g = test_graph();
  check_golden(1116, 0xfb960784f78a2aefULL, [&] {
    return std::make_unique<MultipleRwCursor>(
        g,
        MultipleRandomWalks::Config{.num_walkers = 9,
                                    .steps_per_walker = 123},
        Rng(11));
  });
}

TEST(StreamBatch, RwjAllBatchSizes) {
  const Graph g = test_graph();
  check_golden(1325, 0x4727440e8f0376e8ULL, [&] {
    return std::make_unique<RwjCursor>(
        g,
        RandomWalkWithJumps::Config{
            .budget = 2000.0,
            .jump_probability = 0.2,
            .cost = {.jump_cost = 2.0, .hit_ratio = 0.5}},
        Rng(12));
  });
}

TEST(StreamBatch, MetropolisAllBatchSizes) {
  const Graph g = test_graph();
  check_golden(3001, 0x99f58129c172d844ULL, [&] {
    return std::make_unique<MetropolisCursor>(
        g, MetropolisHastingsWalk::Config{.steps = 3000}, Rng(13));
  });
}

// ------------------------------------------- above the hop table threshold

/// A BA graph whose walk footprint (offsets plus neighbour ids, ~3.2 MB)
/// is above GraphStorage::kHopTableMinCsrBytes, so its walks step through
/// the graph-wide hop table rather than the CSR offsets.
const Graph& large_graph() {
  static const Graph g = [] {
    Rng rng(43);
    return barabasi_albert(100000, 3, rng);
  }();
  return g;
}

/// check_golden on large_graph() at K in {1, 4096}. The digests were
/// recorded before the hop table existed, from cursors that read every
/// hop's row and degree from the CSR offsets.
template <typename MakeCursor>
void check_large_golden(std::size_t events, std::uint64_t digest,
                        MakeCursor make_cursor) {
  for (const std::size_t k : {std::size_t{1}, std::size_t{4096}}) {
    auto cursor = make_cursor(large_graph());
    const std::vector<EventRec> got = collect_batched(*cursor, k);
    EXPECT_EQ(got.size(), events) << "K=" << k;
    EXPECT_EQ(digest_of(got, *cursor), digest) << "K=" << k;
  }
}

TEST(StreamBatch, LargeGraphFrontierWeightedTree) {
  check_large_golden(30000, 0xc0c22a028ae52f40ULL, [](const Graph& g) {
    return std::make_unique<FrontierCursor>(
        g, FrontierSampler::Config{.dimension = 100, .steps = 30000},
        Rng(61));
  });
}

TEST(StreamBatch, LargeGraphFrontierLinearScan) {
  check_large_golden(20000, 0x8465bd19e2dfc892ULL, [](const Graph& g) {
    return std::make_unique<FrontierCursor>(
        g,
        FrontierSampler::Config{
            .dimension = 12, .steps = 20000,
            .selection = FrontierSampler::Selection::kLinearScan},
        Rng(62));
  });
}

TEST(StreamBatch, LargeGraphSingleRwWithBurnInAndLaziness) {
  check_large_golden(20500, 0x8db8770905b4e45aULL, [](const Graph& g) {
    return std::make_unique<SingleRwCursor>(
        g,
        SingleRandomWalk::Config{
            .steps = 20000, .burn_in = 500, .laziness = 0.3},
        Rng(63));
  });
}

TEST(StreamBatch, LargeGraphSingleRwPlain) {
  check_large_golden(30000, 0xdf66d37d6a2f05b1ULL, [](const Graph& g) {
    return std::make_unique<SingleRwCursor>(
        g, SingleRandomWalk::Config{.steps = 30000}, Rng(64));
  });
}

TEST(StreamBatch, LargeGraphMultipleRw) {
  check_large_golden(20020, 0x0bcf5e8d1d6c6ea9ULL, [](const Graph& g) {
    return std::make_unique<MultipleRwCursor>(
        g,
        MultipleRandomWalks::Config{.num_walkers = 20,
                                    .steps_per_walker = 1000},
        Rng(65));
  });
}

TEST(StreamBatch, LargeGraphRwj) {
  check_large_golden(15198, 0x0a8c051b2cafd41dULL, [](const Graph& g) {
    return std::make_unique<RwjCursor>(
        g,
        RandomWalkWithJumps::Config{
            .budget = 20000.0,
            .jump_probability = 0.1,
            .cost = {.jump_cost = 2.0, .hit_ratio = 0.5}},
        Rng(66));
  });
}

TEST(StreamBatch, LargeGraphMetropolis) {
  check_large_golden(20001, 0x4de2429437e11e3bULL, [](const Graph& g) {
    return std::make_unique<MetropolisCursor>(
        g, MetropolisHastingsWalk::Config{.steps = 20000}, Rng(67));
  });
}

// ------------------------------------------------------------------ sinks

/// Serializes every sink; the byte string is the complete numeric state.
std::string sink_state(const SinkSet& sinks) {
  std::ostringstream os;
  for (const auto& sink : sinks) sink->save_state(os);
  return os.str();
}

SinkSet make_sinks(const Graph& g) {
  SinkSet sinks;
  sinks.push_back(
      std::make_unique<DegreeDistributionSink>(g, DegreeKind::kSymmetric));
  sinks.push_back(std::make_unique<DegreeDistributionSink>(g, DegreeKind::kIn));
  sinks.push_back(std::make_unique<VertexDensitySink>(
      g, [](VertexId v) { return v % 3 == 0; }));
  sinks.push_back(std::make_unique<EdgeDensitySink>(
      [](const Edge&) { return true; },
      [](const Edge& e) { return e.u < e.v; }));
  sinks.push_back(std::make_unique<AssortativitySink>(g));
  sinks.push_back(std::make_unique<GraphMomentsSink>(g));
  sinks.push_back(std::make_unique<UniformDegreeSink>(g));
  sinks.push_back(std::make_unique<TriangleSink>(g));
  sinks.push_back(std::make_unique<ClusteringSink>(g));
  sinks.push_back(std::make_unique<MotifSink>(g));
  return sinks;
}

/// Every sink's serialized state must not depend on the block size, on
/// blocks containing edge, vertex, mixed and empty rows (the MH + RWJ
/// cursors produce all four).
TEST(StreamBatch, SinkStateIndependentOfBlockSize) {
  const Graph g = test_graph();
  const auto drive = [&](std::size_t k, auto make_cursor) {
    SinkSet sinks = make_sinks(g);
    auto owner = make_cursor();
    SamplerCursor& cursor = *owner;
    StreamEventBlock block(k);
    while (cursor.next_batch(block) > 0) {
      for (const auto& sink : sinks) sink->ingest_block(block);
    }
    return sink_state(sinks);
  };
  const auto mh = [&] {
    return std::make_unique<MetropolisCursor>(
        g, MetropolisHastingsWalk::Config{.steps = 4000}, Rng(21));
  };
  const auto rwj = [&] {
    return std::make_unique<RwjCursor>(
        g,
        RandomWalkWithJumps::Config{.budget = 3000.0,
                                    .jump_probability = 0.15},
        Rng(22));
  };
  const auto fs = [&] {
    return std::make_unique<FrontierCursor>(
        g, FrontierSampler::Config{.dimension = 16, .steps = 4000}, Rng(23));
  };
  const std::string mh_state = drive(1, mh);
  const std::string rwj_state = drive(1, rwj);
  const std::string fs_state = drive(1, fs);
  // K=7 is shorter than the prefetch pipelines' 2D lookahead, so every
  // block runs only their prologue and tail.
  for (const std::size_t k : {7u, 64u, 4096u}) {
    EXPECT_EQ(drive(k, mh), mh_state) << "K=" << k;
    EXPECT_EQ(drive(k, rwj), rwj_state) << "K=" << k;
    EXPECT_EQ(drive(k, fs), fs_state) << "K=" << k;
  }
}

/// CRC-64 of the default six-sink roster's save_state after `cursor` is
/// drained through it in blocks of 4096.
std::uint64_t roster_digest(const Graph& g, SamplerCursor& cursor) {
  const SinkSet sinks = CrawlSpec{}.make_sinks(g);
  StreamEventBlock block(4096);
  while (cursor.next_batch(block) > 0) {
    for (const auto& sink : sinks) sink->ingest_block(block);
  }
  const std::string bytes = sink_state(sinks);
  return crc64(bytes.data(), bytes.size());
}

/// The roster's folded state matches digests recorded before the folds
/// were last rewritten. Every other sink test compares two paths of one
/// build, so a fold change that is consistent across those paths passes
/// them; these pin the values themselves.
TEST(StreamBatch, RosterStateMatchesGoldenDigests) {
  const Graph g = test_graph();
  ASSERT_GT(exact_triangle_count(g), 0u);
  FrontierCursor fs(g, FrontierSampler::Config{.dimension = 16, .steps = 6000},
                    Rng(51));
  EXPECT_EQ(roster_digest(g, fs), 0x40dcb32c522a9d51ULL);
  SingleRwCursor srw(g, SingleRandomWalk::Config{.steps = 6000}, Rng(52));
  EXPECT_EQ(roster_digest(g, srw), 0x4ca01383c90312b6ULL);
  MetropolisCursor mh(g, MetropolisHastingsWalk::Config{.steps = 6000},
                      Rng(53));
  EXPECT_EQ(roster_digest(g, mh), 0xe3dae3f879225ef9ULL);
}

// ------------------------------------------------- checkpoint mid-block

/// Pausing at an event count that is not a multiple of the engine's block
/// capacity (i.e. the last refill was truncated mid-block) must resume
/// into the same final state as an uninterrupted K=1 engine.
template <typename MakeCursor>
void check_midblock_roundtrip(const Graph& g, MakeCursor make_cursor,
                              std::uint64_t pause_after) {
  // Reference: serial engine (block capacity 1 — the pre-batching path).
  StreamEngine reference(make_cursor(), make_sinks(g), 1);
  reference.run_to_completion();

  // Batched engine, paused mid-block and checkpointed.
  StreamEngine first(make_cursor(), make_sinks(g), 64);
  ASSERT_EQ(first.pump(pause_after), pause_after);
  std::stringstream snapshot;
  first.save_checkpoint(snapshot);

  // Fresh engine, restored, driven to completion.
  StreamEngine resumed(make_cursor(), make_sinks(g), 64);
  resumed.load_checkpoint(snapshot);
  EXPECT_EQ(resumed.events(), pause_after);
  resumed.run_to_completion();

  EXPECT_EQ(resumed.events(), reference.events());
  EXPECT_EQ(resumed.cursor().cost(), reference.cursor().cost());
  EXPECT_TRUE(resumed.cursor().rng() == reference.cursor().rng());
  std::ostringstream a;
  std::ostringstream b;
  for (const auto& sink : resumed.sinks()) sink->save_state(a);
  for (const auto& sink : reference.sinks()) sink->save_state(b);
  EXPECT_EQ(a.str(), b.str());
}

TEST(StreamBatch, CheckpointMidBlockAllCursors) {
  const Graph g = test_graph();
  check_midblock_roundtrip(
      g,
      [&] {
        return std::make_unique<FrontierCursor>(
            g, FrontierSampler::Config{.dimension = 8, .steps = 2000},
            Rng(31));
      },
      777);  // 777 = 12 full 64-blocks + 9: pause lands mid-block
  check_midblock_roundtrip(
      g,
      [&] {
        return std::make_unique<SingleRwCursor>(
            g,
            SingleRandomWalk::Config{
                .steps = 2000, .burn_in = 100, .laziness = 0.2},
            Rng(32));
      },
      333);
  check_midblock_roundtrip(
      g,
      [&] {
        return std::make_unique<MultipleRwCursor>(
            g,
            MultipleRandomWalks::Config{.num_walkers = 7,
                                        .steps_per_walker = 200},
            Rng(33));
      },
      555);
  check_midblock_roundtrip(
      g,
      [&] {
        return std::make_unique<RwjCursor>(
            g,
            RandomWalkWithJumps::Config{.budget = 1500.0,
                                        .jump_probability = 0.25},
            Rng(34));
      },
      421);
  check_midblock_roundtrip(
      g,
      [&] {
        return std::make_unique<MetropolisCursor>(
            g, MetropolisHastingsWalk::Config{.steps = 2000}, Rng(35));
      },
      999);
}

// ------------------------------------------------------- codegree column

/// Checks codegree(g) against shared_neighbors on every row of the
/// current fill: f(u, v) on edge rows, 0 on vertex-only and empty rows.
void expect_codegree_column(const Graph& g, const StreamEventBlock& block) {
  const std::span<const std::uint32_t> f = block.codegree(g);
  ASSERT_EQ(f.size(), block.size());
  for (std::size_t i = 0; i < block.size(); ++i) {
    if (block.flags()[i] & StreamEventBlock::kHasEdge) {
      EXPECT_EQ(f[i], shared_neighbors(g, block.u()[i], block.v()[i]))
          << "edge row " << i;
    } else {
      EXPECT_EQ(f[i], 0u) << "non-edge row " << i;
    }
  }
}

struct ColumnTally {
  std::uint64_t codegree_sum = 0;
  std::size_t non_edge_rows = 0;
};

/// Drains `cursor` in blocks of capacity k, checking the column of every
/// fill, and tallies what the checks covered.
ColumnTally drain_checking_codegree(const Graph& g, SamplerCursor& cursor,
                                    std::size_t k) {
  ColumnTally tally;
  StreamEventBlock block(k);
  while (cursor.next_batch(block) > 0) {
    expect_codegree_column(g, block);
    for (const std::uint32_t f : block.codegree(g)) tally.codegree_sum += f;
    for (const std::uint8_t flags : block.flags()) {
      if (!(flags & StreamEventBlock::kHasEdge)) ++tally.non_edge_rows;
    }
  }
  return tally;
}

TEST(StreamBatch, CodegreeColumnMatchesSharedNeighbors) {
  const Graph g = test_graph();
  ASSERT_GT(exact_triangle_count(g), 0u);
  for (const std::size_t k : kBatchSizes) {
    FrontierCursor fs(g, FrontierSampler::Config{.dimension = 8, .steps = 3000},
                      Rng(31));
    EXPECT_GT(drain_checking_codegree(g, fs, k).codegree_sum, 0u)
        << "K=" << k;
    // MH emits vertex-only rows (rejections); SRW burn-in emits empty
    // rows. Both must read 0 in the column.
    MetropolisCursor mh(g, MetropolisHastingsWalk::Config{.steps = 2000},
                        Rng(32));
    EXPECT_GT(drain_checking_codegree(g, mh, k).non_edge_rows, 0u)
        << "K=" << k;
    SingleRwCursor srw(
        g,
        SingleRandomWalk::Config{
            .steps = 500, .burn_in = 300, .laziness = 0.3},
        Rng(33));
    EXPECT_GT(drain_checking_codegree(g, srw, k).non_edge_rows, 0u)
        << "K=" << k;
  }
}

TEST(StreamBatch, CodegreeColumnFollowsTheFill) {
  const Graph g = test_graph();
  FrontierCursor fs(g, FrontierSampler::Config{.dimension = 8, .steps = 3000},
                    Rng(34));
  SamplerCursor& cursor = fs;
  StreamEventBlock block(64);
  ASSERT_EQ(cursor.next_batch(block), 64u);
  expect_codegree_column(g, block);
  // A refill of the same size must not return the previous fill's
  // values: clear() drops the memo.
  ASSERT_EQ(cursor.next_batch(block), 64u);
  expect_codegree_column(g, block);
  // Rows appended after a call are covered by the next call.
  const auto push = [&](const Edge& e) {
    block.push_edge(e.u, e.v, g.degree(e.v), g.find_slot(e.u, e.v));
  };
  block.clear(g);
  push(g.edge_at(0));
  expect_codegree_column(g, block);
  push(g.edge_at(g.volume() / 2));
  block.push_vertex(3);
  expect_codegree_column(g, block);
  // A non-edge row carries kNoSlot: its value is computed and never
  // stored, so a later read of g's memo sees nothing there.
  Edge far{0, static_cast<VertexId>(g.num_vertices() - 1)};
  while (g.has_edge(far.u, far.v)) --far.v;
  push(far);
  EXPECT_EQ(block.slot().back(), Graph::kNoSlot);
  expect_codegree_column(g, block);
  EXPECT_EQ(g.codegree_memo().load(Graph::kNoSlot), std::nullopt);
  // Another graph gets its own values, not the memo of the first: its
  // storage differs, so the slots do not index it.
  Rng rng(35);
  const Graph other = barabasi_albert(g.num_vertices(), 5, rng);
  EXPECT_FALSE(block.slots_index(other));
  expect_codegree_column(other, block);
  expect_codegree_column(g, block);
}

/// The graph-wide memo holds f at the slot of every sampled edge (all with
/// f <= kMaxCodegree here) and nothing else; copies of the graph share it, so a block
/// filled from one copy reads the memo another copy's reader wrote.
TEST(StreamBatch, CodegreeMemoHoldsSampledSlots) {
  const Graph g = test_graph();
  const Graph copy = g;
  EXPECT_EQ(g.codegree_memo().size(), g.volume());
  EXPECT_EQ(&copy.codegree_memo(), &g.codegree_memo());
  std::vector<bool> sampled(g.volume(), false);
  for (const std::size_t k : kBatchSizes) {
    FrontierCursor fs(g, FrontierSampler::Config{.dimension = 8, .steps = 2000},
                      Rng(36));
    SamplerCursor& cursor = fs;
    StreamEventBlock block(k);
    while (cursor.next_batch(block) > 0) {
      EXPECT_TRUE(block.slots_index(copy));
      // Read through the copy: the memo is the storage's, not the Graph's.
      expect_codegree_column(copy, block);
      for (std::size_t i = 0; i < block.size(); ++i) {
        sampled[block.slot()[i]] = true;
      }
    }
  }
  const CodegreeMemo& memo = g.codegree_memo();
  std::size_t hits = 0;
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    for (EdgeIndex s = g.offsets()[u]; s < g.offsets()[u + 1]; ++s) {
      const std::uint32_t f = shared_neighbors(g, u, g.target(s));
      if (sampled[s]) {
        ASSERT_LE(f, CodegreeMemo::kMaxCodegree);
        EXPECT_EQ(memo.load(s), f) << "slot " << s;
        ++hits;
      } else {
        EXPECT_EQ(memo.load(s), std::nullopt) << "unsampled slot " << s;
      }
    }
  }
  EXPECT_GT(hits, 0u);
}

/// In K_300 every codegree is 298, past CodegreeMemo::kMaxCodegree: each
/// value is computed on every fill and the memo stays empty.
TEST(StreamBatch, CodegreeAbove254IsNeverMemoised) {
  const Graph g = complete_graph(300);
  for (const std::size_t k : kBatchSizes) {
    FrontierCursor fs(g, FrontierSampler::Config{.dimension = 4, .steps = 3000},
                      Rng(37));
    SamplerCursor& cursor = fs;
    StreamEventBlock block(k);
    while (cursor.next_batch(block) > 0) {
      for (const std::uint32_t f : block.codegree(g)) EXPECT_EQ(f, 298u);
    }
  }
  for (EdgeIndex s = 0; s < g.volume(); ++s) {
    EXPECT_EQ(g.codegree_memo().load(s), std::nullopt) << "slot " << s;
  }
}

// --------------------------------------------------------------- drains

/// drain_cursor_into through arenas of every block capacity produces the
/// same SampleRecord, and reuses the arena's storage across runs.
TEST(StreamBatch, DrainArenaReuseAndCapacityIndependence) {
  const Graph g = test_graph();
  const FrontierSampler fs(g, {.dimension = 8, .steps = 1000});
  Rng reference_rng(41);
  const SampleRecord expected = fs.run(reference_rng);
  for (const std::size_t k : kBatchSizes) {
    SampleArena arena{SampleRecord{}, StreamEventBlock(k)};
    Rng rng(41);
    const SampleRecord& rec = fs.run_into(arena, rng);
    EXPECT_EQ(rec.edges, expected.edges) << "K=" << k;
    EXPECT_EQ(rec.starts, expected.starts) << "K=" << k;
    EXPECT_EQ(rec.cost, expected.cost) << "K=" << k;
    EXPECT_TRUE(rng == reference_rng) << "K=" << k;

    // Second run through the same arena: same result, no capacity growth.
    const Edge* data_before = rec.edges.data();
    const std::size_t cap_before = rec.edges.capacity();
    Rng rng2(41);
    const SampleRecord& rec2 = fs.run_into(arena, rng2);
    EXPECT_EQ(rec2.edges, expected.edges);
    EXPECT_EQ(rec2.edges.capacity(), cap_before);
    EXPECT_EQ(rec2.edges.data(), data_before);
  }
}

TEST(StreamBatch, BlockCapacityValidation) {
  EXPECT_THROW(StreamEventBlock(0), std::invalid_argument);
  StreamEventBlock block(4);
  EXPECT_EQ(block.capacity(), 4u);
  EXPECT_TRUE(block.empty());
  block.push_edge(1, 2, 3, 4);
  EXPECT_EQ(block.size(), 1u);
  EXPECT_EQ(block.room(), 3u);
  block.clear();
  EXPECT_TRUE(block.empty());
}

}  // namespace
}  // namespace frontier
