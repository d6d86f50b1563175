// Checkpoint/resume: pausing a streaming crawl mid-run and resuming it in
// a freshly constructed engine must land in a bitwise-identical final
// state (same remaining event stream, same sink sums, same RNG position)
// as the uninterrupted run.
#include "stream/checkpoint.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "stream/engine.hpp"
#include "stream/motif_sinks.hpp"
#include "stream/sampler_cursors.hpp"
#include "stream/serialize.hpp"
#include "stream/sinks.hpp"

namespace frontier {
namespace {

Graph test_graph() {
  Rng rng(77);
  return barabasi_albert(150, 3, rng);
}

SinkSet make_sinks(const Graph& g) {
  SinkSet sinks;
  sinks.push_back(
      std::make_unique<DegreeDistributionSink>(g, DegreeKind::kSymmetric));
  sinks.push_back(std::make_unique<AssortativitySink>(g));
  sinks.push_back(std::make_unique<GraphMomentsSink>(g));
  sinks.push_back(std::make_unique<UniformDegreeSink>(g));
  sinks.push_back(std::make_unique<TriangleSink>(g));
  sinks.push_back(std::make_unique<ClusteringSink>(g));
  sinks.push_back(std::make_unique<MotifSink>(g));
  return sinks;
}

struct FinalState {
  std::vector<double> distribution;
  double assortativity = 0.0;
  double average_degree = 0.0;
  double uniform_degree = 0.0;
  double transitivity = 0.0;
  double clustering = 0.0;
  MotifEstimate motifs{};
  double cost = 0.0;
  std::uint64_t events = 0;
  std::array<std::uint64_t, 4> rng_state{};
};

FinalState capture(const StreamEngine& engine) {
  FinalState s;
  const auto sinks = engine.sinks();
  s.distribution =
      dynamic_cast<const DegreeDistributionSink&>(*sinks[0]).distribution();
  s.assortativity = dynamic_cast<const AssortativitySink&>(*sinks[1]).value();
  s.average_degree =
      dynamic_cast<const GraphMomentsSink&>(*sinks[2]).average_degree();
  s.uniform_degree = dynamic_cast<const UniformDegreeSink&>(*sinks[3]).value();
  s.transitivity = dynamic_cast<const TriangleSink&>(*sinks[4]).transitivity();
  s.clustering =
      dynamic_cast<const ClusteringSink&>(*sinks[5]).global_clustering();
  s.motifs = dynamic_cast<const MotifSink&>(*sinks[6]).estimate(1000.0);
  s.cost = engine.cursor().cost();
  s.events = engine.events();
  s.rng_state = engine.cursor().rng().state();
  return s;
}

void expect_identical(const FinalState& a, const FinalState& b) {
  EXPECT_EQ(a.distribution, b.distribution);
  EXPECT_EQ(a.assortativity, b.assortativity);
  EXPECT_EQ(a.average_degree, b.average_degree);
  EXPECT_EQ(a.uniform_degree, b.uniform_degree);
  EXPECT_EQ(a.transitivity, b.transitivity);
  EXPECT_EQ(a.clustering, b.clustering);
  EXPECT_EQ(a.motifs.triangle, b.motifs.triangle);
  EXPECT_EQ(a.motifs.wedge, b.motifs.wedge);
  EXPECT_EQ(a.motifs.cycle4, b.motifs.cycle4);
  EXPECT_EQ(a.motifs.clique4, b.motifs.clique4);
  EXPECT_EQ(a.cost, b.cost);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.rng_state, b.rng_state);
}

// Runs the pause/resume round trip for one cursor type: `make_cursor` must
// return a fresh cursor for the given seed.
template <typename MakeCursor>
void check_roundtrip(const Graph& g, MakeCursor make_cursor,
                     std::uint64_t pause_after) {
  // Reference: uninterrupted run.
  StreamEngine reference(make_cursor(1), make_sinks(g));
  reference.run_to_completion();
  const FinalState expected = capture(reference);

  // Interrupted: pump part way, checkpoint, keep running to completion.
  StreamEngine first(make_cursor(1), make_sinks(g));
  ASSERT_EQ(first.pump(pause_after), pause_after);
  std::stringstream ckpt;
  first.save_checkpoint(ckpt);
  first.run_to_completion();
  expect_identical(expected, capture(first));

  // Resumed: a fresh engine (different seed, so the restore must overwrite
  // every bit of dynamic state) loads the checkpoint and finishes.
  StreamEngine resumed(make_cursor(999), make_sinks(g));
  resumed.load_checkpoint(ckpt);
  EXPECT_EQ(resumed.events(), pause_after);
  resumed.run_to_completion();
  expect_identical(expected, capture(resumed));
}

TEST(StreamCheckpoint, FrontierRoundtrip) {
  const Graph g = test_graph();
  const FrontierCursor::Config cfg{.dimension = 6, .steps = 5000};
  check_roundtrip(
      g,
      [&](std::uint64_t seed) {
        return std::make_unique<FrontierCursor>(g, cfg, Rng(seed));
      },
      1234);
}

TEST(StreamCheckpoint, FrontierLinearScanRoundtrip) {
  const Graph g = test_graph();
  const FrontierCursor::Config cfg{
      .dimension = 4, .steps = 3000,
      .selection = FrontierCursor::Selection::kLinearScan};
  check_roundtrip(
      g,
      [&](std::uint64_t seed) {
        return std::make_unique<FrontierCursor>(g, cfg, Rng(seed));
      },
      777);
}

TEST(StreamCheckpoint, SingleRwRoundtrip) {
  const Graph g = test_graph();
  const SingleRwCursor::Config cfg{
      .steps = 4000, .burn_in = 300, .laziness = 0.2};
  check_roundtrip(
      g,
      [&](std::uint64_t seed) {
        return std::make_unique<SingleRwCursor>(g, cfg, Rng(seed));
      },
      150);  // pause inside the burn-in phase
}

TEST(StreamCheckpoint, MultipleRwRoundtrip) {
  const Graph g = test_graph();
  const MultipleRwCursor::Config cfg{.num_walkers = 5,
                                     .steps_per_walker = 800};
  check_roundtrip(
      g,
      [&](std::uint64_t seed) {
        return std::make_unique<MultipleRwCursor>(g, cfg, Rng(seed));
      },
      2100);  // pause mid-walker
}

TEST(StreamCheckpoint, RandomWalkWithJumpsRoundtrip) {
  const Graph g = test_graph();
  const RwjCursor::Config cfg{
      .budget = 4000.0,
      .jump_probability = 0.1,
      .cost = {.jump_cost = 1.5, .hit_ratio = 0.8}};
  check_roundtrip(
      g,
      [&](std::uint64_t seed) {
        return std::make_unique<RwjCursor>(g, cfg, Rng(seed));
      },
      900);
}

TEST(StreamCheckpoint, MetropolisRoundtrip) {
  const Graph g = test_graph();
  const MetropolisCursor::Config cfg{.steps = 4000};
  check_roundtrip(
      g,
      [&](std::uint64_t seed) {
        return std::make_unique<MetropolisCursor>(g, cfg, Rng(seed));
      },
      1);  // pause right after the pending start-vertex emission
}

TEST(StreamCheckpoint, FileRoundtrip) {
  const Graph g = test_graph();
  const FrontierCursor::Config cfg{.dimension = 3, .steps = 1000};
  StreamEngine first(std::make_unique<FrontierCursor>(g, cfg, Rng(3)),
                     make_sinks(g));
  first.pump(400);
  const std::string path = ::testing::TempDir() + "stream_ckpt.bin";
  first.save_checkpoint_file(path);
  first.run_to_completion();

  StreamEngine resumed(std::make_unique<FrontierCursor>(g, cfg, Rng(4)),
                       make_sinks(g));
  resumed.load_checkpoint_file(path);
  resumed.run_to_completion();
  expect_identical(capture(first), capture(resumed));
  std::remove(path.c_str());
}

TEST(StreamCheckpoint, RejectsWrongCursorKind) {
  const Graph g = test_graph();
  StreamEngine fs(std::make_unique<FrontierCursor>(
                      g, FrontierCursor::Config{.dimension = 2, .steps = 100},
                      Rng(5)),
                  make_sinks(g));
  fs.pump(10);
  std::stringstream ckpt;
  fs.save_checkpoint(ckpt);

  StreamEngine mh(std::make_unique<MetropolisCursor>(
                      g, MetropolisCursor::Config{.steps = 100}, Rng(5)),
                  make_sinks(g));
  EXPECT_THROW(mh.load_checkpoint(ckpt), IoError);
}

TEST(StreamCheckpoint, RejectsDifferentGraph) {
  const Graph g = test_graph();
  const FrontierCursor::Config cfg{.dimension = 4, .steps = 100};
  StreamEngine a(std::make_unique<FrontierCursor>(g, cfg, Rng(6)),
                 make_sinks(g));
  a.pump(10);
  std::stringstream ckpt;
  a.save_checkpoint(ckpt);

  Rng other_rng(123);
  const Graph other = barabasi_albert(80, 2, other_rng);
  StreamEngine b(std::make_unique<FrontierCursor>(other, cfg, Rng(6)),
                 make_sinks(other));
  EXPECT_THROW(b.load_checkpoint(ckpt), IoError);
}

TEST(StreamCheckpoint, RejectsConfigMismatch) {
  const Graph g = test_graph();
  const FrontierCursor::Config cfg{.dimension = 4, .steps = 100};
  StreamEngine a(std::make_unique<FrontierCursor>(g, cfg, Rng(6)),
                 make_sinks(g));
  a.pump(10);
  std::stringstream ckpt;
  a.save_checkpoint(ckpt);

  const FrontierCursor::Config other{.dimension = 8, .steps = 100};
  StreamEngine b(std::make_unique<FrontierCursor>(g, other, Rng(6)),
                 make_sinks(g));
  EXPECT_THROW(b.load_checkpoint(ckpt), IoError);
}

// Splices crafted counters into a real MultipleRwCursor save_state blob,
// keeping its configuration prefix (num_walkers, steps_per_walker,
// jump_cost, start mode: 25 bytes) and its trailing 32-byte RNG state.
std::string patch_multiple_rw(const std::string& blob,
                              const std::vector<VertexId>& starts, VertexId u,
                              std::uint64_t walker, std::uint64_t step) {
  std::ostringstream os;
  os << blob.substr(0, 25);
  streamio::write_vector(os, starts);
  streamio::write_pod(os, u);
  streamio::write_pod(os, walker);
  streamio::write_pod(os, step);
  os << blob.substr(blob.size() - 32);
  return os.str();
}

TEST(StreamCheckpoint, RejectsInconsistentMultipleRwCounters) {
  const Graph g = test_graph();
  const MultipleRwCursor::Config cfg{.num_walkers = 4,
                                     .steps_per_walker = 10};
  // 15 queries: walker 0's start and 10 steps, then walker 1's start and
  // 3 steps, so the real counters are walker_ = 1, step_ = 3.
  MultipleRwCursor paused(g, cfg, Rng(9));
  StreamEventBlock block(15);
  ASSERT_EQ(paused.next_batch(block, 15), 15u);
  std::ostringstream os;
  paused.save_state(os);
  const std::string blob = os.str();
  VertexId u = 0;
  std::memcpy(&u, blob.data() + blob.size() - 52, sizeof(u));
  ASSERT_EQ(patch_multiple_rw(blob, paused.starts(), u, 1, 3), blob);

  struct Case {
    const char* what;
    std::vector<VertexId> starts;
    VertexId u;
    std::uint64_t walker;
    std::uint64_t step;
  };
  const Case cases[] = {
      {"walkers finished without starts", {}, 1000000, 2, 0},
      {"step past steps_per_walker", {5}, 5, 0, 11},
      {"step equal to steps_per_walker", {5}, 5, 0, 10},
      {"two walkers placed at once", {5, 6, 7}, 5, 0, 0},
      {"finished with missing starts", {5}, 5, 4, 0},
      {"unplaced walker with steps", {5}, 5, 1, 3},
  };
  for (const Case& c : cases) {
    std::istringstream is(
        patch_multiple_rw(blob, c.starts, c.u, c.walker, c.step));
    MultipleRwCursor fresh(g, cfg, Rng(1));
    EXPECT_THROW(fresh.load_state(is), IoError) << c.what;
  }
}

// Replaces the starts vector of a real save_state blob: `count` is the
// blob's own start count and `tail` the bytes that follow the vector.
std::string patch_starts(const std::string& blob, std::size_t count,
                         std::size_t tail,
                         const std::vector<VertexId>& starts) {
  const std::size_t end = blob.size() - tail;
  const std::size_t begin = end - 8 - count * sizeof(VertexId);
  std::ostringstream os;
  os << blob.substr(0, begin);
  streamio::write_vector(os, starts);
  os << blob.substr(end);
  return os.str();
}

// A restored cursor's starts must be as many as its process places (m
// for FS, one for SRW and MH, at most one for RWJ) and each a vertex of
// the graph.
TEST(StreamCheckpoint, RejectsCorruptStarts) {
  const Graph g = test_graph();
  const auto n = static_cast<VertexId>(g.num_vertices());
  // Saves `cursor` after 5 steps and checks that every crafted starts
  // vector is rejected by a fresh cursor, and the real one accepted.
  const auto check = [&](const char* label, SamplerCursor& paused,
                         auto make_fresh,
                         std::size_t tail,
                         const std::vector<std::vector<VertexId>>& bad) {
    StreamEventBlock block(5);
    ASSERT_EQ(paused.next_batch(block), 5u);
    std::ostringstream os;
    paused.save_state(os);
    const std::string blob = os.str();
    const std::vector<VertexId> real = paused.starts();
    ASSERT_EQ(patch_starts(blob, real.size(), tail, real), blob);
    for (const std::vector<VertexId>& starts : bad) {
      std::istringstream is(patch_starts(blob, real.size(), tail, starts));
      auto fresh = make_fresh();
      EXPECT_THROW(fresh->load_state(is), IoError)
          << label << " accepted " << starts.size() << " starts";
    }
    std::istringstream is(blob);
    auto fresh = make_fresh();
    EXPECT_NO_THROW(fresh->load_state(is)) << label;
  };

  const FrontierCursor::Config fs_cfg{.dimension = 3, .steps = 100};
  FrontierCursor fs(g, fs_cfg, Rng(1));
  // FS: scan_total and the RNG state follow the starts.
  check(
      "fs", fs,
      [&] { return std::make_unique<FrontierCursor>(g, fs_cfg, Rng(2)); },
      8 + 32,
      {{}, {1, 2}, {1, 2, 3, 4}, {1, 2, n}, {0xffffffffu, 1, 2}});

  const SingleRwCursor::Config srw_cfg{.steps = 100};
  SingleRwCursor srw(g, srw_cfg, Rng(3));
  check(
      "srw", srw,
      [&] { return std::make_unique<SingleRwCursor>(g, srw_cfg, Rng(4)); },
      32, {{}, {1, 2}, {n}});

  const MetropolisCursor::Config mh_cfg{.steps = 100};
  MetropolisCursor mh(g, mh_cfg, Rng(5));
  check(
      "mh", mh,
      [&] { return std::make_unique<MetropolisCursor>(g, mh_cfg, Rng(6)); },
      32, {{}, {1, 2}, {n}});

  // RWJ: v, the pending vertex, the cost, done and the RNG state follow.
  const RwjCursor::Config rwj_cfg{.budget = 100.0,
                                  .jump_probability = 0.2};
  RwjCursor rwj(g, rwj_cfg, Rng(7));
  check(
      "rwj", rwj,
      [&] { return std::make_unique<RwjCursor>(g, rwj_cfg, Rng(8)); },
      4 + 5 + 8 + 1 + 32, {{1, 2}, {n}});
}

TEST(StreamCheckpoint, RejectsCorruptRwjCost) {
  const Graph g = test_graph();
  const RwjCursor::Config cfg{.budget = 100.0,
                              .jump_probability = 0.1};
  RwjCursor cursor(g, cfg, Rng(9));
  StreamEventBlock block(20);
  (void)cursor.next_batch(block, 20);
  ASSERT_FALSE(cursor.done());
  std::ostringstream os;
  cursor.save_state(os);
  const std::string blob = os.str();
  // cost_ sits before the done flag (1 byte) and the RNG state (32 bytes).
  const std::size_t cost_at = blob.size() - 41;
  for (const double cost : {std::numeric_limits<double>::quiet_NaN(),
                            std::numeric_limits<double>::infinity(), -1.0,
                            cfg.budget + 1.0}) {
    std::string patched = blob;
    std::memcpy(patched.data() + cost_at, &cost, sizeof(cost));
    std::istringstream is(patched);
    RwjCursor fresh(g, cfg, Rng(1));
    EXPECT_THROW(fresh.load_state(is), IoError) << "cost " << cost;
  }
}

TEST(StreamCheckpoint, RejectsSinkMismatch) {
  const Graph g = test_graph();
  const FrontierCursor::Config cfg{.dimension = 2, .steps = 100};
  StreamEngine a(std::make_unique<FrontierCursor>(g, cfg, Rng(7)),
                 make_sinks(g));
  a.pump(10);
  std::stringstream ckpt;
  a.save_checkpoint(ckpt);

  SinkSet fewer;
  fewer.push_back(std::make_unique<GraphMomentsSink>(g));
  StreamEngine b(std::make_unique<FrontierCursor>(g, cfg, Rng(7)),
                 std::move(fewer));
  EXPECT_THROW(b.load_checkpoint(ckpt), IoError);
}

TEST(StreamCheckpoint, RejectsTruncatedStream) {
  const Graph g = test_graph();
  const FrontierCursor::Config cfg{.dimension = 2, .steps = 100};
  StreamEngine a(std::make_unique<FrontierCursor>(g, cfg, Rng(8)),
                 make_sinks(g));
  a.pump(10);
  std::stringstream ckpt;
  a.save_checkpoint(ckpt);
  const std::string full = ckpt.str();
  std::stringstream truncated(full.substr(0, full.size() / 2));

  StreamEngine b(std::make_unique<FrontierCursor>(g, cfg, Rng(8)),
                 make_sinks(g));
  EXPECT_THROW(b.load_checkpoint(truncated), IoError);
}

}  // namespace
}  // namespace frontier
