// Telemetry must observe, never participate: a crawl with
// CrawlInstrumentation (and a live exporter) attached must produce
// bit-identical sink state, RNG position, and checkpoint bytes to the
// same crawl with telemetry off — for every cursor kind.
#include "obs/crawl_metrics.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <sstream>
#include <string>

#include "graph/generators.hpp"
#include "obs/exporter.hpp"
#include "obs/metrics.hpp"
#include "obs/snapshot.hpp"
#include "stream/engine.hpp"
#include "stream/motif_sinks.hpp"
#include "stream/sampler_cursors.hpp"
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

// Byte-exact serialization of everything downstream of the event stream:
// cursor state, RNG position, and every sink's accumulators.
std::string checkpoint_bytes(const StreamEngine& engine) {
  std::ostringstream out;
  engine.save_checkpoint(out);
  return out.str();
}

// Runs the same crawl twice — bare, and with instrumentation plus a live
// JSONL exporter pulsing after every pump — pausing mid-crawl to compare
// checkpoint bytes, then again at completion.
template <typename MakeCursor>
void check_bit_identical(const Graph& g, MakeCursor make_cursor,
                         std::uint64_t pause_after) {
  StreamEngine bare(make_cursor(), make_sinks(g));
  StreamEngine instrumented(make_cursor(), make_sinks(g));

  MetricsRegistry registry;  // local: isolated from other tests
  CrawlInstrumentation instr(registry, instrumented.cursor(),
                             instrumented.sinks());
  instrumented.set_instrumentation(&instr);
  const std::string jsonl = ::testing::TempDir() + "obs_determinism.jsonl";
  MetricsExporter exporter(registry, jsonl, /*interval_seconds=*/0.0);

  // Pump in deliberately ragged chunks so block boundaries differ from the
  // engine's internal block size.
  const std::uint64_t chunks[] = {1, pause_after, 97,
                                  std::uint64_t{1} << 62};
  std::uint64_t after_pause_bare = 0;
  std::uint64_t after_pause_instr = 0;
  for (const std::uint64_t chunk : chunks) {
    after_pause_bare = bare.pump(chunk);
    after_pause_instr = instrumented.pump(chunk);
    exporter.maybe_export();
    ASSERT_EQ(after_pause_bare, after_pause_instr);
    EXPECT_EQ(checkpoint_bytes(bare), checkpoint_bytes(instrumented));
  }
  ASSERT_TRUE(bare.finished());
  ASSERT_TRUE(instrumented.finished());
  EXPECT_EQ(bare.events(), instrumented.events());
  EXPECT_EQ(bare.cursor().rng().state(), instrumented.cursor().rng().state());
  EXPECT_EQ(checkpoint_bytes(bare), checkpoint_bytes(instrumented));

  // The telemetry side must have seen the whole crawl...
  EXPECT_EQ(instr.events(), instrumented.events());
  EXPECT_GT(instr.unique_vertices(), 0u);
  const MetricsSnapshot snap = registry.snapshot();
  for (const auto& [name, value] : snap.counters) {
    if (name == "stream.events_total") {
      EXPECT_EQ(value, instrumented.events());
    }
  }
  // ...and the exporter must have written one valid line per pump.
  exporter.export_now();
  const auto lines = read_metrics_jsonl(jsonl);
  EXPECT_EQ(lines.size(), 5u);  // one per pump + the final flush
  std::remove(jsonl.c_str());
}

TEST(ObsDeterminism, FrontierCursor) {
  const Graph g = test_graph();
  const FrontierCursor::Config cfg{.dimension = 6, .steps = 5000};
  check_bit_identical(
      g, [&] { return std::make_unique<FrontierCursor>(g, cfg, Rng(11)); },
      1234);
}

TEST(ObsDeterminism, SingleRwCursor) {
  const Graph g = test_graph();
  const SingleRwCursor::Config cfg{
      .steps = 4000, .burn_in = 300, .laziness = 0.2};
  check_bit_identical(
      g, [&] { return std::make_unique<SingleRwCursor>(g, cfg, Rng(12)); },
      150);
}

TEST(ObsDeterminism, MultipleRwCursor) {
  const Graph g = test_graph();
  const MultipleRwCursor::Config cfg{.num_walkers = 5,
                                     .steps_per_walker = 800};
  check_bit_identical(
      g, [&] { return std::make_unique<MultipleRwCursor>(g, cfg, Rng(13)); },
      2100);
}

TEST(ObsDeterminism, RwjCursor) {
  const Graph g = test_graph();
  const RwjCursor::Config cfg{
      .budget = 4000.0,
      .jump_probability = 0.1,
      .cost = {.jump_cost = 1.5, .hit_ratio = 0.8}};
  check_bit_identical(
      g, [&] { return std::make_unique<RwjCursor>(g, cfg, Rng(14)); }, 900);
}

TEST(ObsDeterminism, MetropolisCursor) {
  const Graph g = test_graph();
  const MetropolisCursor::Config cfg{.steps = 4000};
  check_bit_identical(
      g, [&] { return std::make_unique<MetropolisCursor>(g, cfg, Rng(15)); },
      1);
}

// Attaching and detaching instrumentation mid-crawl must also leave the
// event stream untouched — the engine only ever adds observation around
// the identical cursor/sink calls.
TEST(ObsDeterminism, AttachDetachMidCrawl) {
  const Graph g = test_graph();
  const FrontierCursor::Config cfg{.dimension = 4, .steps = 3000};
  const auto cursor = [&] {
    return std::make_unique<FrontierCursor>(g, cfg, Rng(21));
  };

  StreamEngine bare(cursor(), make_sinks(g));
  bare.run_to_completion();

  StreamEngine toggled(cursor(), make_sinks(g));
  MetricsRegistry registry;
  CrawlInstrumentation instr(registry, toggled.cursor(), toggled.sinks());
  toggled.pump(500);                        // off
  toggled.set_instrumentation(&instr);      // on
  toggled.pump(500);
  toggled.set_instrumentation(nullptr);     // off again
  toggled.run_to_completion();
  EXPECT_EQ(checkpoint_bytes(bare), checkpoint_bytes(toggled));
  EXPECT_EQ(instr.events(), 500u);  // saw exactly the instrumented window
}

}  // namespace
}  // namespace frontier
