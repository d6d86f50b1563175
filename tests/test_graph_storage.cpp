// GraphStorage backends: owned-vs-mmap equivalence, v1 -> v2 migration,
// storage sharing across Graph copies, the codegree memo shared by
// concurrent crawls, and the parallel ingestion helpers.
#include "graph/storage.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/parallel.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "stream/spec.hpp"

namespace frontier {
namespace {

/// Full structural equality: counts, degrees, adjacency, and direction
/// flags — stronger than the degree-only check in test_io.
void expect_identical(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  ASSERT_EQ(a.num_directed_edges(), b.num_directed_edges());
  ASSERT_EQ(a.num_symmetric_edges(), b.num_symmetric_edges());
  for (VertexId v = 0; v < a.num_vertices(); ++v) {
    ASSERT_EQ(a.out_degree(v), b.out_degree(v)) << "vertex " << v;
    ASSERT_EQ(a.in_degree(v), b.in_degree(v)) << "vertex " << v;
    const auto an = a.neighbors(v);
    const auto bn = b.neighbors(v);
    ASSERT_TRUE(std::equal(an.begin(), an.end(), bn.begin(), bn.end()))
        << "neighbors of " << v;
    const auto ad = a.directions(v);
    const auto bd = b.directions(v);
    ASSERT_TRUE(std::equal(ad.begin(), ad.end(), bd.begin(), bd.end()))
        << "directions of " << v;
  }
}

Graph make_test_graph(std::uint64_t seed) {
  Rng rng(seed);
  return directed_preferential(400, 3, 0.4, rng);
}

TEST(GraphStorage, OwnedVsMmapEquivalence) {
  const Graph owned = make_test_graph(11);
  EXPECT_FALSE(owned.is_memory_mapped());

  const std::string path = ::testing::TempDir() + "storage_v2.bin";
  write_binary_file(owned, path);
  const Graph mapped = read_binary_file(path);
#if FRONTIER_HAS_MMAP
  EXPECT_TRUE(mapped.is_memory_mapped());
#endif
  expect_identical(owned, mapped);

  // Derived queries must agree too.
  EXPECT_EQ(owned.max_degree(), mapped.max_degree());
  EXPECT_DOUBLE_EQ(owned.average_degree(), mapped.average_degree());
  for (EdgeIndex j = 0; j < std::min<EdgeIndex>(owned.volume(), 64); ++j) {
    EXPECT_EQ(owned.edge_at(j), mapped.edge_at(j)) << "slot " << j;
  }
  std::filesystem::remove(path);
}

TEST(GraphStorage, StreamReadOfV2IsOwnedAndEquivalent) {
  const Graph g = make_test_graph(12);
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  write_binary(g, ss);
  const Graph loaded = read_binary(ss);
  EXPECT_FALSE(loaded.is_memory_mapped());
  expect_identical(g, loaded);
}

TEST(GraphStorage, V1ToV2Migration) {
  const Graph g = make_test_graph(13);
  const std::string v1_path = ::testing::TempDir() + "migrate_v1.bin";
  const std::string v2_path = ::testing::TempDir() + "migrate_v2.bin";

  // Legacy v1 snapshot loads through the rebuild path (never mapped).
  {
    std::ofstream f(v1_path, std::ios::binary);
    write_binary_v1(g, f);
  }
  const Graph from_v1 = read_binary_file(v1_path);
  EXPECT_FALSE(from_v1.is_memory_mapped());
  expect_identical(g, from_v1);

  // Migrating: rewrite as v2, reload zero-copy.
  write_binary_file(from_v1, v2_path);
  const Graph from_v2 = read_binary_file(v2_path);
#if FRONTIER_HAS_MMAP
  EXPECT_TRUE(from_v2.is_memory_mapped());
#endif
  expect_identical(g, from_v2);

  std::filesystem::remove(v1_path);
  std::filesystem::remove(v2_path);
}

TEST(GraphStorage, CopiesShareStorageAndOutliveTheOriginal) {
  const std::string path = ::testing::TempDir() + "storage_share.bin";
  const Graph original = make_test_graph(14);
  write_binary_file(original, path);

  Graph copy;
  {
    const Graph mapped = read_binary_file(path);
    copy = mapped;  // shares the mapping
  }
  // The mapping must stay alive through the copy after `mapped` died.
  expect_identical(original, copy);
  std::filesystem::remove(path);
}

/// A memo entry is unknown until stored. Codegrees past kMaxCodegree are
/// never stored, and slots past the end (kNoSlot among them) are never
/// known and never written, so no slot reaches outside the memo.
TEST(GraphStorage, CodegreeMemoLoadStoreAndBounds) {
  CodegreeMemo memo(10);
  EXPECT_EQ(memo.size(), 10u);
  for (EdgeIndex s = 0; s < 10; ++s) EXPECT_EQ(memo.load(s), std::nullopt);
  memo.store(0, 0);
  memo.store(9, CodegreeMemo::kMaxCodegree);
  memo.store(3, CodegreeMemo::kMaxCodegree + 1);
  memo.store(10, 5);
  memo.store(Graph::kNoSlot, 5);
  EXPECT_EQ(memo.load(0), 0u);
  EXPECT_EQ(memo.load(9), CodegreeMemo::kMaxCodegree);
  EXPECT_EQ(memo.load(3), std::nullopt);
  EXPECT_EQ(memo.load(10), std::nullopt);
  EXPECT_EQ(memo.load(Graph::kNoSlot), std::nullopt);
  const CodegreeMemo moved = std::move(memo);
  EXPECT_EQ(moved.load(9), CodegreeMemo::kMaxCodegree);

  const CodegreeMemo empty;
  empty.store(0, 1);
  EXPECT_EQ(empty.load(0), std::nullopt);

  // A graph's memo has one entry per slot, allocated once per storage.
  const Graph g = make_test_graph(18);
  EXPECT_EQ(g.codegree_memo().size(), g.volume());
  EXPECT_EQ(&g.codegree_memo(), &g.codegree_memo());
  EXPECT_EQ(Graph().codegree_memo().size(), 0u);
}

/// A Graph over its own copy of g's arrays: equal to g, but with a
/// storage, and so a codegree memo, of its own.
Graph deep_copy(const Graph& g) {
  GraphStorage::Arrays a;
  a.offsets.assign(g.offsets().begin(), g.offsets().end());
  a.neighbors.assign(g.neighbor_array().begin(), g.neighbor_array().end());
  a.directions.assign(g.direction_array().begin(), g.direction_array().end());
  a.out_degree.assign(g.out_degree_array().begin(),
                      g.out_degree_array().end());
  a.in_degree.assign(g.in_degree_array().begin(), g.in_degree_array().end());
  a.num_directed_edges = g.num_directed_edges();
  return Graph(GraphStorage::from_arrays(std::move(a)));
}

/// Serialized state of every sink after `spec`'s crawl of g completes.
std::string crawl_state(const Graph& g, const CrawlSpec& spec) {
  const auto engine = spec.normalized().make_engine(g);
  engine->run_to_completion();
  std::ostringstream os;
  for (const auto& sink : engine->sinks()) sink->save_state(os);
  return os.str();
}

/// Four threads crawl one shared Graph at once, so their blocks read and
/// write one codegree memo (and the memo is allocated under the race).
/// Every crawl's sink state equals a single-thread crawl's, both on the
/// graph whose memo the threads warmed and on a copy whose memo is cold.
TEST(GraphStorage, ConcurrentCrawlsShareTheCodegreeMemo) {
  Rng rng(17);
  const Graph g = directed_preferential(1500, 4, 0.4, rng);
  std::vector<CrawlSpec> specs;
  for (const std::string& method : CrawlSpec::methods()) {
    specs.push_back(CrawlSpec{.method = method,
                              .budget = 20000.0,
                              .dimension = 20,
                              .seed = specs.size() + 3});
  }
  constexpr std::size_t kThreads = 4;
  // Thread t runs every spec, starting at spec t, so each spec is crawled
  // by several threads at the same time.
  std::vector<std::vector<std::string>> got(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    got[t].resize(specs.size());
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < specs.size(); ++i) {
        const std::size_t s = (t + i) % specs.size();
        got[t][s] = crawl_state(g, specs[s]);
      }
    });
  }
  for (std::thread& th : threads) th.join();

  ASSERT_NE(&deep_copy(g).codegree_memo(), &g.codegree_memo());
  for (std::size_t s = 0; s < specs.size(); ++s) {
    const std::string warm = crawl_state(g, specs[s]);
    EXPECT_EQ(crawl_state(deep_copy(g), specs[s]), warm) << specs[s].method;
    for (std::size_t t = 0; t < kThreads; ++t) {
      EXPECT_EQ(got[t][s], warm) << specs[s].method << " thread " << t;
    }
  }
}

TEST(ParallelIngestion, ThreadCountDoesNotChangeTheParsedGraph) {
  const Graph g = make_test_graph(15);
  std::stringstream ss;
  write_edge_list(g, ss);
  const std::string text = ss.str();

  Graph first;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}, std::size_t{7}}) {
    std::stringstream in(text);
    const Graph parsed = read_edge_list(in, threads);
    expect_identical(g, parsed);
    if (threads == 1) {
      first = parsed;
    } else {
      expect_identical(first, parsed);
    }
  }
}

TEST(ParallelIngestion, ParallelSortMatchesStdSort) {
  std::mt19937_64 prng(99);
  std::vector<std::uint64_t> values(300000);
  for (auto& v : values) v = prng();
  std::vector<std::uint64_t> expected = values;
  std::sort(expected.begin(), expected.end());
  parallel_sort(values.begin(), values.end(), std::less<>{}, 4);
  EXPECT_EQ(values, expected);
}

TEST(ParallelIngestion, LargeBuilderSortRoundTrips) {
  // Enough edges (> 64k entries) to engage the parallel block sort inside
  // GraphBuilder::build(); the result must still round-trip exactly.
  Rng rng(16);
  const Graph g = barabasi_albert(40000, 2, rng);
  std::stringstream ss;
  write_edge_list(g, ss);
  const Graph reparsed = read_edge_list(ss, 4);
  expect_identical(g, reparsed);

  // CSR invariants: offsets monotone, per-vertex neighbor lists sorted.
  const auto offsets = g.offsets();
  for (std::size_t i = 0; i + 1 < offsets.size(); ++i) {
    ASSERT_LE(offsets[i], offsets[i + 1]);
  }
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto nbrs = g.neighbors(v);
    ASSERT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end())) << "vertex " << v;
  }
}

}  // namespace
}  // namespace frontier
