// Microbenchmarks (google-benchmark): sampler step throughput, the FS
// walker-selection ablation (Fenwick weighted tree vs linear scan) called
// out in DESIGN.md §5, and the codegree fold on both sides of
// shared_neighbors' size rule.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string_view>
#include <vector>

#include "bench_common.hpp"

namespace {

using namespace frontier;

const Graph& bench_graph() {
  static const Graph g = [] {
    Rng rng(42);
    return barabasi_albert(50000, 5, rng);
  }();
  return g;
}

void BM_SingleRandomWalk(benchmark::State& state) {
  const Graph& g = bench_graph();
  const auto steps = static_cast<std::uint64_t>(state.range(0));
  const SingleRandomWalk walker(g, {.steps = steps});
  Rng rng(1);
  SampleArena arena;
  for (auto _ : state) {
    benchmark::DoNotOptimize(walker.run_into(arena, rng));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(steps));
}
BENCHMARK(BM_SingleRandomWalk)->Arg(1000)->Arg(10000);

void BM_MetropolisHastings(benchmark::State& state) {
  const Graph& g = bench_graph();
  const auto steps = static_cast<std::uint64_t>(state.range(0));
  const MetropolisHastingsWalk walker(g, {.steps = steps});
  Rng rng(2);
  SampleArena arena;
  for (auto _ : state) {
    benchmark::DoNotOptimize(walker.run_into(arena, rng));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(steps));
}
BENCHMARK(BM_MetropolisHastings)->Arg(10000);

void BM_MultipleRw(benchmark::State& state) {
  const Graph& g = bench_graph();
  const auto m = static_cast<std::size_t>(state.range(0));
  const std::uint64_t steps = 10000;
  const MultipleRandomWalks mrw(
      g, {.num_walkers = m, .steps_per_walker = steps / m});
  Rng rng(9);
  SampleArena arena;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mrw.run_into(arena, rng));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(steps));
}
BENCHMARK(BM_MultipleRw)->Arg(10)->Arg(100);

void BM_FrontierTree(benchmark::State& state) {
  const Graph& g = bench_graph();
  const auto m = static_cast<std::size_t>(state.range(0));
  const std::uint64_t steps = 10000;
  const FrontierSampler fs(
      g, {.dimension = m, .steps = steps,
          .selection = FrontierCursor::Selection::kWeightedTree});
  Rng rng(3);
  SampleArena arena;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fs.run_into(arena, rng));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(steps));
}
BENCHMARK(BM_FrontierTree)->Arg(4)->Arg(64)->Arg(1024)->Arg(16384);

void BM_FrontierLinearScan(benchmark::State& state) {
  const Graph& g = bench_graph();
  const auto m = static_cast<std::size_t>(state.range(0));
  const std::uint64_t steps = 10000;
  const FrontierSampler fs(
      g, {.dimension = m, .steps = steps,
          .selection = FrontierCursor::Selection::kLinearScan});
  Rng rng(4);
  SampleArena arena;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fs.run_into(arena, rng));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(steps));
}
BENCHMARK(BM_FrontierLinearScan)->Arg(4)->Arg(64)->Arg(1024);

void BM_DistributedFs(benchmark::State& state) {
  const Graph& g = bench_graph();
  const auto m = static_cast<std::size_t>(state.range(0));
  const std::uint64_t steps = 10000;
  const DistributedFrontierSampler dfs(
      g, {.dimension = m, .stop = {.max_steps = steps}});
  Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dfs.run(rng));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(steps));
}
BENCHMARK(BM_DistributedFs)->Arg(64)->Arg(1024);

void BM_RandomEdgeSampler(benchmark::State& state) {
  const Graph& g = bench_graph();
  const RandomEdgeSampler re(g, {.budget = 20000.0});
  Rng rng(6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(re.run(rng));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          10000);
}
BENCHMARK(BM_RandomEdgeSampler);

void BM_DegreeDistributionEstimator(benchmark::State& state) {
  const Graph& g = bench_graph();
  const SingleRandomWalk walker(g, {.steps = 100000});
  Rng rng(7);
  const SampleRecord rec = walker.run(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        estimate_degree_distribution(g, rec.edges, DegreeKind::kSymmetric));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          100000);
}
BENCHMARK(BM_DegreeDistributionEstimator);

void BM_JointDegreeAbsorb(benchmark::State& state) {
  const Graph& g = bench_graph();
  const SingleRandomWalk walker(g, {.steps = 100000});
  Rng rng(10);
  const SampleRecord rec = walker.run(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(estimate_joint_degree(g, rec.edges));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rec.edges.size()));
}
BENCHMARK(BM_JointDegreeAbsorb);

/// The graphs BM_SharedNeighbors intersects rows of. G_AB at the
/// served-crawl scale, whose hub-and-leaf edges take shared_neighbors'
/// probe side; K_300, whose identical rows take the merge side with
/// perfectly predicted branches; and ER with mean degree 64, whose
/// similar-length rows take the merge side with unpredictable ones.
enum class CodegreeGraph { kGab, kComplete300, kEr64 };

Graph codegree_graph(CodegreeGraph which) {
  switch (which) {
    case CodegreeGraph::kGab:
      return make_gab(10000, 1).graph;
    case CodegreeGraph::kComplete300:
      return complete_graph(300);
    case CodegreeGraph::kEr64:
    default: {
      Rng rng(11);
      return erdos_renyi_gnp(20000, 64.0 / 19999.0, rng);
    }
  }
}

/// f(u, v) over 4096 FS-sampled edges (m = 16), the per-edge fold of the
/// triangle and clustering sinks. `probe_share` is the fraction of those
/// edges on codegree_probes' probe side.
void BM_SharedNeighbors(benchmark::State& state, CodegreeGraph which) {
  const Graph g = codegree_graph(which);
  Rng rng(12);
  const SampleRecord rec =
      FrontierSampler(g, {.dimension = 16, .steps = 4096}).run(rng);
  std::size_t probes = 0;
  for (const Edge& e : rec.edges) {
    const std::uint32_t du = g.degree(e.u);
    const std::uint32_t dv = g.degree(e.v);
    if (codegree_probes(std::min(du, dv), std::max(du, dv))) ++probes;
  }
  for (auto _ : state) {
    std::uint64_t sum = 0;
    for (const Edge& e : rec.edges) sum += shared_neighbors(g, e.u, e.v);
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rec.edges.size()));
  state.counters["probe_share"] = static_cast<double>(probes) /
                                  static_cast<double>(rec.edges.size());
}
BENCHMARK_CAPTURE(BM_SharedNeighbors, gab, CodegreeGraph::kGab);
BENCHMARK_CAPTURE(BM_SharedNeighbors, complete300, CodegreeGraph::kComplete300);
BENCHMARK_CAPTURE(BM_SharedNeighbors, er64, CodegreeGraph::kEr64);

void BM_GraphBuild(benchmark::State& state) {
  Rng rng(8);
  for (auto _ : state) {
    Rng local = rng.split_stream(static_cast<std::uint64_t>(state.iterations()));
    benchmark::DoNotOptimize(barabasi_albert(10000, 3, local));
  }
}
BENCHMARK(BM_GraphBuild);

/// Deterministic result fingerprint. Timings vary run to run, so the
/// fingerprint hashes fixed-seed sampler *outputs* instead — one short
/// run per sampler family benchmarked above, folding every sampled edge,
/// start vertex and the final cost. It must be invariant across
/// FS_THREADS and FS_BLOCK (the samplers' drain path goes through
/// StreamEventBlock), which is exactly what CI's perf-smoke gate checks.
double deterministic_fingerprint() {
  const Graph& g = bench_graph();
  std::uint64_t h = kFnv1aOffsetBasis;
  const auto absorb = [&h](const SampleRecord& rec) {
    for (const Edge& e : rec.edges) {
      h = fnv1a_u64(h, e.u);
      h = fnv1a_u64(h, e.v);
    }
    for (const VertexId s : rec.starts) h = fnv1a_u64(h, s);
    h = fnv1a_u64(h, std::bit_cast<std::uint64_t>(rec.cost));
  };
  {
    Rng rng(1);
    absorb(SingleRandomWalk(g, {.steps = 2000}).run(rng));
  }
  {
    Rng rng(2);
    absorb(MetropolisHastingsWalk(g, {.steps = 2000}).run(rng));
  }
  {
    Rng rng(9);
    absorb(MultipleRandomWalks(g, {.num_walkers = 10, .steps_per_walker = 200})
               .run(rng));
  }
  {
    Rng rng(3);
    absorb(FrontierSampler(
               g, {.dimension = 64, .steps = 2000,
                   .selection = FrontierCursor::Selection::kWeightedTree})
               .run(rng));
  }
  {
    Rng rng(4);
    absorb(FrontierSampler(
               g, {.dimension = 64, .steps = 2000,
                   .selection = FrontierCursor::Selection::kLinearScan})
               .run(rng));
  }
  {
    Rng rng(6);
    absorb(RandomWalkWithJumps(g, {.budget = 2000.0}).run(rng));
  }
  return static_cast<double>(h & ((std::uint64_t{1} << 52) - 1));
}

/// Mirrors every completed google-benchmark run into the shared
/// BenchReport, so bench_micro_samplers speaks the same --json schema as
/// the figure/table benches despite its different driver.
class SessionReporter : public benchmark::ConsoleReporter {
 public:
  explicit SessionReporter(frontier::bench::BenchSession& session)
      : session_(session) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      session_.metric(run.benchmark_name() + "/real_time",
                      run.GetAdjustedRealTime(),
                      benchmark::GetTimeUnitString(run.time_unit));
      // Walker benches SetItemsProcessed(steps), so this is steps/s —
      // the number the perf-smoke job prints and the BENCH trajectory
      // tracks.
      const auto it = run.counters.find("items_per_second");
      if (it != run.counters.end()) {
        session_.metric(run.benchmark_name() + "/items_per_second",
                        it->second, "items/s");
      }
    }
  }

 private:
  frontier::bench::BenchSession& session_;
};

}  // namespace

// Hand-rolled BENCHMARK_MAIN(): the shared --json flag must be stripped
// before benchmark::Initialize (which rejects flags it does not know).
int main(int argc, char** argv) {
  frontier::bench::BenchSession session(argc, argv, "bench_micro_samplers");
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--json") {
      if (i + 1 < argc) ++i;
      continue;
    }
    args.push_back(argv[i]);
  }
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) {
    return 1;
  }
  SessionReporter reporter(session);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  session.metric("result_fingerprint", deterministic_fingerprint(), "fnv52");
  return 0;
}
