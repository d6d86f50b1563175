#include "replication.hpp"

#include <cstring>

#include "estimators/degree_distribution.hpp"
#include "experiments/replication_runner.hpp"
#include "graph/metrics.hpp"
#include "sampling/budget.hpp"
#include "stats/accumulators.hpp"

namespace perfbench {

using frontier::DegreeKind;

CcdfExperiment::CcdfExperiment(const frontier::Graph& g, double budget,
                               std::size_t m)
    : g_(g),
      truth_(frontier::ccdf_from_pdf(
          frontier::degree_distribution(g, DegreeKind::kSymmetric))),
      fs_(g, {.dimension = m,
              .steps = frontier::frontier_steps(budget, m, 1.0)}),
      srw_(g, {.steps = static_cast<std::uint64_t>(budget) - 1}),
      mrw_(g, {.num_walkers = m,
               .steps_per_walker =
                   frontier::multiple_rw_steps_per_walker(budget, m, 1.0)}) {}

const char* CcdfExperiment::name(std::size_t method) {
  static const char* const kNames[kMethods] = {"fs", "srw", "mrw"};
  return kNames[method];
}

std::vector<double> CcdfExperiment::run_one(std::size_t method,
                                            frontier::Rng& rng,
                                            frontier::SampleArena& arena,
                                            Tracer& tracer,
                                            RunStats& stats) const {
  static const char* const kSpans[kMethods] = {"sampling.run_into.fs",
                                               "sampling.run_into.srw",
                                               "sampling.run_into.mrw"};
  const frontier::SampleRecord* record = nullptr;
  const double c0 = thread_user_cpu_seconds();
  const Clock::time_point t0 = Clock::now();
  {
    auto span = tracer.span(kSpans[method]);
    switch (method) {
      case 0:
        record = &fs_.run_into(arena, rng);
        break;
      case 1:
        record = &srw_.run_into(arena, rng);
        break;
      default:
        record = &mrw_.run_into(arena, rng);
        break;
    }
    span.set_count(record->edges.size());
  }
  const Clock::time_point t1 = Clock::now();
  const double c1 = thread_user_cpu_seconds();
  stats.edges = record->edges.size();
  std::vector<double> ccdf;
  {
    const auto span =
        tracer.span("estimators.degree_distribution", 0, stats.edges);
    ccdf = frontier::ccdf_from_pdf(frontier::estimate_degree_distribution(
        g_, record->edges, DegreeKind::kSymmetric));
  }
  stats.sample_us = std::chrono::duration<double, std::micro>(t1 - t0).count();
  stats.estimate_us = seconds_since(t1) * 1e6;
  stats.sample_cpu_us = (c1 - c0) * 1e6;
  return ccdf;
}

CcdfExperiment::Pass CcdfExperiment::cnmse(std::size_t method,
                                           std::size_t runs,
                                           std::uint64_t seed,
                                           std::size_t threads,
                                           Tracer& tracer) const {
  const frontier::ReplicationRunner runner(runs, seed, threads);
  std::atomic<std::uint64_t> edges{0};
  std::atomic<std::int64_t> busy_ns{0};
  Pass pass;
  pass.sample_us.resize(runs);
  pass.estimate_us.resize(runs);
  pass.sample_cpu_us.resize(runs);
  const Clock::time_point start = Clock::now();
  const frontier::MseAccumulator acc = runner.map_reduce(
      frontier::MseAccumulator(truth_),
      [&](std::size_t r, frontier::Rng& rng, frontier::SampleArena& arena) {
        const Clock::time_point t0 = Clock::now();
        RunStats stats;
        std::vector<double> est;
        {
          const auto span = tracer.span("experiments.run", r);
          est = run_one(method, rng, arena, tracer, stats);
        }
        // Each run owns slot r, so workers never share an element.
        pass.sample_us[r] = stats.sample_us;
        pass.estimate_us[r] = stats.estimate_us;
        pass.sample_cpu_us[r] = stats.sample_cpu_us;
        edges.fetch_add(stats.edges, std::memory_order_relaxed);
        busy_ns.fetch_add(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - t0)
                .count(),
            std::memory_order_relaxed);
        return est;
      },
      [](frontier::MseAccumulator& dst, std::vector<double>&& est) {
        dst.add_run(est);
      });
  pass.seconds = seconds_since(start);
  pass.cnmse = acc.normalized_rmse();
  pass.edges = edges.load();
  pass.busy_seconds = static_cast<double>(busy_ns.load()) / 1e9;
  pass.workers = runner.workers();
  return pass;
}

std::vector<std::vector<double>> CcdfExperiment::per_run(
    std::size_t method, std::size_t runs, std::uint64_t seed,
    std::size_t threads) const {
  const frontier::ReplicationRunner runner(runs, seed, threads);
  Tracer off(false);
  return runner.map(
      [&](std::size_t, frontier::Rng& rng, frontier::SampleArena& arena) {
        RunStats stats;
        return run_one(method, rng, arena, off, stats);
      });
}

std::pair<double, double> check_first_runs(const CcdfExperiment& exp,
                                           std::size_t first_runs,
                                           std::uint64_t seed,
                                           Result& result) {
  double one = 0.0;
  double four = 0.0;
  for (std::size_t m = 0; m < CcdfExperiment::kMethods; ++m) {
    Clock::time_point t0 = Clock::now();
    const auto serial = exp.per_run(m, first_runs, seed, 1);
    one += seconds_since(t0);
    t0 = Clock::now();
    const auto parallel = exp.per_run(m, first_runs, seed, 4);
    four += seconds_since(t0);
    bool equal = serial.size() == parallel.size();
    for (std::size_t r = 0; equal && r < serial.size(); ++r) {
      equal = serial[r].size() == parallel[r].size() &&
              std::memcmp(serial[r].data(), parallel[r].data(),
                          serial[r].size() * sizeof(double)) == 0;
    }
    result.check(equal, std::string("first runs of ") +
                            CcdfExperiment::name(m) +
                            " differ between 1 and 4 workers");
  }
  return {one, four};
}

double replication_layers(const CcdfExperiment& exp, std::size_t runs,
                          std::size_t first_runs, std::uint64_t seed,
                          Tracer& tracer, Result& result) {
  Tracer off(false);
  double bare_s = 0.0;
  double traced_s = 0.0;
  std::uint64_t bare_edges = 0;
  std::uint64_t traced_edges = 0;
  double busy_s = 0.0;
  double capacity_s = 0.0;
  for (std::size_t m = 0; m < CcdfExperiment::kMethods; ++m) {
    const auto bare = exp.cnmse(m, runs, seed, 4, off);
    bare_s += bare.seconds;
    bare_edges += bare.edges;
    const auto traced = exp.cnmse(m, runs, seed, 4, tracer);
    traced_s += traced.seconds;
    traced_edges += traced.edges;
    busy_s += traced.busy_seconds;
    capacity_s += traced.seconds * static_cast<double>(traced.workers);
    result.check(traced.cnmse == bare.cnmse,
                 "tracing changed the CNMSE curve");
  }
  const auto totals = tracer.totals();
  const auto per_edge = [&totals](const std::string& name) {
    const auto it = totals.find(name);
    return it == totals.end() || it->second.count == 0
               ? 0.0
               : it->second.total_ns / static_cast<double>(it->second.count);
  };
  for (std::size_t m = 0; m < CcdfExperiment::kMethods; ++m) {
    const std::string name = std::string("sampling.run_into.") +
                             CcdfExperiment::name(m);
    result.set(name + ".ns_per_edge", per_edge(name), "ns");
  }
  result.set("estimators.degree_distribution.ns_per_edge",
             per_edge("estimators.degree_distribution"), "ns");
  result.set("experiments.worker_busy_frac", busy_s / capacity_s, "ratio");
  const auto [one, four] = check_first_runs(exp, first_runs, seed, result);
  result.set("experiments.speedup_vs_1thread", one / four, "ratio");
  const double bare_eps = static_cast<double>(bare_edges) / bare_s;
  const double traced_eps = static_cast<double>(traced_edges) / traced_s;
  return (bare_eps - traced_eps) / bare_eps * 100.0;
}

}  // namespace perfbench
