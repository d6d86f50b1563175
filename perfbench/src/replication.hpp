// The paper's Fig. 10 experiment as the benchmark runs it: degree-CCDF
// CNMSE of FS (m walkers), SingleRW and MultipleRW (m walkers) at budget
// B, replicated through ReplicationRunner.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "bench.hpp"
#include "graph/graph.hpp"
#include "sampling/frontier_sampler.hpp"
#include "sampling/multiple_rw.hpp"
#include "sampling/single_rw.hpp"

namespace perfbench {

class CcdfExperiment {
 public:
  static constexpr std::size_t kMethods = 3;

  CcdfExperiment(const frontier::Graph& g, double budget, std::size_t m);

  [[nodiscard]] static const char* name(std::size_t method);

  struct Pass {
    std::vector<double> cnmse;  ///< per degree
    double seconds = 0.0;
    std::uint64_t edges = 0;    ///< sampled edges over all runs
    double busy_seconds = 0.0;  ///< summed run-body time over workers
    std::size_t workers = 0;
    std::vector<double> sample_us;    ///< per run: run_into latency
    std::vector<double> estimate_us;  ///< per run: estimator latency
    std::vector<double> sample_cpu_us;  ///< run_into, worker user-mode CPU
  };

  /// `runs` replications of `method` on `threads` workers, folded in run
  /// order into the CNMSE curve. With an enabled tracer, each run records
  /// experiments.run > sampling.run_into.<method> and
  /// estimators.degree_distribution spans.
  [[nodiscard]] Pass cnmse(std::size_t method, std::size_t runs,
                           std::uint64_t seed, std::size_t threads,
                           Tracer& tracer) const;

  /// Each run's CCDF estimate, in run order.
  [[nodiscard]] std::vector<std::vector<double>> per_run(
      std::size_t method, std::size_t runs, std::uint64_t seed,
      std::size_t threads) const;

 private:
  struct RunStats {
    std::uint64_t edges = 0;
    double sample_us = 0.0;
    double estimate_us = 0.0;
    double sample_cpu_us = 0.0;
  };
  [[nodiscard]] std::vector<double> run_one(std::size_t method,
                                            frontier::Rng& rng,
                                            frontier::SampleArena& arena,
                                            Tracer& tracer,
                                            RunStats& stats) const;

  const frontier::Graph& g_;
  std::vector<double> truth_;
  frontier::FrontierSampler fs_;
  frontier::SingleRandomWalk srw_;
  frontier::MultipleRandomWalks mrw_;
};

/// sampling.run_into.*, estimators.degree_distribution,
/// experiments.worker_busy_frac and experiments.speedup_vs_1thread on
/// `g`: one untraced and one traced pass of `runs` runs per method on 4
/// workers, then the first `first_runs` runs on 1 worker, which must be
/// bit-equal to the 4-worker ones. Returns the traced pass's slowdown in
/// percent.
double replication_layers(const CcdfExperiment& exp, std::size_t runs,
                          std::size_t first_runs, std::uint64_t seed,
                          Tracer& tracer, Result& result);

/// Checks that the first `first_runs` runs of every method are bit-equal
/// on 1 and 4 workers; returns (1-worker seconds, 4-worker seconds).
std::pair<double, double> check_first_runs(const CcdfExperiment& exp,
                                           std::size_t first_runs,
                                           std::uint64_t seed,
                                           Result& result);

}  // namespace perfbench
