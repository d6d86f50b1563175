// Streaming vs batch sampling at large budgets: edges/sec and peak RSS.
//
// The streaming engine folds each sampled edge into online sinks, so its
// memory is O(graph + sink buckets) regardless of the budget B; the batch
// path materializes all B edges (16 bytes each) before estimating. This
// bench runs Frontier Sampling at geometrically increasing budgets and
// reports wall time, throughput, and the process peak RSS after each run.
//
// Run order matters: peak RSS is a process-wide high-water mark, so all
// streaming budgets run before the first batch run. The streaming rows
// should show near-constant RSS (within 2x from B=10^6 to B=10^8, the
// acceptance bar); the batch rows grow linearly with B.
//
// Knobs: FS_STREAM_MAX_EXP (default 8) and FS_BATCH_MAX_EXP (default 7)
// cap the largest streaming/batch budget at 10^exp; raise to 9 for the
// billion-step demonstration if you have the time and (for batch) RAM.
#include "bench_common.hpp"

#include <chrono>
#include <cmath>
#include <memory>

#include "obs/resource.hpp"

namespace {

using namespace frontier;

// Peak RSS of this process in MiB; 0 where getrusage is unavailable.
double peak_rss_mib() {
  return static_cast<double>(process_usage().peak_rss_bytes) /
         (1024.0 * 1024.0);
}

struct RunResult {
  double seconds = 0.0;
  double estimate = 0.0;  // streamed/batched avg-degree, sanity check
};

}  // namespace

int main(int argc, char** argv) {
  using namespace frontier::bench;
  BenchSession session(argc, argv, "bench_stream_throughput");
  const ExperimentConfig& cfg = session.config();
  const int stream_max_exp = checked_env_int("FS_STREAM_MAX_EXP", 8);
  const int batch_max_exp = checked_env_int("FS_BATCH_MAX_EXP", 7);

  Rng graph_rng(cfg.seed);
  const Graph g = barabasi_albert(200000, 3, graph_rng);
  print_header(
      "Streaming vs batch throughput and memory", g,
      "FS, m = 500, budgets 10^6 .. 10^" + std::to_string(stream_max_exp) +
          " (streaming) / 10^" + std::to_string(batch_max_exp) + " (batch)");

  const std::size_t m = 500;
  const auto fs_config = [&](double budget) {
    return FrontierSampler::Config{
        .dimension = m, .steps = frontier_steps(budget, m, 1.0)};
  };

  const auto run_streaming = [&](double budget) {
    SinkSet sinks;
    sinks.push_back(std::make_unique<GraphMomentsSink>(g));
    sinks.push_back(
        std::make_unique<DegreeDistributionSink>(g, DegreeKind::kSymmetric));
    StreamEngine engine(
        std::make_unique<FrontierCursor>(g, fs_config(budget), Rng(cfg.seed)),
        std::move(sinks));
    const auto t0 = std::chrono::steady_clock::now();
    engine.run_to_completion();
    const std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - t0;
    const auto& moments =
        dynamic_cast<const GraphMomentsSink&>(*engine.sinks()[0]);
    return RunResult{dt.count(), moments.average_degree()};
  };

  const auto run_batch = [&](double budget) {
    const FrontierSampler fs(g, fs_config(budget));
    Rng rng(cfg.seed);
    const auto t0 = std::chrono::steady_clock::now();
    const SampleRecord rec = fs.run(rng);
    const double estimate = estimate_average_degree(g, rec.edges);
    const std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - t0;
    return RunResult{dt.count(), estimate};
  };

  TextTable table({"mode", "budget", "seconds", "edges/sec", "peak RSS (MiB)",
                   "avg-degree est"});
  const auto add_row = [&](const char* mode, double budget,
                           const RunResult& r) {
    const double rate = budget / std::max(r.seconds, 1e-9);
    const double rss = peak_rss_mib();
    table.add_row({mode, format_number(budget), format_number(r.seconds),
                   format_number(rate), format_number(rss),
                   format_number(r.estimate)});
    const std::string tag =
        std::string(mode) + "/B=" + format_number(budget);
    session.metric("edges_per_sec/" + tag, rate, "edges/s");
    session.metric("peak_rss/" + tag, rss, "MiB");
  };

  // Streaming first: it must not inherit the batch path's high-water mark.
  for (int exp = 6; exp <= stream_max_exp; ++exp) {
    const double budget = std::pow(10.0, exp);
    add_row("stream", budget, run_streaming(budget));
  }

  for (int exp = 6; exp <= batch_max_exp; ++exp) {
    const double budget = std::pow(10.0, exp);
    add_row("batch", budget, run_batch(budget));
  }
  table.print(std::cout);
  std::cout << "\nRSS rows are cumulative high-water marks: a flat streaming "
               "column is the O(1)-in-budget memory claim; batch grows ~16 "
               "bytes/edge.\n";
  return 0;
}
