#include "workloads.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <stdexcept>

#include "experiments/datasets.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "layers.hpp"
#include "replication.hpp"
#include "serve_load.hpp"
#include "stream/spec.hpp"

namespace perfbench {

using frontier::CrawlSpec;
using frontier::Graph;

namespace {

// stream_offline: a BA graph whose ~184 MB of CSR exceeds the L3, crawled
// by one FS engine (m = 1000, default six-sink roster) in the chunks
// `frontier_cli stream` pumps.
constexpr std::size_t kStreamVertices = 4'000'000;
constexpr std::size_t kStreamLinks = 3;
constexpr std::size_t kStreamDimension = 1000;
constexpr std::uint64_t kChunk = 65536;
// The traced-vs-untraced estimates check compares the crawl after this
// many events (16 chunks).
constexpr std::uint64_t kCheckEvents = 16 * kChunk;
// FS average-degree estimate vs the true mean degree after a timed run
// (>= several million events): observed relative errors are below 0.1%.
constexpr double kAvgDegreeTolerance = 0.02;

// replicate_gab: the paper's Fig. 10 at paper scale.
constexpr std::size_t kGabHalf = 500'000;
constexpr std::size_t kGabWalkers = 100;
constexpr std::size_t kGabRuns = 600;
constexpr std::size_t kFirstRuns = 16;

// serve_mixed: a cache-resident G_AB behind the daemon.
constexpr std::size_t kServeHalf = 10'000;

// Set-up repetitions whose median is setup_s.
constexpr int kStreamSetups = 3;
constexpr int kGabSetups = 3;
constexpr int kServeSetups = 9;

// Other workloads' layers, measured briefly on this workload's graph.
constexpr double kSideSeconds = 1.5;

const char* const kSpool = "spool";
const char* const kSocket = "serve.sock";
const char* const kGraphFile = "graph.bin";

Graph stream_graph(std::uint64_t seed) {
  frontier::Rng rng(derive_seed(seed, 1));
  return frontier::barabasi_albert(kStreamVertices, kStreamLinks, rng);
}

Graph gab_graph(std::size_t half, std::uint64_t seed) {
  return frontier::make_gab(half, derive_seed(seed, 1)).graph;
}

CrawlSpec fs_spec(std::size_t m, std::uint64_t seed) {
  CrawlSpec spec;
  spec.method = "fs";
  spec.budget = 1e12;  // never exhausted within a run
  spec.dimension = m;
  spec.seed = derive_seed(seed, 2);
  return spec.normalized();
}

double gab_budget(const Graph& g) {
  return static_cast<double>(g.num_vertices()) / 10.0;
}

/// Flushes the spool's filesystem, so the timed phase does not pay for
/// writeback left over from set-up or from earlier runs' files.
void flush_spool_fs() {
  const int fd = ::open(kSpool, O_RDONLY | O_DIRECTORY);
  if (fd < 0) throw std::runtime_error("cannot open the spool directory");
  const int rc = ::syncfs(fd);
  ::close(fd);
  if (rc != 0) throw std::runtime_error("syncfs of the spool failed");
}

/// Writes the graph snapshot and reads it back once, so the daemon's
/// mmap finds its pages in the page cache.
void write_snapshot(const Graph& g) {
  frontier::write_binary_file(g, kGraphFile);
  std::ifstream in(kGraphFile, std::ios::binary);
  std::vector<char> buf(1 << 20);
  while (in.read(buf.data(), static_cast<std::streamsize>(buf.size())) ||
         in.gcount() > 0) {
  }
}

std::unique_ptr<Daemon> start_daemon(const Options& o) {
  auto daemon =
      std::make_unique<Daemon>(o.serve_bin, kGraphFile, kSocket, kSpool,
                               "daemon.log");
  daemon->wait_ready(60.0);
  return daemon;
}

/// The untimed warm-up slice: 32 requests per connection.
void warm_up(const LoadSpec& spec, std::uint64_t seed, const std::string& tag,
             Result& result) {
  const LoadOutcome warm =
      run_load(kSocket, spec, seed, tag, 1e9, 32, false);
  result.attempt(warm.attempted);
  result.fail(warm.failures);
}

// A step's latency gate is its median. The tails, and the estimates,
// checkpoint and resume ops, did not repeat between identical runs on a
// shared 4-core VM (serve step p90 spread 0.3-0.5 of its median over 5
// seeds, checkpoint p50 0.25-0.8), so they go on the summary line with
// their sample counts.
void note_tail(Result& result, const std::string& op,
               const std::vector<double>& us) {
  if (us.empty()) throw std::runtime_error("no " + op + " op was timed");
  result.note(op + "_samples", static_cast<double>(us.size()));
  result.note(op + "_p10_us", quantile(us, 0.1));
  result.note(op + "_p25_us", quantile(us, 0.25));
  result.note(op + "_p90_us", quantile(us, 0.9));
  result.note(op + "_p99_us", quantile(us, 0.99));
}

/// Median over one-second windows of the rate amount / busy time, where
/// item i completed `at_s[i]` seconds into the phase after `busy_s[i]`
/// seconds of work (the window length itself for concurrent clients): a
/// short stall on the shared host moves one window, not the reported
/// rate.
double windowed_rate(const std::vector<double>& at_s,
                     const std::vector<double>& amount,
                     const std::vector<double>& busy_s, Result& result,
                     const std::string& name) {
  std::vector<double> sum;
  std::vector<double> time;
  for (std::size_t i = 0; i < at_s.size(); ++i) {
    const auto w = static_cast<std::size_t>(at_s[i]);
    if (w >= sum.size()) {
      sum.resize(w + 1, 0.0);
      time.resize(w + 1, 0.0);
    }
    sum[w] += amount[i];
    time[w] += busy_s.empty() ? 0.0 : busy_s[i];
  }
  std::vector<double> rates;
  for (std::size_t w = 0; w < sum.size(); ++w) {
    const bool partial = w + 1 == sum.size() && w > 0;  // the last window
    const double t = busy_s.empty() ? 1.0 : time[w];
    if (!partial && t > 0.0) rates.push_back(sum[w] / t);
  }
  // The windows' quartiles show how steady the rate was within the run.
  result.note(name + "_window_q1", quantile(rates, 0.25));
  result.note(name + "_window_q3", quantile(rates, 0.75));
  return median(rates);
}

/// serve.* layers: a socket run of `seconds`, then its in-process replay.
/// Returns the replay's events/s shortfall against the socket run, in
/// percent.
double serve_layers(const Options& o, const Graph& g, double seconds,
                    Tracer& tracer, Result& result) {
  write_snapshot(g);
  const auto daemon = start_daemon(o);
  const LoadSpec spec;
  warm_up(spec, derive_seed(o.seed, 50), "w", result);
  const LoadOutcome out =
      run_load(kSocket, spec, derive_seed(o.seed, 60), "t", seconds,
               std::numeric_limits<std::size_t>::max(), true);
  daemon->shutdown();
  result.attempt(out.attempted);
  result.fail(out.failures);
  std::filesystem::create_directories("spool-replay");
  const double replay_eps =
      replay_in_process(g, "spool-replay", out, tracer, result);
  const double socket_eps = static_cast<double>(out.events) / out.elapsed_s;
  return (socket_eps - replay_eps) / socket_eps * 100.0;
}

/// Every layer group the workload's own phase did not cover, measured on
/// its graph with its walker count.
void remaining_layers(const Options& o, const Graph& g, std::size_t m,
                      Tracer& tracer, Result& result) {
  const CrawlSpec spec = fs_spec(m, o.seed);
  if (!result.has("stream.engine.pump_ns_per_event")) {
    (void)crawl_layers(g, spec, kChunk, kSideSeconds, tracer, result);
  }
  micro_layers(g, m, o.seed, result);
  cursor_layers(g, m, o.seed, result);
  checkpoint_layers(g, spec, kChunk, kSpool, result);
  if (!result.has("serve.busy_frac")) {
    (void)serve_layers(o, g, kSideSeconds, tracer, result);
  }
  if (!result.has("experiments.worker_busy_frac")) {
    const CcdfExperiment exp(g, std::min(gab_budget(g), 1e5), kGabWalkers);
    (void)replication_layers(exp, 32, 8, derive_seed(o.seed, 3), tracer,
                             result);
  }
}

void stream_offline(const Options& o, Tracer& tracer, Result& result) {
  const CrawlSpec spec = fs_spec(kStreamDimension, o.seed);
  if (o.trace) {
    const Graph g = stream_graph(o.seed);
    result.note("pretouch", static_cast<double>(pretouch(g) & 0xff));
    result.set("bench.trace_overhead_pct",
               crawl_layers(g, spec, kChunk, o.seconds, tracer, result), "%");
    remaining_layers(o, g, kStreamDimension, tracer, result);
    return;
  }

  Graph g;
  std::unique_ptr<frontier::StreamEngine> engine;
  std::vector<double> setups;
  for (int rep = 0; rep < kStreamSetups; ++rep) {
    engine.reset();
    g = Graph{};
    const Clock::time_point t0 = Clock::now();
    g = stream_graph(o.seed);
    result.note("pretouch", static_cast<double>(pretouch(g) & 0xff));
    engine = spec.make_engine(g);
    engine->pump(kChunk);  // the untimed warm-up slice
    setups.push_back(seconds_since(t0));
  }
  result.set("setup_s", median(setups), "s");

  // One engine pumped in `frontier_cli stream`'s chunks; each pump is a
  // step. The estimates are rendered once, untimed, at the check point.
  std::vector<double> step_us;
  std::vector<double> step_s;
  std::vector<double> step_cpu_s;
  std::vector<double> stepped;
  std::vector<double> done_at_s;
  std::string at_check;
  const Clock::time_point t0 = Clock::now();
  while (seconds_since(t0) < o.seconds || engine->events() < kCheckEvents) {
    const double c0 = thread_user_cpu_seconds();
    const Clock::time_point s0 = Clock::now();
    stepped.push_back(static_cast<double>(engine->pump(kChunk)));
    const Clock::time_point s1 = Clock::now();
    step_cpu_s.push_back(thread_user_cpu_seconds() - c0);
    step_s.push_back(seconds_between(s0, s1));
    step_us.push_back(step_s.back() * 1e6);
    done_at_s.push_back(seconds_between(t0, s1));
    result.attempt();
    if (engine->events() == kCheckEvents) {
      at_check = frontier::estimates_fields(spec, *engine);
    }
  }
  result.set("events_per_user_cpu_s",
             windowed_rate(done_at_s, stepped, step_cpu_s, result,
                           "events_per_user_cpu_s"),
             "1/s");
  result.note("events_per_s",
              windowed_rate(done_at_s, stepped, step_s, result,
                            "events_per_s"));
  note_tail(result, "step", step_us);
  result.set("step_p50_us", quantile(step_us, 0.5), "us");

  result.set("peak_rss_mib", own_peak_rss_mib(), "MiB");

  // The traced loop over a fresh cursor and sinks of the same spec must
  // render the text the engine rendered at that point. The wrapping
  // engine's own counter starts at 0, so the events field is re-rendered
  // from the loop's count.
  Tracer off(false);
  auto cursor = spec.make_cursor(g);
  frontier::SinkSet sinks = spec.make_sinks(g);
  frontier::StreamEventBlock block;
  const std::uint64_t taken =
      traced_pump(*cursor, sinks, block, kCheckEvents, off);
  const frontier::StreamEngine replay(std::move(cursor), std::move(sinks));
  const std::string text = frontier::estimates_fields(spec, replay);
  const std::string traced_text =
      "\"events\":" + std::to_string(taken) + text.substr(text.find(','));
  result.check(traced_text == at_check,
               "traced and untraced crawls render different estimates");

  const auto* moments = static_cast<const frontier::GraphMomentsSink*>(
      engine->sinks()[2].get());
  const double truth = g.average_degree();
  const double rel = std::abs(moments->average_degree() - truth) / truth;
  result.note("avg_degree_rel_error", rel);
  result.check(rel <= kAvgDegreeTolerance,
               "average degree estimate off by " + std::to_string(rel));
}

/// Mean over the methods of each method's median: a run's cost depends on
/// its method, and a pooled median would fall in the gap between the
/// methods' distributions.
double mean_of_medians(const std::vector<std::vector<double>>& by_method) {
  double sum = 0.0;
  for (const auto& v : by_method) sum += median(v);
  return sum / static_cast<double>(by_method.size());
}

void replicate_gab(const Options& o, Tracer& tracer, Result& result) {
  const std::uint64_t runner_seed = derive_seed(o.seed, 3);
  if (o.trace) {
    const Graph g = gab_graph(kGabHalf, o.seed);
    result.note("pretouch", static_cast<double>(pretouch(g) & 0xff));
    const CcdfExperiment exp(g, gab_budget(g), kGabWalkers);
    result.set("bench.trace_overhead_pct",
               replication_layers(exp, 200, kFirstRuns, runner_seed, tracer,
                                  result),
               "%");
    remaining_layers(o, g, kGabWalkers, tracer, result);
    return;
  }

  Graph g;
  std::unique_ptr<CcdfExperiment> exp;
  std::vector<double> setups;
  Tracer off(false);
  for (int rep = 0; rep < kGabSetups; ++rep) {
    exp.reset();
    g = Graph{};
    const Clock::time_point t0 = Clock::now();
    g = gab_graph(kGabHalf, o.seed);
    result.note("pretouch", static_cast<double>(pretouch(g) & 0xff));
    exp = std::make_unique<CcdfExperiment>(g, gab_budget(g), kGabWalkers);
    for (std::size_t m = 0; m < CcdfExperiment::kMethods; ++m) {
      (void)exp->cnmse(m, 4, runner_seed, 4, off);  // warm-up slice
    }
    setups.push_back(seconds_since(t0));
  }
  result.set("setup_s", median(setups), "s");

  // Whole rounds of 600-run passes of every method until the time is up.
  // The rates are those of one balanced Fig. 10 experiment (mean pass of
  // each method), per second of the process's user-mode CPU time (all
  // workers) and of wall-clock time. A replication's step is its sampler run and its
  // estimates are the estimator over that sample.
  constexpr std::size_t kMethods = CcdfExperiment::kMethods;
  std::vector<std::vector<std::vector<double>>> curves(kMethods);
  std::vector<double> pass_edges(kMethods, 0.0);
  std::vector<double> pass_seconds(kMethods, 0.0);
  std::vector<double> pass_cpu_seconds(kMethods, 0.0);
  std::vector<std::vector<double>> sample_us(kMethods);
  std::vector<std::vector<double>> estimate_us(kMethods);
  std::vector<std::vector<double>> pass_run_cpu_us(kMethods);
  double pass_time = 0.0;
  std::size_t method = 0;
  do {
    const double c0 = process_user_cpu_seconds();
    CcdfExperiment::Pass pass =
        exp->cnmse(method, kGabRuns, runner_seed, 4, off);
    pass_cpu_seconds[method] += process_user_cpu_seconds() - c0;
    pass_edges[method] += static_cast<double>(pass.edges);
    pass_seconds[method] += pass.seconds;
    sample_us[method].insert(sample_us[method].end(), pass.sample_us.begin(),
                             pass.sample_us.end());
    estimate_us[method].insert(estimate_us[method].end(),
                               pass.estimate_us.begin(),
                               pass.estimate_us.end());
    double cpu_us = 0.0;
    for (const double us : pass.sample_cpu_us) cpu_us += us;
    pass_run_cpu_us[method].push_back(cpu_us / static_cast<double>(kGabRuns));
    pass_time += pass.seconds;
    result.attempt(kGabRuns);
    curves[method].push_back(std::move(pass.cnmse));
    method = (method + 1) % kMethods;
  } while (pass_time < o.seconds || method != 0);
  double experiment_edges = 0.0;
  double experiment_seconds = 0.0;
  double experiment_cpu_seconds = 0.0;
  for (std::size_t m = 0; m < kMethods; ++m) {
    const auto passes = static_cast<double>(curves[m].size());
    experiment_edges += pass_edges[m] / passes;
    experiment_seconds += pass_seconds[m] / passes;
    experiment_cpu_seconds += pass_cpu_seconds[m] / passes;
  }
  result.set("events_per_user_cpu_s",
             experiment_edges / experiment_cpu_seconds, "1/s");
  result.note("events_per_s", experiment_edges / experiment_seconds);
  result.note("runs_per_s",
              static_cast<double>(kGabRuns * kMethods) / experiment_seconds);
  for (std::size_t m = 0; m < kMethods; ++m) {
    const std::string name = CcdfExperiment::name(m);
    note_tail(result, "step." + name, sample_us[m]);
    note_tail(result, "estimates." + name, estimate_us[m]);
  }
  // A step is one replication's run_into, in user-mode CPU time: four
  // workers share four vCPUs with the rest of the host, so its wall-clock
  // time includes waiting for a core. Single runs are bimodal (a SingleRW
  // walker stays in the half of G_AB it starts in: p10 4.6 ms, p90
  // 28.6 ms), so their median jumped between the modes from seed to seed
  // (spread 0.26 over 5 seeds). The figure is therefore the median over
  // a method's passes of the pass's mean run, averaged over the methods.
  result.set("step_p50_us", mean_of_medians(pass_run_cpu_us), "us");
  result.note("step_wall_p50_us", mean_of_medians(sample_us));
  result.note("estimates_p50_us", mean_of_medians(estimate_us));
  result.set("peak_rss_mib", own_peak_rss_mib(), "MiB");

  for (std::size_t m = 0; m < kMethods; ++m) {
    for (const auto& curve : curves[m]) {
      bool finite = !curve.empty();
      for (const double x : curve) finite = finite && std::isfinite(x) && x >= 0;
      result.check(finite, std::string("CNMSE curve of ") +
                               CcdfExperiment::name(m) + " is not finite");
    }
  }
  (void)check_first_runs(*exp, kFirstRuns, runner_seed, result);
}

void serve_mixed(const Options& o, Tracer& tracer, Result& result) {
  if (o.trace) {
    const Graph g = gab_graph(kServeHalf, o.seed);
    result.set("bench.trace_overhead_pct",
               serve_layers(o, g, o.seconds, tracer, result), "%");
    remaining_layers(o, g, LoadSpec{}.dimension, tracer, result);
    return;
  }

  const LoadSpec spec;
  Graph g;
  std::unique_ptr<Daemon> daemon;
  std::vector<double> setups;
  flush_spool_fs();
  for (int rep = 0; rep < kServeSetups; ++rep) {
    if (daemon) daemon->shutdown();
    daemon.reset();
    const Clock::time_point t0 = Clock::now();
    g = gab_graph(kServeHalf, o.seed);
    write_snapshot(g);
    daemon = start_daemon(o);
    warm_up(spec, derive_seed(o.seed, 50 + static_cast<std::uint64_t>(rep)),
            "w" + std::to_string(rep), result);
    setups.push_back(seconds_since(t0));
  }
  result.set("setup_s", median(setups), "s");
  flush_spool_fs();

  const Daemon::CpuTimes cpu0 = daemon->cpu_times();
  const LoadOutcome out =
      run_load(kSocket, spec, derive_seed(o.seed, 60), "t", o.seconds,
               std::numeric_limits<std::size_t>::max(), false);
  const Daemon::CpuTimes cpu1 = daemon->cpu_times();
  const double user_s = cpu1.user - cpu0.user;
  const double system_s = cpu1.system - cpu0.system;
  const double rss = daemon->peak_rss_mib();
  daemon->shutdown();
  result.attempt(out.attempted);
  result.fail(out.failures);

  // The rate per second of the daemon's own user-mode work: its
  // wall-clock rate and its kernel time follow the host's fsync and
  // cross-vCPU wake-up latency (README, "End-to-end metrics").
  result.set("events_per_user_cpu_s",
             static_cast<double>(out.events) / user_s, "1/s");
  result.note("events_per_s",
              windowed_rate(out.done_at_s, out.done_events, {}, result,
                            "events_per_s"));
  result.note("daemon_user_frac", user_s / out.elapsed_s);
  result.note("daemon_system_frac", system_s / out.elapsed_s);
  result.set("peak_rss_mib", rss, "MiB");
  result.note("requests_per_s",
              windowed_rate(out.done_at_s,
                            std::vector<double>(out.done_at_s.size(), 1.0),
                            {}, result, "requests_per_s"));
  for (const char* op : {"step", "estimates", "checkpoint", "resume"}) {
    const auto it = out.latency_us.find(op);
    if (it == out.latency_us.end()) {
      throw std::runtime_error(std::string("no ") + op + " request timed");
    }
    note_tail(result, op, it->second);
    result.note(std::string(op) + "_p50_us", quantile(it->second, 0.5));
  }
  result.set("step_p50_us", quantile(out.latency_us.at("step"), 0.5), "us");
  result.note("sessions_checked", static_cast<double>(out.sessions.size()));
  verify_sessions(g, out.sessions, result);
}

}  // namespace

void run_workload(const Options& o, Tracer& tracer, Result& result) {
  if (o.workload == "stream_offline") {
    stream_offline(o, tracer, result);
  } else if (o.workload == "replicate_gab") {
    replicate_gab(o, tracer, result);
  } else if (o.workload == "serve_mixed") {
    serve_mixed(o, tracer, result);
  } else {
    throw std::invalid_argument("unknown workload: " + o.workload);
  }
}

}  // namespace perfbench
