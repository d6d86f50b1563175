#include "layers.hpp"

#include <algorithm>
#include <sstream>
#include <vector>

#include "core/durable.hpp"
#include "obs/crawl_metrics.hpp"
#include "obs/metrics.hpp"
#include "random/weighted_tree.hpp"
#include "stream/block.hpp"

namespace perfbench {

using frontier::CrawlSpec;
using frontier::Graph;
using frontier::Rng;

namespace {

double ns_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

/// Median per-call time in µs of `fn`, called at least `min_calls` times
/// and for at least `min_seconds`.
template <typename Fn>
double median_call_us(std::size_t min_calls, double min_seconds, Fn&& fn) {
  std::vector<double> us;
  const Clock::time_point start = Clock::now();
  while (us.size() < min_calls || seconds_since(start) < min_seconds) {
    const Clock::time_point t0 = Clock::now();
    fn();
    us.push_back(ns_since(t0) / 1e3);
  }
  return median(us);
}

}  // namespace

std::uint64_t traced_pump(frontier::SamplerCursor& cursor,
                          const frontier::SinkSet& sinks,
                          frontier::StreamEventBlock& block,
                          std::uint64_t max_events, Tracer& tracer) {
  std::vector<const char*> sink_spans;
  for (const auto& sink : sinks) {
    sink_spans.push_back(
        intern("stream.sink." + std::string(sink->name()) + ".ingest_block"));
  }
  std::uint64_t taken = 0;
  while (taken < max_events) {
    const auto want = static_cast<std::size_t>(
        std::min<std::uint64_t>(max_events - taken, block.capacity()));
    std::size_t got = 0;
    {
      auto span = tracer.span("stream.cursor.next_batch");
      got = cursor.next_batch(block, want);
      span.set_count(got);
    }
    if (got == 0) break;
    for (std::size_t i = 0; i < sinks.size(); ++i) {
      const auto span = tracer.span(sink_spans[i], 0, got);
      sinks[i]->ingest_block(block);
    }
    taken += got;
  }
  return taken;
}

double crawl_layers(const Graph& g, const CrawlSpec& spec, std::uint64_t chunk,
                    double seconds, Tracer& tracer, Result& result) {
  const auto engine = spec.make_engine(g);
  const auto cursor = spec.make_cursor(g);
  const frontier::SinkSet sinks = spec.make_sinks(g);
  frontier::StreamEventBlock block;
  frontier::MetricsRegistry registry;
  frontier::CrawlInstrumentation instr(registry, engine->cursor(),
                                       engine->sinks());
  Tracer off(false);
  engine->pump(chunk);
  traced_pump(*cursor, sinks, block, chunk, off);

  double bare_ns = 0.0;
  double traced_ns = 0.0;
  std::uint64_t bare_events = 0;
  std::uint64_t traced_events = 0;
  std::vector<double> pair_ns_per_event;  // attached minus detached
  const Clock::time_point start = Clock::now();
  while (pair_ns_per_event.size() < 24 || seconds_since(start) < seconds ||
         pair_ns_per_event.size() % 2 == 1) {
    Clock::time_point t0 = Clock::now();
    {
      auto span = tracer.span("stream.pump");
      const std::uint64_t n = traced_pump(*cursor, sinks, block, chunk, tracer);
      span.set_count(n);
      traced_events += n;
    }
    traced_ns += ns_since(t0);

    // The on/off pair: which chunk runs first, straight after the traced
    // chunk evicted the engine's working set, alternates by round.
    double t_bare = 0.0;
    double t_instr = 0.0;
    std::uint64_t n_bare = 0;
    std::uint64_t n_instr = 0;
    const bool instr_first = pair_ns_per_event.size() % 2 == 1;
    for (int half = 0; half < 2; ++half) {
      const bool attached = (half == 0) == instr_first;
      engine->set_instrumentation(attached ? &instr : nullptr);
      t0 = Clock::now();
      const std::uint64_t n = engine->pump(chunk);
      (attached ? t_instr : t_bare) = ns_since(t0);
      (attached ? n_instr : n_bare) = n;
    }
    engine->set_instrumentation(nullptr);

    bare_ns += t_bare;
    bare_events += n_bare;
    pair_ns_per_event.push_back(t_instr / static_cast<double>(n_instr) -
                                 t_bare / static_cast<double>(n_bare));
  }

  const auto totals = tracer.totals();
  const auto per_event = [&totals](const std::string& name) {
    const auto it = totals.find(name);
    return it == totals.end() || it->second.count == 0
               ? 0.0
               : it->second.total_ns / static_cast<double>(it->second.count);
  };
  const double pump = bare_ns / static_cast<double>(bare_events);
  const double cursor_ns = per_event("stream.cursor.next_batch");
  double residual = pump - cursor_ns;
  result.set("stream.cursor." + spec.method + ".ns_per_event", cursor_ns,
             "ns");
  for (const auto& sink : sinks) {
    const std::string name(sink->name());
    const double ns = per_event("stream.sink." + name + ".ingest_block");
    residual -= ns;
    result.set("stream.sink." + name + ".ns_per_event", ns, "ns");
  }
  result.set("stream.engine.pump_ns_per_event", pump, "ns");
  result.set("stream.engine.residual_ns_per_event", residual, "ns");
  // Each sample averages two consecutive pairs, one in each order, so the
  // penalty of running first cancels out of it.
  std::vector<double> instr_ns_per_event;
  for (std::size_t i = 0; i + 1 < pair_ns_per_event.size(); i += 2) {
    instr_ns_per_event.push_back(
        (pair_ns_per_event[i] + pair_ns_per_event[i + 1]) / 2.0);
  }
  result.set("obs.instrumentation_ns_per_event", median(instr_ns_per_event),
             "ns");
  result.set("obs.instrumentation_ns_per_event_q1",
             quantile(instr_ns_per_event, 0.25), "ns");
  result.set("obs.instrumentation_ns_per_event_q3",
             quantile(instr_ns_per_event, 0.75), "ns");
  result.note("obs.instrumentation_pairs",
              static_cast<double>(pair_ns_per_event.size()));
  const double bare_eps = static_cast<double>(bare_events) / bare_ns;
  const double traced_eps = static_cast<double>(traced_events) / traced_ns;
  return (bare_eps - traced_eps) / bare_eps * 100.0;
}

void micro_layers(const Graph& g, std::size_t m, std::uint64_t seed,
                  Result& result) {
  const std::uint64_t n = g.num_vertices();
  Rng rng(derive_seed(seed, 101));

  // A dependent chain: the next vertex is a hash of a neighbor just
  // loaded, so each step waits for its offsets and neighbors loads.
  constexpr std::uint64_t kLoads = std::uint64_t{1} << 21;
  std::uint64_t v = frontier::uniform_index(rng, n);
  Clock::time_point t0 = Clock::now();
  for (std::uint64_t i = 0; i < kLoads; ++i) {
    const auto nb = g.neighbors(static_cast<frontier::VertexId>(v));
    const std::uint64_t x = nb.empty() ? i : nb[nb.size() / 2];
    const unsigned __int128 h =
        static_cast<unsigned __int128>((x + i) * 0x9e3779b97f4a7c15ULL) * n;
    v = static_cast<std::uint64_t>(h >> 64);
  }
  result.set("graph.neighbor_load_ns",
             ns_since(t0) / static_cast<double>(kLoads), "ns");

  constexpr std::uint64_t kDraws = std::uint64_t{1} << 25;
  std::uint64_t sink = v;
  t0 = Clock::now();
  for (std::uint64_t i = 0; i < kDraws; ++i) {
    sink += frontier::uniform_index(rng, n);
  }
  result.set("random.draw_ns", ns_since(t0) / static_cast<double>(kDraws),
             "ns");

  // Walker weights are degrees, as in FrontierCursor: sample a walker,
  // then set its weight to the degree of where it moved.
  std::vector<double> degrees(4096);
  for (double& d : degrees) {
    d = g.degree(static_cast<frontier::VertexId>(
        frontier::uniform_index(rng, n)));
  }
  std::vector<double> init(m);
  for (std::size_t i = 0; i < m; ++i) init[i] = degrees[i % degrees.size()];
  frontier::WeightedTree tree(init);
  constexpr std::uint64_t kPicks = std::uint64_t{1} << 22;
  t0 = Clock::now();
  for (std::uint64_t i = 0; i < kPicks; ++i) {
    const std::size_t w = tree.sample(rng);
    tree.set(w, degrees[(i + w) & 4095]);
    sink += w;
  }
  result.set("random.fenwick_ns", ns_since(t0) / static_cast<double>(kPicks),
             "ns");
  result.note("micro.checksum", static_cast<double>(sink & 0xffff));
}

void cursor_layers(const Graph& g, std::size_t m, std::uint64_t seed,
                   Result& result) {
  for (const std::string& method : CrawlSpec::methods()) {
    const std::string metric = "stream.cursor." + method + ".ns_per_event";
    const bool want_frac = method == "mh" || method == "rwj";
    if (result.has(metric) && !want_frac) continue;
    CrawlSpec spec;
    spec.method = method;
    spec.budget = 1e12;
    spec.dimension = m;
    spec.seed = derive_seed(seed, 102);
    const auto cursor = spec.normalized().make_cursor(g);
    frontier::StreamEventBlock block;
    (void)cursor->next_batch(block);  // warm-up
    double ns = 0.0;
    std::uint64_t steps = 0;
    std::uint64_t edges = 0;
    const Clock::time_point start = Clock::now();
    while (seconds_since(start) < 0.3) {
      const Clock::time_point t0 = Clock::now();
      const std::size_t got = cursor->next_batch(block);
      ns += ns_since(t0);
      steps += got;
      for (const std::uint8_t f : block.flags()) {
        edges += (f & frontier::StreamEventBlock::kHasEdge) != 0 ? 1 : 0;
      }
    }
    if (!result.has(metric)) {
      result.set(metric, ns / static_cast<double>(steps), "ns");
    }
    if (want_frac) {
      result.set("stream.cursor." + method + ".edge_frac",
                 static_cast<double>(edges) / static_cast<double>(steps),
                 "ratio");
    }
  }
}

void checkpoint_layers(const Graph& g, const CrawlSpec& spec,
                       std::uint64_t events, const std::string& spool,
                       Result& result) {
  const auto engine = spec.make_engine(g);
  engine->pump(events);
  std::string bytes;
  const double save_us = median_call_us(20, 0.2, [&] {
    std::ostringstream os;
    engine->save_checkpoint(os);
    bytes = os.str();
  });
  const auto restored = spec.make_engine(g);
  const double load_us = median_call_us(20, 0.2, [&] {
    std::istringstream is(bytes);
    restored->load_checkpoint(is);
  });
  std::string text;
  const double render_us = median_call_us(200, 0.1, [&] {
    text = frontier::estimates_fields(spec, *engine);
  });
  result.check(text == frontier::estimates_fields(spec, *restored),
               "checkpoint round trip changed the estimates");
  const std::string path = spool + "/durable-probe.ckpt";
  const double durable_us = median_call_us(
      30, 0.1, [&] { frontier::durable_write_file(path, bytes); });
  result.set("stream.checkpoint.save_us", save_us, "us");
  result.set("stream.checkpoint.load_us", load_us, "us");
  result.set("stream.checkpoint.bytes", static_cast<double>(bytes.size()),
             "bytes");
  result.set("stream.estimates_render_us", render_us, "us");
  result.set("core.durable_write_us", durable_us, "us");
}

}  // namespace perfbench
