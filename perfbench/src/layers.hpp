// Per-layer probes. Each times calls into one layer's public functions
// from outside, on the workload's own graph and parameters, and sets the
// layer's metrics on the Result.
#pragma once

#include <cstdint>
#include <string>

#include "bench.hpp"
#include "graph/graph.hpp"
#include "stream/spec.hpp"

namespace perfbench {

/// The benchmark's own next_batch / ingest_block loop: the same calls, in
/// the same order, as StreamEngine::pump, with a span around each. Pumps
/// at most `max_events` events; returns the number taken.
std::uint64_t traced_pump(frontier::SamplerCursor& cursor,
                          const frontier::SinkSet& sinks,
                          frontier::StreamEventBlock& block,
                          std::uint64_t max_events, Tracer& tracer);

/// Stream engine, cursor and sink rungs, plus telemetry overhead: for at
/// least `seconds` and at least 24 rounds, pumps one `chunk` through
/// traced_pump on a crawl of `spec`, then an on/off pair of chunks through
/// a second crawl's StreamEngine, with CrawlInstrumentation attached for
/// one and detached for the other, alternating which goes first. Returns
/// the traced loop's slowdown against the detached pump, in percent.
double crawl_layers(const frontier::Graph& g, const frontier::CrawlSpec& spec,
                    std::uint64_t chunk, double seconds, Tracer& tracer,
                    Result& result);

/// graph.neighbor_load_ns, random.draw_ns and random.fenwick_ns (a
/// WeightedTree of `m` walkers).
void micro_layers(const frontier::Graph& g, std::size_t m, std::uint64_t seed,
                  Result& result);

/// stream.cursor.<method>.ns_per_event for every method not measured yet,
/// and the mh/rwj edge fractions.
void cursor_layers(const frontier::Graph& g, std::size_t m,
                   std::uint64_t seed, Result& result);

/// Checkpoint save/load/size and estimates rendering for a crawl of
/// `spec` pumped `events` events, and durable_write_file of a
/// checkpoint-sized payload into `spool`.
void checkpoint_layers(const frontier::Graph& g,
                       const frontier::CrawlSpec& spec, std::uint64_t events,
                       const std::string& spool, Result& result);

}  // namespace perfbench
