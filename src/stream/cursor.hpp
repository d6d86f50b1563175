// SamplerCursor — the sampling process as a resumable pull iterator.
//
// Batch samplers (sampling/) materialize their whole SampleRecord before
// any estimator runs, so memory grows linearly with the budget B. A cursor
// instead hands the same process out in blocks: each next_batch() call
// performs up to K budgeted queries of the crawled graph and writes one
// row per query recording what it observed (an edge, a vertex, or nothing
// — e.g. a lazy stay or a failed jump). This mirrors how the paper's
// crawlers actually operate (Section 2: samples arrive one API query at a
// time) and is the substrate for online estimator sinks
// (stream/sinks.hpp) and checkpoint/resume (stream/checkpoint.hpp).
//
// Contract: the RNG draw sequence, the emitted rows, the starts and the
// cost do not depend on how the queries are split into blocks. A batch
// sampler is a cursor drained to exhaustion (WalkSampler,
// sampling/walk_sampler.hpp), so batch and streaming results are
// byte-identical by construction.
// tests/test_stream_batch.cpp pins every cursor configuration to golden
// CRC-64 digests for K in {1, 7, 64, 4096}.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <limits>
#include <vector>

#include "core/types.hpp"
#include "random/rng.hpp"
#include "sampling/walk.hpp"
#include "stream/block.hpp"

namespace frontier {

/// Identifies the concrete cursor type inside a checkpoint header.
enum class CursorKind : std::uint32_t {
  kFrontier = 1,
  kSingleRw = 2,
  kMultipleRw = 3,
  kRandomWalkWithJumps = 4,
  kMetropolis = 5,
};

/// Abstract block-stepping sampler. Concrete cursors live in
/// stream/sampler_cursors.hpp. The state every cursor has (its graph, its
/// RNG, its walkers' starts and its kind) lives here; the RNG is owned by
/// value so that (cursor state, sink states) is a complete, serializable
/// description of an in-flight crawl.
class SamplerCursor {
 public:
  virtual ~SamplerCursor() = default;

  /// Clears `block`, advances up to min(max_steps, block.capacity())
  /// budgeted queries, appending one row per query, and returns the number
  /// taken (0 iff the cursor is exhausted or max_steps == 0). Every edge
  /// row carries deg(v) and the CSR slot of (u, v) in graph(), and the
  /// fill starts with block.clear(graph()), so block.slots_index(graph())
  /// holds. The cursor state, RNG stream, rows and cost are independent
  /// of how a crawl is split into calls — batching amortizes dispatch, it
  /// never reorders draws.
  virtual std::size_t next_batch(
      StreamEventBlock& block,
      std::size_t max_steps = std::numeric_limits<std::size_t>::max()) = 0;

  /// True once next_batch has returned (or would return) 0.
  [[nodiscard]] virtual bool done() const noexcept = 0;

  /// Budget consumed so far; after exhaustion this equals the batch
  /// run()'s SampleRecord::cost exactly.
  [[nodiscard]] virtual double cost() const noexcept = 0;

  /// Initial vertex of each walker, in the order they were drawn.
  [[nodiscard]] const std::vector<VertexId>& starts() const noexcept {
    return starts_;
  }

  /// The cursor's RNG. A batch run copies it back into the caller's
  /// generator after draining, so the caller's stream continues where the
  /// run's draws ended.
  [[nodiscard]] const Rng& rng() const noexcept { return rng_; }

  [[nodiscard]] CursorKind kind() const noexcept { return kind_; }

  /// Number of concurrently maintained walkers: the live frontier size for
  /// FS, the number of not-yet-exhausted walkers for MultipleRW, 1 for the
  /// single-walker cursors. Telemetry-only — reading it never advances the
  /// crawl or touches the RNG.
  [[nodiscard]] virtual std::size_t active_walkers() const noexcept {
    return 1;
  }

  /// The graph being crawled. Checkpoints fingerprint it (|V| and volume)
  /// so a resume against a different graph fails loudly.
  [[nodiscard]] const Graph& graph() const noexcept { return *graph_; }

  /// Serializes / restores the dynamic state (positions, counters, RNG).
  /// The static configuration (graph, Config) is NOT stored: the caller
  /// reconstructs the cursor from the same config and then load_state()s
  /// into it. A configuration fingerprint is checked on load and a
  /// mismatch throws IoError.
  virtual void save_state(std::ostream& os) const = 0;
  virtual void load_state(std::istream& is) = 0;

 protected:
  SamplerCursor(CursorKind kind, const Graph& g, Rng rng) noexcept
      : graph_(&g), rng_(rng), kind_(kind) {}

  const Graph* graph_;
  Rng rng_;
  std::vector<VertexId> starts_;

 private:
  CursorKind kind_;
};

/// Capacity a drain reserves in the record up front: bounds on the edge
/// and vertex counts of one run, from the sampler's Config::reserve().
struct RecordReserve {
  std::uint64_t edges = 0;
  std::uint64_t vertices = 0;
};

/// Runs a cursor to exhaustion through arena.block and assembles the
/// batch-equivalent SampleRecord in arena.record (cleared first, capacity
/// kept). `reserve` pre-sizes the record's vectors up front so the drain
/// never regrows them. Returns arena.record.
SampleRecord& drain_cursor_into(SamplerCursor& cursor, SampleArena& arena,
                                RecordReserve reserve = {});

/// Convenience wrapper over drain_cursor_into with a throwaway arena.
[[nodiscard]] SampleRecord drain_cursor(SamplerCursor& cursor,
                                        RecordReserve reserve = {});

}  // namespace frontier
