// WalkSampler — a walk cursor drained to exhaustion as one batch sample.
//
// Each walk method is one process, and its cursor (stream/sampler_cursors
// .hpp) is that process. A WalkSampler holds a graph and the cursor's
// Config; every run builds a fresh cursor on the caller's RNG, drains it
// into a SampleRecord and copies the cursor's RNG back, so batch and
// streaming results are byte-identical by construction. The samplers'
// public names (FrontierSampler, SingleRandomWalk, ...) are aliases of it.
#pragma once

#include <utility>

#include "graph/graph.hpp"
#include "sampling/walk.hpp"
#include "stream/cursor.hpp"

namespace frontier {

template <typename Cursor>
class WalkSampler {
 public:
  using Config = typename Cursor::Config;

  /// Throws what config.validate(g) throws, and std::invalid_argument when
  /// g has no edge for a walk to take.
  WalkSampler(const Graph& g, Config config) : graph_(&g), config_(config) {
    (void)StartSampler(g, StartMode::kUniform);  // rejects edgeless graphs
    config_.validate(g);
  }

  /// One independent run.
  [[nodiscard]] SampleRecord run(Rng& rng) const {
    SampleArena arena;
    run_into(arena, rng);
    return std::move(arena.record);
  }

  /// Like run(), but drains into the caller's reusable arena and returns
  /// arena.record — the replication hot path, allocation-free once the
  /// arena has warmed up. Identical output and RNG stream to run().
  const SampleRecord& run_into(SampleArena& arena, Rng& rng) const {
    Cursor cursor(*graph_, config_, rng);
    drain_cursor_into(cursor, arena, config_.reserve());
    rng = cursor.rng();
    return arena.record;
  }

  [[nodiscard]] const Config& config() const noexcept { return config_; }
  [[nodiscard]] const Graph& graph() const noexcept { return *graph_; }

 private:
  const Graph* graph_;
  Config config_;
};

}  // namespace frontier
