// Concrete SamplerCursors for the five walk samplers.
//
// Each cursor is the single source of truth for its sampler's stepping
// logic: the batch run()/run_from() methods in sampling/*.cpp construct a
// cursor, drain it, and copy the RNG back, so cursor and batch results are
// byte-identical by construction. Cursors take the graph plus the
// sampler's own Config struct, own their RNG by value, and serialize their
// dynamic state for checkpoint/resume (stream/checkpoint.hpp).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "graph/graph.hpp"
#include "random/weighted_tree.hpp"
#include "sampling/frontier_sampler.hpp"
#include "sampling/metropolis.hpp"
#include "sampling/multiple_rw.hpp"
#include "sampling/random_walk_with_jumps.hpp"
#include "sampling/single_rw.hpp"
#include "stream/cursor.hpp"

namespace frontier {

/// Algorithm 1, one row per query: select a walker ∝ degree, advance it
/// across a uniform edge, emit that edge.
class FrontierCursor final : public SamplerCursor {
 public:
  /// Draws the m walker starts from `config.start` (the batch run() path).
  FrontierCursor(const Graph& g, FrontierSampler::Config config, Rng rng);

  /// Same, but draws the starts from a caller-owned StartSampler (must
  /// match config.start), so repeated runs reuse one alias table instead
  /// of rebuilding it per cursor. Only used during construction — the
  /// sampler need not outlive the cursor.
  FrontierCursor(const Graph& g, FrontierSampler::Config config, Rng rng,
                 const StartSampler& start_sampler);

  /// Starts from a caller-provided frontier (the batch run_from() path).
  /// |frontier| must equal config.dimension and every start must have
  /// positive degree.
  FrontierCursor(const Graph& g, FrontierSampler::Config config,
                 std::vector<VertexId> frontier, Rng rng);

  std::size_t next_batch(StreamEventBlock& block,
                         std::size_t max_steps) override;
  [[nodiscard]] bool done() const noexcept override {
    return step_ == config_.steps;
  }
  [[nodiscard]] double cost() const noexcept override;
  [[nodiscard]] const std::vector<VertexId>& starts() const noexcept override {
    return starts_;
  }
  [[nodiscard]] const Rng& rng() const noexcept override { return rng_; }
  [[nodiscard]] CursorKind kind() const noexcept override {
    return CursorKind::kFrontier;
  }
  [[nodiscard]] const Graph& graph() const noexcept override {
    return *graph_;
  }
  void save_state(std::ostream& os) const override;
  void load_state(std::istream& is) override;
  [[nodiscard]] std::size_t active_walkers() const noexcept override {
    return frontier_.size();
  }

  /// Current walker positions (the frontier L of Algorithm 1).
  [[nodiscard]] const std::vector<VertexId>& frontier() const noexcept {
    return frontier_;
  }

 private:
  void init_selection();

  const Graph* graph_;
  FrontierSampler::Config config_;
  std::vector<VertexId> frontier_;
  std::vector<Graph::Row> rows_;  // rows_[i] = row of frontier_[i]
  std::vector<VertexId> starts_;
  WeightedTree tree_;      // kWeightedTree: Fenwick over walker degrees
  double scan_total_ = 0;  // kLinearScan: running Σ deg over the frontier
  std::uint64_t step_ = 0;
  Rng rng_;
};

/// Single random walk with optional burn-in and laziness. Burn-in queries
/// are emitted as empty events (budget spent, nothing recorded), exactly
/// matching the batch accounting.
class SingleRwCursor final : public SamplerCursor {
 public:
  SingleRwCursor(const Graph& g, SingleRandomWalk::Config config, Rng rng);

  /// Draws the start from a caller-owned StartSampler (construction only).
  SingleRwCursor(const Graph& g, SingleRandomWalk::Config config, Rng rng,
                 const StartSampler& start_sampler);

  std::size_t next_batch(StreamEventBlock& block,
                         std::size_t max_steps) override;
  [[nodiscard]] bool done() const noexcept override {
    return step_ == config_.steps && burn_done_ == config_.burn_in;
  }
  [[nodiscard]] double cost() const noexcept override;
  [[nodiscard]] const std::vector<VertexId>& starts() const noexcept override {
    return starts_;
  }
  [[nodiscard]] const Rng& rng() const noexcept override { return rng_; }
  [[nodiscard]] CursorKind kind() const noexcept override {
    return CursorKind::kSingleRw;
  }
  [[nodiscard]] const Graph& graph() const noexcept override {
    return *graph_;
  }
  void save_state(std::ostream& os) const override;
  void load_state(std::istream& is) override;

  [[nodiscard]] VertexId position() const noexcept { return u_; }

 private:
  const Graph* graph_;
  SingleRandomWalk::Config config_;
  VertexId u_ = kInvalidVertex;
  std::vector<VertexId> starts_;
  std::uint64_t burn_done_ = 0;
  std::uint64_t step_ = 0;
  Rng rng_;
};

/// m independent walkers run back to back in walker order; each walker's
/// start is drawn lazily right before its first step, preserving the batch
/// RNG interleaving (start_1, steps_1, start_2, steps_2, ...).
class MultipleRwCursor final : public SamplerCursor {
 public:
  MultipleRwCursor(const Graph& g, MultipleRandomWalks::Config config, Rng rng);

  /// Draws walker starts from a caller-owned StartSampler, which must
  /// outlive the cursor (starts are drawn lazily throughout the run).
  MultipleRwCursor(const Graph& g, MultipleRandomWalks::Config config, Rng rng,
                   const StartSampler& start_sampler);

  std::size_t next_batch(StreamEventBlock& block,
                         std::size_t max_steps) override;
  [[nodiscard]] bool done() const noexcept override {
    return walker_ == config_.num_walkers;
  }
  [[nodiscard]] double cost() const noexcept override;
  [[nodiscard]] const std::vector<VertexId>& starts() const noexcept override {
    return starts_;
  }
  [[nodiscard]] const Rng& rng() const noexcept override { return rng_; }
  [[nodiscard]] CursorKind kind() const noexcept override {
    return CursorKind::kMultipleRw;
  }
  [[nodiscard]] const Graph& graph() const noexcept override {
    return *graph_;
  }
  void save_state(std::ostream& os) const override;
  void load_state(std::istream& is) override;
  /// Walkers that still have steps to take (walkers run back to back, so
  /// at most one is mid-walk; the rest are waiting to start).
  [[nodiscard]] std::size_t active_walkers() const noexcept override {
    return config_.num_walkers - walker_;
  }

 private:
  const Graph* graph_;
  MultipleRandomWalks::Config config_;
  std::optional<StartSampler> owned_start_;  // engaged unless caller-owned
  const StartSampler* start_sampler_;
  std::vector<VertexId> starts_;
  VertexId u_ = kInvalidVertex;
  std::size_t walker_ = 0;     // walkers fully finished
  std::uint64_t step_ = 0;     // steps taken by the current walker
  Rng rng_;
};

/// Random walk with jumps under a budget: jumps cost c/hit_ratio (paid in
/// geometric retry streaks), walk steps cost 1. Jump landings emit a
/// vertex; walk steps emit an edge and a vertex.
class RwjCursor final : public SamplerCursor {
 public:
  RwjCursor(const Graph& g, RandomWalkWithJumps::Config config, Rng rng);

  /// Jumps through a caller-owned StartSampler (kUniform), which must
  /// outlive the cursor (jump landings are drawn throughout the run).
  RwjCursor(const Graph& g, RandomWalkWithJumps::Config config, Rng rng,
            const StartSampler& start_sampler);

  std::size_t next_batch(StreamEventBlock& block,
                         std::size_t max_steps) override;
  [[nodiscard]] bool done() const noexcept override { return done_; }
  [[nodiscard]] double cost() const noexcept override { return cost_; }
  [[nodiscard]] const std::vector<VertexId>& starts() const noexcept override {
    return starts_;
  }
  [[nodiscard]] const Rng& rng() const noexcept override { return rng_; }
  [[nodiscard]] CursorKind kind() const noexcept override {
    return CursorKind::kRandomWalkWithJumps;
  }
  [[nodiscard]] const Graph& graph() const noexcept override {
    return *graph_;
  }
  void save_state(std::ostream& os) const override;
  void load_state(std::istream& is) override;

 private:
  /// Draws one jump's retry streak and adds its cost to `cost`; false,
  /// with `cost` set to the budget, when the budget cannot pay it.
  [[nodiscard]] bool pay_jump(Rng& rng, double& cost) const;
  void init();

  const Graph* graph_;
  RandomWalkWithJumps::Config config_;
  std::optional<StartSampler> owned_start_;  // engaged unless caller-owned
  const StartSampler* start_sampler_;
  std::vector<VertexId> starts_;
  VertexId v_ = kInvalidVertex;
  std::optional<VertexId> pending_vertex_;  // start visit, emitted first
  double cost_ = 0.0;
  bool done_ = false;
  Rng rng_;
};

/// Metropolis–Hastings walk: every step emits the (possibly unchanged)
/// current vertex; accepted proposals additionally emit the transition
/// edge. The start vertex is emitted as the first row, matching the batch
/// record's steps+1 vertex entries.
class MetropolisCursor final : public SamplerCursor {
 public:
  MetropolisCursor(const Graph& g, MetropolisHastingsWalk::Config config,
                   Rng rng);

  /// Draws the start from a caller-owned StartSampler (construction only).
  MetropolisCursor(const Graph& g, MetropolisHastingsWalk::Config config,
                   Rng rng, const StartSampler& start_sampler);

  std::size_t next_batch(StreamEventBlock& block,
                         std::size_t max_steps) override;
  [[nodiscard]] bool done() const noexcept override {
    return step_ == config_.steps && !pending_vertex_;
  }
  [[nodiscard]] double cost() const noexcept override;
  [[nodiscard]] const std::vector<VertexId>& starts() const noexcept override {
    return starts_;
  }
  [[nodiscard]] const Rng& rng() const noexcept override { return rng_; }
  [[nodiscard]] CursorKind kind() const noexcept override {
    return CursorKind::kMetropolis;
  }
  [[nodiscard]] const Graph& graph() const noexcept override {
    return *graph_;
  }
  void save_state(std::ostream& os) const override;
  void load_state(std::istream& is) override;

  [[nodiscard]] VertexId position() const noexcept { return v_; }

 private:
  const Graph* graph_;
  MetropolisHastingsWalk::Config config_;
  VertexId v_ = kInvalidVertex;
  std::vector<VertexId> starts_;
  std::optional<VertexId> pending_vertex_;
  std::uint64_t step_ = 0;
  Rng rng_;
};

}  // namespace frontier
