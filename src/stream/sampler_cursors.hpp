// Concrete SamplerCursors for the five walk samplers.
//
// Each cursor is its sampler: the walk process of one paper method, with
// the method's Config beside it. The batch samplers of sampling/ are
// WalkSampler<Cursor> (sampling/walk_sampler.hpp), which builds a cursor,
// drains it and copies the RNG back, so cursor and batch results are
// byte-identical by construction. Cursors own their RNG by value and
// serialize their dynamic state for checkpoint/resume
// (stream/checkpoint.hpp).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "graph/graph.hpp"
#include "random/weighted_tree.hpp"
#include "sampling/budget.hpp"
#include "sampling/walk.hpp"
#include "stream/cursor.hpp"

namespace frontier {

/// Algorithm 1, one row per query: select a walker ∝ degree, advance it
/// across a uniform edge, emit that edge.
///
/// Walker selection is the per-step hot spot. Two strategies are provided:
///   * kWeightedTree (default): Fenwick tree keyed by walker, O(log m)/step;
///   * kLinearScan: cumulative scan over the m degrees, O(m)/step — simpler,
///     faster for very small m, kept for the ablation benchmark.
class FrontierCursor final : public SamplerCursor {
 public:
  enum class Selection : std::uint8_t { kWeightedTree, kLinearScan };

  struct Config {
    std::size_t dimension = 10;  ///< m, the number of dependent walkers
    std::uint64_t steps = 0;     ///< total steps n (B - m*c)
    double jump_cost = 1.0;      ///< c, charged once per walker at init
    StartMode start = StartMode::kUniform;
    Selection selection = Selection::kWeightedTree;
    /// Throws if this config cannot run on g.
    void validate(const Graph& g) const;
    [[nodiscard]] RecordReserve reserve() const noexcept {
      return {.edges = steps};
    }
  };

  /// Draws the m walker starts from `config.start`.
  FrontierCursor(const Graph& g, Config config, Rng rng);

  /// Starts from a caller-provided frontier, as Figures 6 and 9 do to share
  /// starting vertices between FS and MultipleRW. |frontier| must equal
  /// config.dimension and every start must have positive degree, else
  /// std::invalid_argument.
  FrontierCursor(const Graph& g, Config config, std::vector<VertexId> frontier,
                 Rng rng);

  std::size_t next_batch(StreamEventBlock& block,
                         std::size_t max_steps) override;
  [[nodiscard]] bool done() const noexcept override {
    return step_ == config_.steps;
  }
  [[nodiscard]] double cost() const noexcept override;
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

  Config config_;
  std::vector<VertexId> frontier_;
  std::vector<Graph::Row> rows_;  // rows_[i] = row of frontier_[i]
  WeightedTree tree_;      // kWeightedTree: Fenwick over walker degrees
  double scan_total_ = 0;  // kLinearScan: running Σ deg over the frontier
  std::uint64_t step_ = 0;
};

/// Single random walk with optional burn-in and laziness. Burn-in queries
/// are emitted as empty events (budget spent, nothing recorded), exactly
/// matching the batch accounting.
class SingleRwCursor final : public SamplerCursor {
 public:
  struct Config {
    std::uint64_t steps = 0;           ///< B walk steps
    StartMode start = StartMode::kUniform;
    std::optional<VertexId> fixed_start = std::nullopt;  ///< overrides `start` if set
    /// Burn-in (Section 4.3): `burn_in` additional initial walk queries are
    /// paid for and executed but their samples discarded — the classic
    /// MCMC remedy for a non-stationary start.
    std::uint64_t burn_in = 0;
    /// Laziness: probability that a budgeted query stays put instead of
    /// stepping (a lazy walk relaxes the non-bipartite requirement of
    /// Section 4). Stays consume budget but record no edge (a stay is not
    /// an element of E). 0 = classic walk.
    double laziness = 0.0;
    /// Throws if this config cannot run on g.
    void validate(const Graph& g) const;
    [[nodiscard]] RecordReserve reserve() const noexcept {
      return {.edges = steps};
    }
  };

  SingleRwCursor(const Graph& g, Config config, Rng rng);

  std::size_t next_batch(StreamEventBlock& block,
                         std::size_t max_steps) override;
  [[nodiscard]] bool done() const noexcept override {
    return step_ == config_.steps && burn_done_ == config_.burn_in;
  }
  [[nodiscard]] double cost() const noexcept override;
  void save_state(std::ostream& os) const override;
  void load_state(std::istream& is) override;

  [[nodiscard]] VertexId position() const noexcept { return u_; }

 private:
  Config config_;
  VertexId u_ = kInvalidVertex;
  std::uint64_t burn_done_ = 0;
  std::uint64_t step_ = 0;
};

/// m independent walkers run back to back in walker order; each walker's
/// start is drawn lazily right before its first step, preserving the batch
/// RNG interleaving (start_1, steps_1, start_2, steps_2, ...).
class MultipleRwCursor final : public SamplerCursor {
 public:
  struct Config {
    std::size_t num_walkers = 10;        ///< m
    std::uint64_t steps_per_walker = 0;  ///< floor(B/m - c)
    double jump_cost = 1.0;              ///< c, charged once per walker
    StartMode start = StartMode::kUniform;
    /// Throws if this config cannot run on g.
    void validate(const Graph& g) const;
    [[nodiscard]] RecordReserve reserve() const noexcept {
      return {.edges = num_walkers * steps_per_walker};
    }
  };

  MultipleRwCursor(const Graph& g, Config config, Rng rng);

  std::size_t next_batch(StreamEventBlock& block,
                         std::size_t max_steps) override;
  [[nodiscard]] bool done() const noexcept override {
    return walker_ == config_.num_walkers;
  }
  [[nodiscard]] double cost() const noexcept override;
  void save_state(std::ostream& os) const override;
  void load_state(std::istream& is) override;
  /// Walkers that still have steps to take (walkers run back to back, so
  /// at most one is mid-walk; the rest are waiting to start).
  [[nodiscard]] std::size_t active_walkers() const noexcept override {
    return config_.num_walkers - walker_;
  }

 private:
  Config config_;
  StartSampler start_;
  VertexId u_ = kInvalidVertex;
  std::size_t walker_ = 0;     // walkers fully finished
  std::uint64_t step_ = 0;     // steps taken by the current walker
};

/// Random walk with jumps under a budget: jumps cost c/hit_ratio (paid in
/// geometric retry streaks), walk steps cost 1. Jump landings emit a
/// vertex; walk steps emit an edge and a vertex.
class RwjCursor final : public SamplerCursor {
 public:
  struct Config {
    double budget = 0.0;          ///< B; steps cost 1, jumps cost c/hit
    double jump_probability = 0.15;
    CostModel cost{};             ///< jump cost model
    /// Throws if this config cannot run on g, or could never end.
    void validate(const Graph& g) const;
    /// Walk steps cost 1 each, so the budget bounds the edge count; every
    /// step and jump landing records at most one vertex.
    [[nodiscard]] RecordReserve reserve() const noexcept;
  };

  RwjCursor(const Graph& g, Config config, Rng rng);

  std::size_t next_batch(StreamEventBlock& block,
                         std::size_t max_steps) override;
  [[nodiscard]] bool done() const noexcept override { return done_; }
  [[nodiscard]] double cost() const noexcept override { return cost_; }
  void save_state(std::ostream& os) const override;
  void load_state(std::istream& is) override;

 private:
  /// Draws one jump's retry streak and adds its cost to `cost`; false,
  /// with `cost` set to the budget, when the budget cannot pay it.
  [[nodiscard]] bool pay_jump(Rng& rng, double& cost) const;

  Config config_;
  StartSampler start_;  // uniform: jump landings
  VertexId v_ = kInvalidVertex;
  std::optional<VertexId> pending_vertex_;  // start visit, emitted first
  double cost_ = 0.0;
  bool done_ = false;
};

/// Metropolis–Hastings walk: every step emits the (possibly unchanged)
/// current vertex; accepted proposals additionally emit the transition
/// edge. The start vertex is emitted as the first row, matching the batch
/// record's steps+1 vertex entries.
class MetropolisCursor final : public SamplerCursor {
 public:
  struct Config {
    std::uint64_t steps = 0;
    StartMode start = StartMode::kUniform;
    std::optional<VertexId> fixed_start = std::nullopt;
    /// Throws if this config cannot run on g.
    void validate(const Graph& g) const;
    /// Every proposal may be accepted, so `steps` bounds the edge count.
    [[nodiscard]] RecordReserve reserve() const noexcept {
      return {.edges = steps, .vertices = steps + 1};
    }
  };

  MetropolisCursor(const Graph& g, Config config, Rng rng);

  std::size_t next_batch(StreamEventBlock& block,
                         std::size_t max_steps) override;
  [[nodiscard]] bool done() const noexcept override {
    return step_ == config_.steps && !pending_vertex_;
  }
  [[nodiscard]] double cost() const noexcept override;
  void save_state(std::ostream& os) const override;
  void load_state(std::istream& is) override;

  [[nodiscard]] VertexId position() const noexcept { return v_; }

 private:
  Config config_;
  VertexId v_ = kInvalidVertex;
  std::optional<VertexId> pending_vertex_;
  std::uint64_t step_ = 0;
};

}  // namespace frontier
