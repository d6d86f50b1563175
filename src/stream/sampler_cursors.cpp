#include "stream/sampler_cursors.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>
#include <string>

#include "stream/serialize.hpp"

namespace frontier {

namespace {

using streamio::expect_pod;
using streamio::read_pod;
using streamio::read_vector;
using streamio::write_pod;
using streamio::write_vector;

void write_rng(std::ostream& os, const Rng& rng) {
  write_pod(os, rng.state());
}

void read_rng(std::istream& is, Rng& rng) {
  rng.set_state(read_pod<std::array<std::uint64_t, 4>>(is));
}

// A restored position is about to be dereferenced against the CSR arrays;
// a corrupt checkpoint must surface as IoError, not an out-of-bounds read.
void check_position(const Graph& g, VertexId v, const char* what) {
  if (v >= g.num_vertices() || g.degree(v) == 0) {
    throw IoError(std::string("stream checkpoint: corrupt position: ") + what);
  }
}

// Starts are reported, never stepped from, but a restored cursor must
// still describe a crawl of this graph: the start count its process
// implies (`count_ok`, judged by each cursor) and every start a vertex
// of the graph.
void check_starts(const Graph& g, const std::vector<VertexId>& starts,
                  bool count_ok, const char* what) {
  if (!count_ok) {
    throw IoError(std::string(what) + ": corrupt checkpoint (starts size)");
  }
  for (const VertexId s : starts) {
    if (s >= g.num_vertices()) {
      throw IoError(std::string(what) + ": corrupt checkpoint (start)");
    }
  }
}

void write_optional_vertex(std::ostream& os,
                           const std::optional<VertexId>& v) {
  write_pod<std::uint8_t>(os, v.has_value() ? 1 : 0);
  write_pod<VertexId>(os, v.value_or(kInvalidVertex));
}

[[nodiscard]] std::optional<VertexId> read_optional_vertex(std::istream& is) {
  const auto has = read_pod<std::uint8_t>(is);
  const auto v = read_pod<VertexId>(is);
  return has ? std::optional<VertexId>(v) : std::nullopt;
}

// A fixed start must be a vertex of g that the walk can leave.
void check_fixed_start(const Graph& g, const std::optional<VertexId>& start,
                       const char* who) {
  if (!start) return;
  if (*start >= g.num_vertices()) {
    throw std::out_of_range(std::string(who) + ": fixed_start out of range");
  }
  if (g.degree(*start) == 0) {
    throw std::invalid_argument(std::string(who) +
                                ": fixed_start is isolated");
  }
}

}  // namespace

// ---------------------------------------------------------------- Frontier

void FrontierCursor::Config::validate(const Graph& /*g*/) const {
  if (dimension == 0) {
    throw std::invalid_argument("FrontierSampler: dimension m >= 1");
  }
}

FrontierCursor::FrontierCursor(const Graph& g, Config config, Rng rng)
    : SamplerCursor(CursorKind::kFrontier, g, rng), config_(config) {
  config_.validate(g);
  const StartSampler start(g, config_.start);
  frontier_.resize(config_.dimension);
  for (auto& v : frontier_) v = start.sample(rng_);
  starts_ = frontier_;
  init_selection();
}

FrontierCursor::FrontierCursor(const Graph& g, Config config,
                               std::vector<VertexId> frontier, Rng rng)
    : SamplerCursor(CursorKind::kFrontier, g, rng),
      config_(config),
      frontier_(std::move(frontier)) {
  config_.validate(g);
  if (frontier_.size() != config_.dimension) {
    throw std::invalid_argument(
        "FrontierCursor: |frontier| must equal dimension");
  }
  for (VertexId v : frontier_) {
    if (v >= g.num_vertices() || g.degree(v) == 0) {
      throw std::invalid_argument(
          "FrontierCursor: start vertex invalid or isolated");
    }
  }
  starts_ = frontier_;
  init_selection();
}

void FrontierCursor::init_selection() {
  const Graph& g = *graph_;
  rows_.resize(frontier_.size());
  for (std::size_t i = 0; i < frontier_.size(); ++i) {
    rows_[i] = g.row(frontier_[i]);
  }
  if (config_.selection == Selection::kWeightedTree) {
    std::vector<double> weights(rows_.size());
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      weights[i] = static_cast<double>(rows_[i].degree);
    }
    tree_ = WeightedTree{std::span<const double>(weights)};
  } else {
    scan_total_ = 0.0;
    for (const Graph::Row& r : rows_) {
      scan_total_ += static_cast<double>(r.degree);
    }
  }
}

std::size_t FrontierCursor::next_batch(StreamEventBlock& block,
                                       std::size_t max_steps) {
  block.clear(*graph_);
  const std::uint64_t remaining = config_.steps - step_;
  const std::size_t want = static_cast<std::size_t>(std::min<std::uint64_t>(
      std::min(max_steps, block.capacity()), remaining));
  if (want == 0) return 0;
  const Graph& g = *graph_;
  const std::span<const Hop> hops = g.hop_table();
  Rng rng = rng_;  // hot state in locals; written back after the loop
  VertexId* frontier = frontier_.data();
  Graph::Row* rows = rows_.data();
  const std::size_t m = config_.dimension;
  // One step of walker i: a uniform slot of its row, the vertex there and
  // that vertex's row, read side by side. The moved walker's next step
  // will read the new row's slot and hop entry; it is picked again ~Σdeg /
  // deg steps later, so prefetching them now makes that step a cache hit.
  // Hints only: no value or random draw changes.
  const auto step = [&](std::size_t i) {
    const VertexId u = frontier[i];
    const Graph::Row r = rows[i];
    const EdgeIndex s = r.begin + uniform_index(rng, r.degree);  // line 5
    const VertexId v = g.target(s);
    const Graph::Row next = g.hop(hops, s);
    g.prefetch_row(hops, next);
    block.push_edge(u, v, next.degree, s);  // line 6
    frontier[i] = v;
    rows[i] = next;
    return r.degree;
  };
  if (config_.selection == Selection::kWeightedTree) {
    for (std::size_t k = 0; k < want; ++k) {
      const std::size_t i = tree_.sample(rng);  // line 4: walker ∝ degree
      step(i);
      tree_.set(i, static_cast<double>(rows[i].degree));
    }
  } else {
    // Linear-scan selection: draw a threshold in [0, Σ deg) and walk the
    // frontier until the cumulative degree passes it.
    double scan_total = scan_total_;
    for (std::size_t k = 0; k < want; ++k) {
      const double target = uniform01(rng) * scan_total;
      double acc = 0.0;
      std::size_t i = m - 1;
      for (std::size_t j = 0; j < m; ++j) {
        acc += static_cast<double>(rows[j].degree);
        if (target < acc) {
          i = j;
          break;
        }
      }
      const std::uint32_t du = step(i);
      scan_total += static_cast<double>(rows[i].degree) -
                    static_cast<double>(du);
    }
    scan_total_ = scan_total;
  }
  step_ += want;
  rng_ = rng;
  return want;
}

double FrontierCursor::cost() const noexcept {
  return static_cast<double>(step_) +
         static_cast<double>(config_.dimension) * config_.jump_cost;
}

void FrontierCursor::save_state(std::ostream& os) const {
  write_pod<std::uint64_t>(os, config_.dimension);
  write_pod<std::uint64_t>(os, config_.steps);
  write_pod<double>(os, config_.jump_cost);
  write_pod<std::uint8_t>(os, static_cast<std::uint8_t>(config_.start));
  write_pod<std::uint8_t>(os, static_cast<std::uint8_t>(config_.selection));
  write_pod<std::uint64_t>(os, step_);
  write_vector(os, frontier_);
  write_vector(os, starts_);
  write_pod<double>(os, scan_total_);
  write_rng(os, rng_);
}

void FrontierCursor::load_state(std::istream& is) {
  expect_pod<std::uint64_t>(is, config_.dimension, "dimension");
  expect_pod<std::uint64_t>(is, config_.steps, "steps");
  expect_pod<double>(is, config_.jump_cost, "jump_cost");
  expect_pod<std::uint8_t>(is, static_cast<std::uint8_t>(config_.start),
                           "start mode");
  expect_pod<std::uint8_t>(is, static_cast<std::uint8_t>(config_.selection),
                           "selection");
  step_ = read_pod<std::uint64_t>(is);
  frontier_ = read_vector<VertexId>(is, "FrontierCursor frontier");
  starts_ = read_vector<VertexId>(is, "FrontierCursor starts");
  const double scan_total = read_pod<double>(is);
  read_rng(is, rng_);
  if (frontier_.size() != config_.dimension || step_ > config_.steps) {
    throw IoError("FrontierCursor: corrupt checkpoint (frontier size)");
  }
  check_starts(*graph_, starts_, starts_.size() == config_.dimension,
               "FrontierCursor");
  for (VertexId v : frontier_) check_position(*graph_, v, "frontier");
  // The Fenwick tree is a pure function of the frontier degrees (integer
  // weights, so the rebuild is bit-exact); the scan total is restored
  // verbatim to preserve its accumulated value.
  init_selection();
  scan_total_ = scan_total;
}

// ---------------------------------------------------------------- SingleRW

void SingleRwCursor::Config::validate(const Graph& g) const {
  check_fixed_start(g, fixed_start, "SingleRandomWalk");
  if (laziness < 0.0 || laziness >= 1.0) {
    throw std::invalid_argument("SingleRandomWalk: laziness in [0, 1)");
  }
}

SingleRwCursor::SingleRwCursor(const Graph& g, Config config, Rng rng)
    : SamplerCursor(CursorKind::kSingleRw, g, rng), config_(config) {
  config_.validate(g);
  u_ = config_.fixed_start ? *config_.fixed_start
                           : StartSampler(g, config_.start).sample(rng_);
  starts_.push_back(u_);
}

std::size_t SingleRwCursor::next_batch(StreamEventBlock& block,
                                       std::size_t max_steps) {
  block.clear(*graph_);
  const std::size_t want = std::min(max_steps, block.capacity());
  const Graph& g = *graph_;
  const std::span<const Hop> hops = g.hop_table();
  const double laziness = config_.laziness;
  Rng rng = rng_;
  VertexId u = u_;
  Graph::Row r = g.row(u);
  std::size_t taken = 0;
  // One move from (u, r): the slot taken, its vertex and that vertex's row.
  const auto move = [&] {
    const EdgeIndex s = r.begin + uniform_index(rng, r.degree);
    u = g.target(s);
    r = g.hop(hops, s);
    return s;
  };
  // Burn-in: budget spent, nothing recorded.
  while (burn_done_ < config_.burn_in && taken < want) {
    if (laziness > 0.0 && bernoulli(rng, laziness)) {
      // lazy stay
    } else {
      move();
    }
    block.push_empty();
    ++burn_done_;
    ++taken;
  }
  if (laziness == 0.0) {
    // Fast path: every step moves and records an edge.
    const std::uint64_t n = std::min<std::uint64_t>(
        want - taken, config_.steps - step_);
    for (std::uint64_t k = 0; k < n; ++k) {
      const VertexId from = u;
      const EdgeIndex s = move();
      block.push_edge(from, u, r.degree, s);
    }
    step_ += n;
    taken += static_cast<std::size_t>(n);
  } else {
    while (step_ < config_.steps && taken < want) {
      if (bernoulli(rng, laziness)) {
        block.push_empty();
      } else {
        const VertexId from = u;
        const EdgeIndex s = move();
        block.push_edge(from, u, r.degree, s);
      }
      ++step_;
      ++taken;
    }
  }
  u_ = u;
  rng_ = rng;
  return taken;
}

double SingleRwCursor::cost() const noexcept {
  return static_cast<double>(burn_done_) + static_cast<double>(step_) + 1.0;
}

void SingleRwCursor::save_state(std::ostream& os) const {
  write_pod<std::uint64_t>(os, config_.steps);
  write_pod<std::uint64_t>(os, config_.burn_in);
  write_pod<double>(os, config_.laziness);
  write_pod<std::uint8_t>(os, static_cast<std::uint8_t>(config_.start));
  write_optional_vertex(os, config_.fixed_start);
  write_pod<VertexId>(os, u_);
  write_pod<std::uint64_t>(os, burn_done_);
  write_pod<std::uint64_t>(os, step_);
  write_vector(os, starts_);
  write_rng(os, rng_);
}

void SingleRwCursor::load_state(std::istream& is) {
  expect_pod<std::uint64_t>(is, config_.steps, "steps");
  expect_pod<std::uint64_t>(is, config_.burn_in, "burn_in");
  expect_pod<double>(is, config_.laziness, "laziness");
  expect_pod<std::uint8_t>(is, static_cast<std::uint8_t>(config_.start),
                           "start mode");
  const auto fixed = read_optional_vertex(is);
  if (fixed != config_.fixed_start) {
    throw IoError("stream checkpoint: configuration mismatch: fixed_start");
  }
  u_ = read_pod<VertexId>(is);
  burn_done_ = read_pod<std::uint64_t>(is);
  step_ = read_pod<std::uint64_t>(is);
  starts_ = read_vector<VertexId>(is, "SingleRwCursor starts");
  read_rng(is, rng_);
  check_position(*graph_, u_, "walker");
  if (burn_done_ > config_.burn_in || step_ > config_.steps) {
    throw IoError("SingleRwCursor: corrupt checkpoint (counters)");
  }
  check_starts(*graph_, starts_, starts_.size() == 1, "SingleRwCursor");
}

// -------------------------------------------------------------- MultipleRW

void MultipleRwCursor::Config::validate(const Graph& /*g*/) const {
  if (num_walkers == 0) {
    throw std::invalid_argument("MultipleRandomWalks: num_walkers >= 1");
  }
}

MultipleRwCursor::MultipleRwCursor(const Graph& g, Config config, Rng rng)
    : SamplerCursor(CursorKind::kMultipleRw, g, rng),
      config_(config),
      start_(g, config.start) {
  config_.validate(g);
  starts_.reserve(config_.num_walkers);
}

std::size_t MultipleRwCursor::next_batch(StreamEventBlock& block,
                                         std::size_t max_steps) {
  block.clear(*graph_);
  const std::size_t want = std::min(max_steps, block.capacity());
  const Graph& g = *graph_;
  const std::span<const Hop> hops = g.hop_table();
  Rng rng = rng_;
  std::size_t taken = 0;
  while (taken < want && walker_ < config_.num_walkers) {
    if (starts_.size() == walker_) {
      // Current walker not yet placed: this query is its start jump.
      u_ = start_.sample(rng);
      starts_.push_back(u_);
      block.push_empty();
      ++taken;
      if (config_.steps_per_walker == 0) ++walker_;
      continue;
    }
    // Advance the current walker as far as the block and its step budget
    // allow in one tight loop.
    const std::uint64_t n = std::min<std::uint64_t>(
        want - taken, config_.steps_per_walker - step_);
    VertexId u = u_;
    Graph::Row r = g.row(u);
    for (std::uint64_t k = 0; k < n; ++k) {
      const EdgeIndex s = r.begin + uniform_index(rng, r.degree);
      const VertexId v = g.target(s);
      r = g.hop(hops, s);
      block.push_edge(u, v, r.degree, s);
      u = v;
    }
    u_ = u;
    step_ += n;
    taken += static_cast<std::size_t>(n);
    if (step_ == config_.steps_per_walker) {
      ++walker_;
      step_ = 0;
    }
  }
  rng_ = rng;
  return taken;
}

double MultipleRwCursor::cost() const noexcept {
  if (walker_ == config_.num_walkers) {
    // Finished: the exact batch expression, m * (steps + c).
    return static_cast<double>(config_.num_walkers) *
           (static_cast<double>(config_.steps_per_walker) + config_.jump_cost);
  }
  const std::uint64_t steps_done =
      static_cast<std::uint64_t>(walker_) * config_.steps_per_walker + step_;
  return static_cast<double>(starts_.size()) * config_.jump_cost +
         static_cast<double>(steps_done);
}

void MultipleRwCursor::save_state(std::ostream& os) const {
  write_pod<std::uint64_t>(os, config_.num_walkers);
  write_pod<std::uint64_t>(os, config_.steps_per_walker);
  write_pod<double>(os, config_.jump_cost);
  write_pod<std::uint8_t>(os, static_cast<std::uint8_t>(config_.start));
  write_vector(os, starts_);
  write_pod<VertexId>(os, u_);
  write_pod<std::uint64_t>(os, walker_);
  write_pod<std::uint64_t>(os, step_);
  write_rng(os, rng_);
}

void MultipleRwCursor::load_state(std::istream& is) {
  expect_pod<std::uint64_t>(is, config_.num_walkers, "num_walkers");
  expect_pod<std::uint64_t>(is, config_.steps_per_walker, "steps_per_walker");
  expect_pod<double>(is, config_.jump_cost, "jump_cost");
  expect_pod<std::uint8_t>(is, static_cast<std::uint8_t>(config_.start),
                           "start mode");
  starts_ = read_vector<VertexId>(is, "MultipleRwCursor starts");
  u_ = read_pod<VertexId>(is);
  walker_ = read_pod<std::uint64_t>(is);
  step_ = read_pod<std::uint64_t>(is);
  read_rng(is, rng_);
  // Walkers run back to back: every finished walker has a start, and the
  // current one has one too once placed, with step_ < steps_per_walker.
  // An unplaced walker, as after the last one finishes, is at step 0.
  const bool placed = starts_.size() == walker_ + 1;
  if (walker_ > config_.num_walkers ||
      starts_.size() > config_.num_walkers ||
      (!placed && starts_.size() != walker_) ||
      (placed ? step_ >= config_.steps_per_walker : step_ != 0)) {
    throw IoError("MultipleRwCursor: corrupt checkpoint (counters)");
  }
  // The start count was checked with the counters above.
  check_starts(*graph_, starts_, /*count_ok=*/true, "MultipleRwCursor");
  // A placed walker's u_ is dereferenced on the next step.
  if (placed) check_position(*graph_, u_, "walker");
}

// --------------------------------------------------------------------- RWJ

void RwjCursor::Config::validate(const Graph& /*g*/) const {
  if (!(jump_probability >= 0.0 && jump_probability <= 1.0)) {
    throw std::invalid_argument("RandomWalkWithJumps: jump_probability");
  }
  if (!(cost.hit_ratio > 0.0 && cost.hit_ratio <= 1.0)) {
    throw std::invalid_argument("RandomWalkWithJumps: hit_ratio in (0,1]");
  }
  // The crawl ends only when a query's cost overruns the budget: a budget
  // no sum exceeds, or jumps that cost nothing, would never end it.
  if (!std::isfinite(budget)) {
    throw std::invalid_argument("RandomWalkWithJumps: budget must be finite");
  }
  if (!(std::isfinite(cost.jump_cost) && cost.jump_cost > 0.0)) {
    throw std::invalid_argument(
        "RandomWalkWithJumps: jump_cost must be finite and > 0");
  }
}

RecordReserve RwjCursor::Config::reserve() const noexcept {
  // Clamp before the float->int cast: negative budgets (legal, empty run)
  // and astronomical ones would be UB to cast, and a reserve hint has no
  // business beyond 2^32 entries anyway — the drain grows if truly needed.
  const auto steps =
      static_cast<std::uint64_t>(std::clamp(budget, 0.0, 4294967296.0));
  return {.edges = steps, .vertices = steps + 1};
}

RwjCursor::RwjCursor(const Graph& g, Config config, Rng rng)
    : SamplerCursor(CursorKind::kRandomWalkWithJumps, g, rng),
      config_(config),
      start_(g, StartMode::kUniform) {
  config_.validate(g);
  // Initial placement is one paid jump.
  if (!pay_jump(rng_, cost_)) {
    done_ = true;
    return;
  }
  v_ = start_.sample(rng_);
  starts_.push_back(v_);
  pending_vertex_ = v_;
}

bool RwjCursor::pay_jump(Rng& rng, double& cost) const {
  const std::uint64_t misses = geometric_failures(rng, config_.cost.hit_ratio);
  const double streak =
      static_cast<double>(misses + 1) * config_.cost.jump_cost;
  if (cost + streak > config_.budget) {
    cost = config_.budget;
    return false;
  }
  cost += streak;
  return true;
}

std::size_t RwjCursor::next_batch(StreamEventBlock& block,
                                  std::size_t max_steps) {
  block.clear(*graph_);
  const std::size_t want = std::min(max_steps, block.capacity());
  std::size_t taken = 0;
  if (want != 0 && pending_vertex_) {
    block.push_vertex(*pending_vertex_);
    pending_vertex_.reset();
    ++taken;
  }
  if (done_) return taken;
  const Graph& g = *graph_;
  const std::span<const Hop> hops = g.hop_table();
  const bool jumps = config_.jump_probability > 0.0;
  const double budget = config_.budget;
  // Hot state in locals; written back after the loop.
  Rng rng = rng_;
  VertexId v = v_;
  double cost = cost_;
  Graph::Row r = g.row(v);
  while (taken < want) {
    if (jumps && bernoulli(rng, config_.jump_probability)) {
      if (!pay_jump(rng, cost)) {
        done_ = true;
        break;
      }
      v = start_.sample(rng);
      r = g.row(v);
      block.push_vertex(v);
      ++taken;
      continue;
    }
    if (cost + 1.0 > budget) {
      done_ = true;
      break;
    }
    cost += 1.0;
    const EdgeIndex s = r.begin + uniform_index(rng, r.degree);
    const VertexId w = g.target(s);
    r = g.hop(hops, s);
    block.push_edge_vertex(v, w, r.degree, s, w);
    v = w;
    ++taken;
  }
  rng_ = rng;
  v_ = v;
  cost_ = cost;
  return taken;
}

void RwjCursor::save_state(std::ostream& os) const {
  write_pod<double>(os, config_.budget);
  write_pod<double>(os, config_.jump_probability);
  write_pod<double>(os, config_.cost.jump_cost);
  write_pod<double>(os, config_.cost.hit_ratio);
  write_vector(os, starts_);
  write_pod<VertexId>(os, v_);
  write_optional_vertex(os, pending_vertex_);
  write_pod<double>(os, cost_);
  write_pod<std::uint8_t>(os, done_ ? 1 : 0);
  write_rng(os, rng_);
}

void RwjCursor::load_state(std::istream& is) {
  expect_pod<double>(is, config_.budget, "budget");
  expect_pod<double>(is, config_.jump_probability, "jump_probability");
  expect_pod<double>(is, config_.cost.jump_cost, "jump_cost");
  expect_pod<double>(is, config_.cost.hit_ratio, "hit_ratio");
  starts_ = read_vector<VertexId>(is, "RwjCursor starts");
  v_ = read_pod<VertexId>(is);
  pending_vertex_ = read_optional_vertex(is);
  cost_ = read_pod<double>(is);
  done_ = read_pod<std::uint8_t>(is) != 0;
  read_rng(is, rng_);
  if (!done_) check_position(*graph_, v_, "walker");
  // A NaN cost never exceeds the budget, so the crawl would never end. A
  // real cost lies in [0, budget], or equals a negative budget (empty run).
  if (!std::isfinite(cost_) || cost_ < std::min(0.0, config_.budget) ||
      cost_ > config_.budget) {
    throw IoError("RwjCursor: corrupt checkpoint (cost)");
  }
  if (pending_vertex_ && *pending_vertex_ >= graph_->num_vertices()) {
    throw IoError("RwjCursor: corrupt checkpoint (pending vertex)");
  }
  // One start, or none when the budget could not pay the first jump.
  check_starts(*graph_, starts_, starts_.size() <= 1, "RwjCursor");
}

// -------------------------------------------------------------- Metropolis

void MetropolisCursor::Config::validate(const Graph& g) const {
  check_fixed_start(g, fixed_start, "MetropolisHastingsWalk");
}

MetropolisCursor::MetropolisCursor(const Graph& g, Config config, Rng rng)
    : SamplerCursor(CursorKind::kMetropolis, g, rng), config_(config) {
  config_.validate(g);
  v_ = config_.fixed_start ? *config_.fixed_start
                           : StartSampler(g, config_.start).sample(rng_);
  starts_.push_back(v_);
  pending_vertex_ = v_;
}

std::size_t MetropolisCursor::next_batch(StreamEventBlock& block,
                                         std::size_t max_steps) {
  block.clear(*graph_);
  const std::size_t want = std::min(max_steps, block.capacity());
  std::size_t taken = 0;
  if (want != 0 && pending_vertex_) {
    block.push_vertex(*pending_vertex_);
    pending_vertex_.reset();
    ++taken;
  }
  const std::uint64_t n = std::min<std::uint64_t>(
      want - taken, config_.steps - step_);
  if (n == 0) return taken;
  const Graph& g = *graph_;
  const std::span<const Hop> hops = g.hop_table();
  Rng rng = rng_;
  VertexId v = v_;
  // v's row carried across iterations: on accept it is the proposal's
  // row, read beside w, so a proposal waits on one dependent load.
  Graph::Row r = g.row(v);
  for (std::uint64_t k = 0; k < n; ++k) {
    const EdgeIndex s = r.begin + uniform_index(rng, r.degree);
    const VertexId w = g.target(s);
    const Graph::Row next = g.hop(hops, s);
    const double accept =
        static_cast<double>(r.degree) / static_cast<double>(next.degree);
    if (accept >= 1.0 || uniform01(rng) < accept) {
      block.push_edge_vertex(v, w, next.degree, s, w);
      v = w;
      r = next;
    } else {
      block.push_vertex(v);
    }
  }
  step_ += n;
  taken += static_cast<std::size_t>(n);
  v_ = v;
  rng_ = rng;
  return taken;
}

double MetropolisCursor::cost() const noexcept {
  return static_cast<double>(step_) + 1.0;
}

void MetropolisCursor::save_state(std::ostream& os) const {
  write_pod<std::uint64_t>(os, config_.steps);
  write_pod<std::uint8_t>(os, static_cast<std::uint8_t>(config_.start));
  write_optional_vertex(os, config_.fixed_start);
  write_pod<VertexId>(os, v_);
  write_optional_vertex(os, pending_vertex_);
  write_pod<std::uint64_t>(os, step_);
  write_vector(os, starts_);
  write_rng(os, rng_);
}

void MetropolisCursor::load_state(std::istream& is) {
  expect_pod<std::uint64_t>(is, config_.steps, "steps");
  expect_pod<std::uint8_t>(is, static_cast<std::uint8_t>(config_.start),
                           "start mode");
  const auto fixed = read_optional_vertex(is);
  if (fixed != config_.fixed_start) {
    throw IoError("stream checkpoint: configuration mismatch: fixed_start");
  }
  v_ = read_pod<VertexId>(is);
  pending_vertex_ = read_optional_vertex(is);
  step_ = read_pod<std::uint64_t>(is);
  starts_ = read_vector<VertexId>(is, "MetropolisCursor starts");
  read_rng(is, rng_);
  check_position(*graph_, v_, "walker");
  if (step_ > config_.steps ||
      (pending_vertex_ && *pending_vertex_ >= graph_->num_vertices())) {
    throw IoError("MetropolisCursor: corrupt checkpoint (counters)");
  }
  check_starts(*graph_, starts_, starts_.size() == 1, "MetropolisCursor");
}

}  // namespace frontier
