// Online estimator sinks: fold blocks of sampled events incrementally so a
// crawl at any budget B uses O(max_degree + buckets) memory instead of
// O(B).
//
// Each sink is the one implementation of its estimand: the batch
// estimator of the same name in estimators/ folds its sample through the
// sink with fold_sample and returns the sink's accessor, so batch and
// streamed values over one edge sequence are one computation, however the
// sequence is split into blocks. Sinks serialize their numeric state for
// checkpoint/resume; closures (label predicates) are not stored — the
// caller re-binds them when reconstructing the sink.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "estimators/assortativity.hpp"
#include "estimators/degree_distribution.hpp"
#include "graph/graph.hpp"
#include "graph/metrics.hpp"
#include "stats/accumulators.hpp"
#include "stream/block.hpp"

namespace frontier {

/// Incremental estimator fed one StreamEventBlock at a time.
class EstimatorSink {
 public:
  virtual ~EstimatorSink() = default;

  /// Folds every row of `block` in order, skipping rows without the
  /// observation the sink reads (an edge or a vertex). Splitting a row
  /// sequence into blocks differently leaves the state bit-identical.
  /// Contract: the block's deg_v column must be the symmetric degree of v
  /// in this sink's graph, which holds for every block produced by a
  /// cursor over that graph.
  virtual void ingest_block(const StreamEventBlock& block) = 0;

  /// Stable identifier, stored in checkpoints and verified on load.
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  /// Serializes / restores the accumulated numeric state.
  virtual void save_state(std::ostream& os) const = 0;
  virtual void load_state(std::istream& is) = 0;
};

/// Streaming eq.-7 degree distribution (and CCDF): the fold of
/// estimate_degree_distribution (DegreeDistributionFold), fed per block.
class DegreeDistributionSink final : public EstimatorSink {
 public:
  DegreeDistributionSink(const Graph& g, DegreeKind kind) : fold_(g, kind) {}

  void ingest_block(const StreamEventBlock& block) override {
    fold_.add(block);
  }
  [[nodiscard]] std::string_view name() const noexcept override {
    return "degree_distribution";
  }
  void save_state(std::ostream& os) const override { fold_.save(os); }
  void load_state(std::istream& is) override { fold_.load(is); }

  /// θ̂ — identical to estimate_degree_distribution over the same edges.
  [[nodiscard]] std::vector<double> distribution() const {
    return fold_.distribution();
  }
  /// γ̂ — identical to estimate_degree_ccdf over the same edges.
  [[nodiscard]] std::vector<double> ccdf() const {
    return ccdf_from_pdf(fold_.distribution());
  }
  [[nodiscard]] std::uint64_t edges_consumed() const noexcept {
    return fold_.edges();
  }

 private:
  DegreeDistributionFold fold_;
};

/// Streaming eq. 7: vertex label density from edge samples, reweighted by
/// 1/deg. The predicate is evaluated once per edge as it arrives.
class VertexDensitySink final : public EstimatorSink {
 public:
  VertexDensitySink(const Graph& g, std::function<bool(VertexId)> pred);

  void ingest_block(const StreamEventBlock& block) override;
  [[nodiscard]] std::string_view name() const noexcept override;
  void save_state(std::ostream& os) const override;
  void load_state(std::istream& is) override;

  /// θ̂_l; estimate_vertex_label_density returns it.
  [[nodiscard]] double value() const noexcept;

 private:
  const Graph* graph_;
  std::function<bool(VertexId)> pred_;
  double s_ = 0.0;
  double weighted_hits_ = 0.0;
  std::uint64_t n_ = 0;
};

/// Streaming eq. 5: edge label density over the labeled subsequence.
class EdgeDensitySink final : public EstimatorSink {
 public:
  EdgeDensitySink(std::function<bool(const Edge&)> labeled,
                  std::function<bool(const Edge&)> has_label);

  void ingest_block(const StreamEventBlock& block) override;
  [[nodiscard]] std::string_view name() const noexcept override;
  void save_state(std::ostream& os) const override;
  void load_state(std::istream& is) override;

  /// p̂_l; estimate_edge_label_density returns it.
  [[nodiscard]] double value() const noexcept;

 private:
  std::function<bool(const Edge&)> labeled_;
  std::function<bool(const Edge&)> has_label_;
  std::uint64_t b_star_ = 0;
  std::uint64_t hits_ = 0;
};

/// Streaming assortativity r̂ (Section 4.2.2), reusing the incremental
/// AssortativityAccumulator from estimators/. An edge row is labeled when
/// its slot in the sink's graph is a forward edge of E_d; a block whose
/// slots do not index that graph has them found by a search first.
class AssortativitySink final : public EstimatorSink {
 public:
  explicit AssortativitySink(const Graph& g);

  void ingest_block(const StreamEventBlock& block) override;
  [[nodiscard]] std::string_view name() const noexcept override;
  void save_state(std::ostream& os) const override;
  void load_state(std::istream& is) override;

  /// r̂; estimate_assortativity returns it.
  [[nodiscard]] double value() const noexcept { return acc_.value(); }
  [[nodiscard]] std::uint64_t labeled_count() const noexcept {
    return acc_.count();
  }

 private:
  const Graph* graph_;
  AssortativityAccumulator acc_;
  std::vector<EdgeIndex> found_slots_;  // slots found for a block; not state
};

/// Streaming graph moments: the S-normalization of eq. 7 folded per edge.
/// Provides average degree (1/S), higher degree moments, and volume; also
/// keeps a Welford RunningStat of the observed degrees as a dispersion
/// diagnostic for monitoring long crawls.
class GraphMomentsSink final : public EstimatorSink {
 public:
  /// Tracks raw degree moments E[deg^k] for k in [1, max_moment].
  explicit GraphMomentsSink(const Graph& g, unsigned max_moment = 3);

  void ingest_block(const StreamEventBlock& block) override;
  [[nodiscard]] std::string_view name() const noexcept override;
  void save_state(std::ostream& os) const override;
  void load_state(std::istream& is) override;

  /// d̄; estimate_average_degree returns it.
  [[nodiscard]] double average_degree() const noexcept;
  /// E[deg^k] for k <= max_moment; estimate_degree_moment returns it.
  [[nodiscard]] double degree_moment(unsigned k) const;
  /// vol ≈ |V| / S; estimate_volume returns it.
  [[nodiscard]] double volume(double num_vertices) const;
  [[nodiscard]] std::uint64_t edges_consumed() const noexcept { return n_; }
  /// Welford statistics of the observed (degree-biased) target degrees.
  [[nodiscard]] const RunningStat& observed_degrees() const noexcept {
    return observed_;
  }

 private:
  const Graph* graph_;
  std::vector<double> pow_sums_;  // Σ deg^(k-1) for k = 1..max_moment
  double s_ = 0.0;                // Σ 1/deg
  std::uint64_t n_ = 0;
  RunningStat observed_;
};

/// Streaming mean degree from *uniform vertex* samples (MH-RW visits):
/// the plain empirical average, no reweighting.
class UniformDegreeSink final : public EstimatorSink {
 public:
  explicit UniformDegreeSink(const Graph& g);

  void ingest_block(const StreamEventBlock& block) override;
  [[nodiscard]] std::string_view name() const noexcept override;
  void save_state(std::ostream& os) const override;
  void load_state(std::istream& is) override;

  /// The mean degree; estimate_average_degree_uniform returns it.
  [[nodiscard]] double value() const noexcept;
  [[nodiscard]] std::uint64_t vertices_consumed() const noexcept { return n_; }

 private:
  const Graph* graph_;
  double deg_sum_ = 0.0;
  std::uint64_t n_ = 0;
};

/// Owning collection of sinks, in checkpoint order.
using SinkSet = std::vector<std::unique_ptr<EstimatorSink>>;

/// Folds a sample into `sink` as the batch estimators do: an edge row per
/// edge (deg(v) in g, Graph::kNoSlot), then a vertex row per vertex, in
/// blocks of min(|edges| + |vertices|, default_block_capacity()) rows,
/// at least 1, started by clear() (their slots index no graph).
void fold_sample(EstimatorSink& sink, const Graph& g,
                 std::span<const Edge> edges,
                 std::span<const VertexId> vertices = {});

}  // namespace frontier
