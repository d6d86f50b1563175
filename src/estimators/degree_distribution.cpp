#include "estimators/degree_distribution.hpp"

#include "stream/block.hpp"
#include "stream/serialize.hpp"

namespace frontier {

namespace {

// How many edges ahead add(span) requests an edge's degree: enough to
// cover a main-memory miss with the few ns of fold work per edge.
constexpr std::size_t kDegreeLookahead = 16;

}  // namespace

// The one eq.-7 step, over rows [0, rows) in order: row i is skipped
// unless is_edge(i); otherwise its target is target(i), of symmetric
// degree degree(i).
template <typename IsEdge, typename Target, typename Degree>
void DegreeDistributionFold::fold(std::size_t rows, IsEdge is_edge,
                                  Target target, Degree degree) {
  const Graph& g = *graph_;
  const DegreeKind kind = kind_;
  double s = s_;
  std::uint64_t n = n_;
  for (std::size_t i = 0; i < rows; ++i) {
    if (!is_edge(i)) continue;
    const std::uint32_t dv = degree(i);
    const double inv_deg = 1.0 / static_cast<double>(dv);
    s += inv_deg;
    const std::uint32_t d =
        kind == DegreeKind::kSymmetric ? dv : degree_of(g, target(i), kind);
    if (d >= weighted_.size()) weighted_.resize(d + 1, 0.0);
    weighted_[d] += inv_deg;
    ++n;
  }
  s_ = s;
  n_ = n;
}

void DegreeDistributionFold::add(std::span<const Edge> edges) {
  const Graph& g = *graph_;
  const Edge* e = edges.data();
  const std::size_t rows = edges.size();
  fold(
      rows, [](std::size_t) { return true; },
      [e](std::size_t i) { return e[i].v; },
      [&g, e, rows](std::size_t i) {
        if (i + kDegreeLookahead < rows) {
          g.prefetch_offsets(e[i + kDegreeLookahead].v);
        }
        return g.degree(e[i].v);
      });
}

void DegreeDistributionFold::add(const StreamEventBlock& block) {
  const std::uint8_t* flags = block.flags().data();
  const VertexId* v = block.v().data();
  const std::uint32_t* deg = block.deg_v().data();
  fold(
      block.size(),
      [flags](std::size_t i) {
        return (flags[i] & StreamEventBlock::kHasEdge) != 0;
      },
      [v](std::size_t i) { return v[i]; },
      [deg](std::size_t i) { return deg[i]; });
}

std::vector<double> DegreeDistributionFold::distribution() const {
  std::vector<double> theta = weighted_;
  if (s_ > 0.0) {
    for (double& w : theta) w /= s_;
  }
  return theta;
}

void DegreeDistributionFold::save(std::ostream& os) const {
  streamio::write_pod<std::uint8_t>(os, static_cast<std::uint8_t>(kind_));
  streamio::write_vector(os, weighted_);
  streamio::write_pod<double>(os, s_);
  streamio::write_pod<std::uint64_t>(os, n_);
}

void DegreeDistributionFold::load(std::istream& is) {
  streamio::expect_pod<std::uint8_t>(is, static_cast<std::uint8_t>(kind_),
                                     "degree kind");
  weighted_ = streamio::read_vector<double>(is, "degree_distribution buckets");
  s_ = streamio::read_pod<double>(is);
  n_ = streamio::read_pod<std::uint64_t>(is);
}

std::vector<double> estimate_degree_distribution(const Graph& g,
                                                 std::span<const Edge> edges,
                                                 DegreeKind kind) {
  DegreeDistributionFold fold(g, kind);
  fold.add(edges);
  return fold.distribution();
}

std::vector<double> estimate_degree_distribution_uniform(
    const Graph& g, std::span<const VertexId> vertices, DegreeKind kind) {
  std::vector<double> counts;
  for (VertexId v : vertices) {
    const std::uint32_t d = degree_of(g, v, kind);
    if (d >= counts.size()) counts.resize(d + 1, 0.0);
    counts[d] += 1.0;
  }
  if (!vertices.empty()) {
    for (double& c : counts) c /= static_cast<double>(vertices.size());
  }
  return counts;
}

std::vector<double> estimate_degree_ccdf(const Graph& g,
                                         std::span<const Edge> edges,
                                         DegreeKind kind) {
  return ccdf_from_pdf(estimate_degree_distribution(g, edges, kind));
}

}  // namespace frontier
