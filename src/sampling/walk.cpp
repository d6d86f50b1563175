#include "sampling/walk.hpp"

#include <stdexcept>

namespace frontier {

StartSampler::StartSampler(const Graph& g, StartMode mode)
    : graph_(&g), mode_(mode) {
  if (g.num_vertices() == 0) {
    throw std::invalid_argument("StartSampler: empty graph");
  }
  if (g.volume() == 0) {
    throw std::invalid_argument("StartSampler: graph has no edges");
  }
}

VertexId StartSampler::sample(Rng& rng) const {
  if (mode_ == StartMode::kDegreeProportional) {
    return static_cast<VertexId>(graph_->degree_table().sample(rng));
  }
  // Uniform, rejecting isolated vertices (the paper assumes none exist;
  // rejection keeps the sampler total on graphs that do have them).
  for (;;) {
    const auto v =
        static_cast<VertexId>(uniform_index(rng, graph_->num_vertices()));
    if (graph_->degree(v) > 0) return v;
  }
}

}  // namespace frontier
