#include "graph/graph.hpp"

#include <algorithm>
#include <sstream>

namespace frontier {

EdgeIndex Graph::find_slot(VertexId u, VertexId v) const noexcept {
  if (u >= num_vertices() || v >= num_vertices()) return kNoSlot;
  const auto nbrs = neighbors(u);
  const std::size_t k = lower_bound_index(nbrs, v);
  return k < nbrs.size() && nbrs[k] == v ? offsets_[u] + k : kNoSlot;
}

const CodegreeMemo& Graph::codegree_memo() const {
  static const CodegreeMemo kEmpty;
  return storage_ == nullptr ? kEmpty : storage_->codegree_memo();
}

std::span<const Hop> Graph::hop_table() const {
  return storage_ == nullptr ? std::span<const Hop>{} : storage_->hop_table();
}

bool Graph::has_edge(VertexId u, VertexId v) const noexcept {
  return find_slot(u, v) != kNoSlot;
}

bool Graph::has_directed_edge(VertexId u, VertexId v) const noexcept {
  return is_forward(find_slot(u, v));
}

std::uint32_t Graph::max_degree() const noexcept {
  std::uint32_t best = 0;
  for (VertexId v = 0; v < num_vertices(); ++v) {
    best = std::max(best, degree(v));
  }
  return best;
}

Edge Graph::edge_at(EdgeIndex j) const noexcept {
  // Binary search for the source vertex owning slot j.
  const auto it = std::upper_bound(offsets_.begin(), offsets_.end(), j);
  const auto u = static_cast<VertexId>((it - offsets_.begin()) - 1);
  return Edge{u, neighbors_[j]};
}

std::string Graph::summary() const {
  std::ostringstream os;
  os << "Graph{|V|=" << num_vertices() << ", |E_d|=" << num_directed_edges()
     << ", |E|/2=" << num_undirected_edges()
     << ", avg_deg=" << average_degree() << ", max_deg=" << max_degree()
     << "}";
  return os.str();
}

}  // namespace frontier
