// Immutable CSR graph: the symmetric counterpart G of a directed graph G_d.
//
// The paper (Section 2) models a network as a labeled directed graph
// G_d = (V, E_d) and assumes the crawler can retrieve *both* incoming and
// outgoing edges of a queried vertex. Random walks therefore operate on the
// symmetric counterpart G = (V, E) with E = ∪_{(u,v)∈E_d} {(u,v),(v,u)},
// while estimators of directed quantities (in/out-degree distributions,
// directed assortativity) still need the original edge directions. Graph
// stores the symmetric adjacency in CSR form with a per-entry EdgeDir flag
// recording which directed edges exist in E_d.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>

#include "core/types.hpp"
#include "graph/storage.hpp"

namespace frontier {

class Graph {
 public:
  Graph() = default;

  /// Wraps a backing store (owned arrays or an mmap'd snapshot); the Graph
  /// reads through span views either way and shares the storage on copy.
  explicit Graph(std::shared_ptr<const GraphStorage> storage)
      : storage_(std::move(storage)) {
    const GraphStorage::Views& v = storage_->views();
    offsets_ = v.offsets;
    neighbors_ = v.neighbors;
    directions_ = v.directions;
    out_degree_ = v.out_degree;
    in_degree_ = v.in_degree;
    num_directed_edges_ = v.num_directed_edges;
  }

  /// Number of vertices |V|.
  [[nodiscard]] std::size_t num_vertices() const noexcept {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }

  /// Number of *directed* edges |E_d| in the original graph.
  [[nodiscard]] std::uint64_t num_directed_edges() const noexcept {
    return num_directed_edges_;
  }

  /// Number of ordered symmetric edges |E| (each undirected adjacency
  /// counted twice). Equals vol(V).
  [[nodiscard]] std::uint64_t num_symmetric_edges() const noexcept {
    return neighbors_.size();
  }

  /// Number of unordered adjacencies |E|/2.
  [[nodiscard]] std::uint64_t num_undirected_edges() const noexcept {
    return neighbors_.size() / 2;
  }

  /// Symmetric degree of v: deg(v) = |{u : (v,u) in E}|.
  [[nodiscard]] std::uint32_t degree(VertexId v) const noexcept {
    return static_cast<std::uint32_t>(offsets_[v + 1] - offsets_[v]);
  }

  /// Out-degree of v in the original directed graph G_d.
  [[nodiscard]] std::uint32_t out_degree(VertexId v) const noexcept {
    return out_degree_[v];
  }

  /// In-degree of v in the original directed graph G_d.
  [[nodiscard]] std::uint32_t in_degree(VertexId v) const noexcept {
    return in_degree_[v];
  }

  /// Neighbors of v in G, sorted ascending.
  [[nodiscard]] std::span<const VertexId> neighbors(VertexId v) const noexcept {
    return {neighbors_.data() + offsets_[v],
            neighbors_.data() + offsets_[v + 1]};
  }

  /// Direction flags of the adjacency entries of v, parallel to neighbors(v).
  [[nodiscard]] std::span<const EdgeDir> directions(VertexId v) const noexcept {
    return {directions_.data() + offsets_[v],
            directions_.data() + offsets_[v + 1]};
  }

  /// k-th neighbor of v (unchecked).
  [[nodiscard]] VertexId neighbor(VertexId v, std::uint32_t k) const noexcept {
    return neighbors_[offsets_[v] + k];
  }

  /// Returned by find_slot when (u, v) is not in E.
  static constexpr EdgeIndex kNoSlot = ~EdgeIndex{0};

  /// CSR slot of the adjacency (u, v), found by a branchless search of
  /// u's row, or kNoSlot when (u, v) is not in E. O(log deg(u)).
  [[nodiscard]] EdgeIndex find_slot(VertexId u, VertexId v) const noexcept;

  /// True iff slot s is a directed edge of E_d in its row's direction,
  /// i.e. the slot of (u, v) with (u, v) in E_d; false for any slot past
  /// the last one, kNoSlot included.
  [[nodiscard]] bool is_forward(EdgeIndex s) const noexcept {
    if (s >= directions_.size()) return false;
    const EdgeDir d = directions_[s];
    return d == EdgeDir::kForward || d == EdgeDir::kBoth;
  }

  /// A walker's place in the CSR: the first slot of its vertex's row and
  /// the vertex's degree. A step from it takes slot
  /// begin + uniform_index(degree).
  struct Row {
    EdgeIndex begin = 0;
    std::uint32_t degree = 0;
  };

  /// The row of v, from its CSR offsets.
  [[nodiscard]] Row row(VertexId v) const noexcept {
    return {offsets_[v], degree(v)};
  }

  /// The vertex slot s holds: neighbor_array()[s] (unchecked).
  [[nodiscard]] VertexId target(EdgeIndex s) const noexcept {
    return neighbors_[s];
  }

  /// The storage's hop table (GraphStorage::hop_table), shared by every
  /// copy of this Graph and built by the first call; empty below
  /// GraphStorage::kHopTableMinCsrBytes, for a mapped snapshot and for a
  /// default-constructed graph. Walk cursors fetch it once per batch and
  /// pass it to hop().
  [[nodiscard]] std::span<const Hop> hop_table() const;

  /// The row of target(s), the vertex a step through slot s reaches:
  /// from `hops` (this graph's hop_table()) when it is built, in a load
  /// that does not wait for target(s), else from the CSR offsets after
  /// it. Both give the same pair, since only owned storage, whose ids are
  /// checked, has a table; the branch goes the same way for every call on
  /// one graph.
  [[gnu::always_inline]] Row hop(std::span<const Hop> hops,
                                 EdgeIndex s) const noexcept {
    if (!hops.empty()) return {hops[s].row, hops[s].degree};
    return row(neighbors_[s]);
  }

  /// The storage's degree alias table (GraphStorage::degree_table), shared
  /// by every copy of this Graph and built by the first call. Throws
  /// std::invalid_argument when the graph has no edge.
  [[nodiscard]] const AliasTable& degree_table() const;

  /// The graph-wide codegree memo of the storage, shared by every copy of
  /// this Graph (GraphStorage::codegree_memo); allocated by the first
  /// call. Empty for a default-constructed graph.
  [[nodiscard]] const CodegreeMemo& codegree_memo() const;

  // Software-prefetch hints. Each asks the cache for the lines a later
  // lookup of v will touch, so a loop can overlap many of those misses
  // instead of paying them one after another; none changes any value.
  // prefetch_line() below is the one place the compiler builtin appears
  // (frontier_lint's prefetch-in-graph rule keeps it that way).

  /// v's adjacency range: the first and last line of its neighbour ids.
  /// Reads v's offsets, so it stalls unless prefetch_offsets(v) ran a
  /// while earlier.
  [[gnu::always_inline]] void prefetch_neighbors(VertexId v) const noexcept {
    const std::uint64_t b = offsets_[v];
    const std::uint64_t e = offsets_[v + 1];
    if (b == e) return;
    prefetch_line(neighbors_.data() + b);
    prefetch_line(neighbors_.data() + e - 1);
  }

  /// What the next step from row r reads: the first and last line of its
  /// neighbour ids and, when `hops` (this graph's hop_table()) is built,
  /// of its hop entries. Reads nothing, so it never stalls. The FS cursor
  /// calls it when a walker arrives: that walker is next picked ~Σdeg /
  /// deg steps later, so its slot and hop entry are then cache hits.
  [[gnu::always_inline]] void prefetch_row(std::span<const Hop> hops,
                                           Row r) const noexcept {
    if (r.degree == 0) return;
    const EdgeIndex last = r.begin + r.degree - 1;
    prefetch_line(neighbors_.data() + r.begin);
    prefetch_line(neighbors_.data() + last);
    if (hops.empty()) return;
    prefetch_line(hops.data() + r.begin);
    prefetch_line(hops.data() + last);
  }

  /// v's two CSR offsets, the first link of every adjacency lookup.
  [[gnu::always_inline]] void prefetch_offsets(VertexId v) const noexcept {
    prefetch_line(offsets_.data() + v);
    prefetch_line(offsets_.data() + v + 1);
  }

  /// The direction flag of slot s; nothing for a slot past the last.
  [[gnu::always_inline]] void prefetch_direction(EdgeIndex s) const noexcept {
    if (s < directions_.size()) prefetch_line(directions_.data() + s);
  }

  /// Entry s of `memo`, a codegree_memo() of this graph; nothing when s
  /// is past the memo's end.
  [[gnu::always_inline]] static void prefetch_codegree(
      const CodegreeMemo& memo, EdgeIndex s) noexcept {
    if (s < memo.size_) prefetch_line(memo.bytes_ + s);
  }

  /// out_degree(v) and in_degree(v) respectively.
  [[gnu::always_inline]] void prefetch_out_degree(VertexId v) const noexcept {
    prefetch_line(out_degree_.data() + v);
  }
  [[gnu::always_inline]] void prefetch_in_degree(VertexId v) const noexcept {
    prefetch_line(in_degree_.data() + v);
  }

  /// True iff (u,v) is in the symmetric edge set E. O(log deg(u)).
  [[nodiscard]] bool has_edge(VertexId u, VertexId v) const noexcept;

  /// True iff the *directed* edge (u,v) is in E_d. O(log deg(u)).
  [[nodiscard]] bool has_directed_edge(VertexId u, VertexId v) const noexcept;

  /// vol(S) of the whole vertex set: sum of symmetric degrees = |E|.
  [[nodiscard]] std::uint64_t volume() const noexcept {
    return neighbors_.size();
  }

  /// Average symmetric degree vol(V)/|V|; 0 for the empty graph.
  [[nodiscard]] double average_degree() const noexcept {
    return num_vertices() == 0
               ? 0.0
               : static_cast<double>(volume()) /
                     static_cast<double>(num_vertices());
  }

  /// Maximum symmetric degree.
  [[nodiscard]] std::uint32_t max_degree() const noexcept;

  /// Endpoints of the j-th symmetric edge slot, j in [0, volume()).
  /// Slots enumerate (v, neighbor(v,k)) in CSR order; uniform sampling over
  /// slots is uniform sampling over E.
  [[nodiscard]] Edge edge_at(EdgeIndex j) const noexcept;

  /// CSR offset array (size |V|+1); exposed for algorithms that stream the
  /// whole adjacency (metrics, IO).
  [[nodiscard]] std::span<const EdgeIndex> offsets() const noexcept {
    return offsets_;
  }

  /// Whole CSR arrays, parallel to offsets(); exposed so the binary
  /// snapshot writer can emit them verbatim.
  [[nodiscard]] std::span<const VertexId> neighbor_array() const noexcept {
    return neighbors_;
  }
  [[nodiscard]] std::span<const EdgeDir> direction_array() const noexcept {
    return directions_;
  }
  [[nodiscard]] std::span<const std::uint32_t> out_degree_array()
      const noexcept {
    return out_degree_;
  }
  [[nodiscard]] std::span<const std::uint32_t> in_degree_array()
      const noexcept {
    return in_degree_;
  }

  /// One-line human-readable summary ("|V|=..., |E|=..., d̄=...").
  [[nodiscard]] std::string summary() const;

  /// True when the CSR arrays are views into an mmap'd binary snapshot
  /// rather than owned vectors.
  [[nodiscard]] bool is_memory_mapped() const noexcept {
    return storage_ != nullptr && storage_->is_memory_mapped();
  }

 private:
  // Keeps the arrays (owned vectors or an mmap'd region) alive; the spans
  // below are cached views into it so the hot paths skip the indirection.
  std::shared_ptr<const GraphStorage> storage_;

  std::span<const EdgeIndex> offsets_;    // |V|+1
  std::span<const VertexId> neighbors_;   // vol(V), sorted per vertex
  std::span<const EdgeDir> directions_;   // parallel to neighbors_
  std::span<const std::uint32_t> out_degree_;
  std::span<const std::uint32_t> in_degree_;
  std::uint64_t num_directed_edges_ = 0;

  /// Read prefetch of the line holding p, low temporal locality. No-op
  /// on compilers without the builtin. Always inlined: GCC judges a
  /// function whose only effect is a prefetch to be const, so a call to
  /// an out-of-line copy could be deleted as dead code.
  [[gnu::always_inline]] static void prefetch_line(const void* p) noexcept {
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(p, 0, 1);
#else
    (void)p;
#endif
  }
};

/// Index of the first entry of the ascending `row` that is not less than
/// x, or row.size() when every entry is: std::lower_bound without its
/// data-dependent branch. Each halving step is a conditional add, which
/// compiles to a cmov, so a search costs ~log2(size) dependent loads and
/// no mispredictions, and independent searches overlap in the
/// out-of-order core. Graph::find_slot (and so has_edge and
/// has_directed_edge) and shared_neighbors' probe side all search
/// through it.
[[nodiscard]] inline std::size_t lower_bound_index(
    std::span<const VertexId> row, VertexId x) noexcept {
  std::size_t len = row.size();
  if (len == 0) return 0;
  const VertexId* base = row.data();
  while (len > 1) {
    const std::size_t half = len / 2;
    base += base[half] < x ? half : 0;
    len -= half;
  }
  return static_cast<std::size_t>(base - row.data()) + (*base < x ? 1 : 0);
}

}  // namespace frontier
