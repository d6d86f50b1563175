// StreamEventBlock — the structure-of-arrays unit of the sampling pipeline.
//
// A virtual call per sampled edge would be the dominant per-step overhead
// once the walk arithmetic itself is a few nanoseconds. A block amortizes
// that dispatch: the cursor advances up to capacity() steps in one
// next_batch() call, writing each step's observation into parallel columns
// (edge endpoints u/v, the symmetric degree of the edge target, the
// observed vertex, and a per-row flag byte). Sinks then ingest whole
// columns (EstimatorSink::ingest_block) and drain_cursor bulk-appends them
// into a SampleRecord.
//
// Blocks are caller-owned and reusable: StreamEngine, drain_cursor and
// the per-worker replication arenas each keep one block alive across
// refills, so the steady state of the pipeline allocates nothing. The
// columns are allocated once at construction and rows are written by
// index — push_* never reallocates.
//
// The degree column carries deg(v) *in the cursor's graph*. Every
// reweighting sink needs that value anyway (the 1/deg importance weight
// of eq. 7), and the cursor usually has it at hand (FS updates its
// Fenwick tree with it), so the block computes it once for all sinks.
//
// The slot column carries the CSR slot of (u, v) — the index of v in the
// graph's neighbor_array(), offsets[u] + the neighbour index the cursor
// drew — which the cursor has at hand for free. It locates everything
// the graph keeps per adjacency without a search of u's row: the edge's
// direction flag (the assortativity sink) and its codegree memo entry.
//
// The codegree column f(u, v) = |N(u) ∩ N(v)| is the same idea one step
// further: the triangle and clustering sinks both need it per edge row,
// and each value is a chain of cache misses on a large graph. It is not
// written by cursors (batch replication would pay for it) but computed
// on the first codegree() call of a fill, behind a software-prefetch
// pipeline (for_each_edge_row_prefetched), and shared by every later
// reader of that fill. Across fills, the graph-wide codegree memo
// (GraphStorage::codegree_memo) remembers f by slot, so an edge's
// codegree is computed once per graph, not once per sample.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/types.hpp"

namespace frontier {

class Graph;

/// Process-wide default block capacity: the FS_BLOCK environment knob
/// (strictly parsed, like the FS_* knobs in experiments/config.hpp),
/// clamped to >= 1; 4096 when unset. Read once per process. The batched
/// pipeline is bit-identical for every capacity — the knob exists so CI
/// can prove that (K=1 vs K=4096 result fingerprints must match), not to
/// tune results.
[[nodiscard]] std::size_t default_block_capacity();

class StreamEventBlock {
 public:
  /// Row flag bits: the row observed an edge (u, v, deg_v valid) and/or a
  /// vertex (vertex valid). A row with no bit set is an empty step
  /// (burn-in, lazy stay, walker start jump): budget was spent but nothing
  /// was observed.
  static constexpr std::uint8_t kHasEdge = 1;
  static constexpr std::uint8_t kHasVertex = 2;

  /// How many rows ahead a prefetch pipeline requests a row's lines
  /// (see for_each_edge_row_prefetched). Enough rows to cover a
  /// main-memory latency with a few hundred ns of fold work in flight,
  /// few enough that the lines are still cached when the row is folded.
  static constexpr std::size_t kPrefetchDistance = 8;

  explicit StreamEventBlock(std::size_t capacity = default_block_capacity());

  [[nodiscard]] std::size_t capacity() const noexcept { return cap_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t room() const noexcept { return cap_ - size_; }
  /// Empties the block for a fill whose slot column indexes no graph.
  void clear() noexcept {
    size_ = 0;
    codegree_graph_ = nullptr;
    slot_neighbors_ = nullptr;
  }
  /// Empties the block for a fill whose edge rows carry CSR slots of g
  /// (and of every Graph sharing g's storage): slot() of an edge row
  /// (u, v) must then be g.find_slot(u, v), i.e. Graph::kNoSlot when
  /// (u, v) is not in E (checked by assert where slots are read). Cursors
  /// start every fill so.
  void clear(const Graph& g) noexcept;

  // Writer API (cursors). Precondition: size() < capacity(). Rows not
  // carrying an edge (resp. vertex) leave those columns stale; readers
  // must gate on flags().
  void push_empty() noexcept { flags_[size_++] = 0; }
  void push_edge(VertexId u, VertexId v, std::uint32_t deg_v,
                 EdgeIndex slot) noexcept {
    u_[size_] = u;
    v_[size_] = v;
    deg_v_[size_] = deg_v;
    slot_[size_] = slot;
    flags_[size_++] = kHasEdge;
  }
  void push_vertex(VertexId x) noexcept {
    vertex_[size_] = x;
    flags_[size_++] = kHasVertex;
  }
  void push_edge_vertex(VertexId u, VertexId v, std::uint32_t deg_v,
                        EdgeIndex slot, VertexId x) noexcept {
    u_[size_] = u;
    v_[size_] = v;
    deg_v_[size_] = deg_v;
    slot_[size_] = slot;
    vertex_[size_] = x;
    flags_[size_++] = kHasEdge | kHasVertex;
  }

  // Reader API (sinks, drain). Spans cover the size() filled rows.
  [[nodiscard]] std::span<const VertexId> u() const noexcept {
    return {u_.data(), size_};
  }
  [[nodiscard]] std::span<const VertexId> v() const noexcept {
    return {v_.data(), size_};
  }
  /// Symmetric degree of v() in the cursor's graph, valid on edge rows.
  [[nodiscard]] std::span<const std::uint32_t> deg_v() const noexcept {
    return {deg_v_.data(), size_};
  }
  /// CSR slot of (u, v) (or Graph::kNoSlot), valid on edge rows; it
  /// indexes a graph's arrays only when slots_index(that graph).
  [[nodiscard]] std::span<const EdgeIndex> slot() const noexcept {
    return {slot_.data(), size_};
  }
  /// True when this fill was started by clear(h) for an h sharing g's
  /// storage, so slot() indexes g's CSR arrays.
  [[nodiscard]] bool slots_index(const Graph& g) const noexcept;
  [[nodiscard]] std::span<const VertexId> vertex() const noexcept {
    return {vertex_.data(), size_};
  }
  [[nodiscard]] std::span<const std::uint8_t> flags() const noexcept {
    return {flags_.data(), size_};
  }

  /// Codegree column: shared_neighbors(g, u, v) on every edge row, 0 on
  /// every other row. A memo of the current fill: computed on the first
  /// call, returned as is by later calls for the same graph and row
  /// count, reset by clear(). Its storage is allocated on the first call,
  /// so blocks whose readers never ask pay nothing. Like the rest of the
  /// block, it is read by one thread at a time. When slots_index(g), each
  /// value is first looked up in, and once computed stored to, g's
  /// graph-wide codegree memo at the row's slot; otherwise every value is
  /// computed.
  [[nodiscard]] std::span<const std::uint32_t> codegree(const Graph& g) const;

 private:
  std::vector<VertexId> u_;
  std::vector<VertexId> v_;
  std::vector<std::uint32_t> deg_v_;
  std::vector<EdgeIndex> slot_;
  std::vector<VertexId> vertex_;
  std::vector<std::uint8_t> flags_;
  std::size_t size_ = 0;
  std::size_t cap_;
  // neighbor_array().data() of the graph whose CSR slot_ indexes, set by
  // clear(g); null when the slots index no graph. It names the storage,
  // so every Graph copy over it matches.
  const VertexId* slot_neighbors_ = nullptr;
  // codegree() memo: valid for the first codegree_rows_ rows when
  // computed against *codegree_graph_; clear() nulls the graph.
  mutable std::vector<std::uint32_t> codegree_;
  mutable const Graph* codegree_graph_ = nullptr;
  mutable std::size_t codegree_rows_ = 0;
};

/// Visits the edge rows of `block` in order through a two-stage software
/// prefetch pipeline, for folds whose per-row cost is a chain of
/// dependent cache misses (CSR offsets, then the adjacency row they
/// locate). far(j) runs for edge row j = i + 2D and should prefetch the
/// first links of the chain; near(j) runs for edge row j = i + D, when
/// those lines have arrived, and should prefetch the lines they point
/// to; fold(i) then finds row i's lines cached. D is
/// StreamEventBlock::kPrefetchDistance. far() also runs up front for the
/// first 2D rows, so short blocks are covered too. Prefetches change no
/// value, so the folds see exactly the rows a plain loop would.
///
/// Flattened (the stages are inlined into the loop) because GCC judges
/// a function whose only effect is a prefetch to be const, and deletes
/// a call to it whose result is unused: left as calls, the stages would
/// compile to nothing.
template <typename Far, typename Near, typename Fold>
[[gnu::flatten]] void for_each_edge_row_prefetched(
    const StreamEventBlock& block, Far&& far, Near&& near, Fold&& fold) {
  constexpr std::size_t kD = StreamEventBlock::kPrefetchDistance;
  const std::size_t n = block.size();
  const std::uint8_t* flags = block.flags().data();
  const auto edge = [flags](std::size_t j) {
    return (flags[j] & StreamEventBlock::kHasEdge) != 0;
  };
  for (std::size_t j = 0; j < std::min(n, 2 * kD); ++j) {
    if (edge(j)) far(j);
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (i + 2 * kD < n && edge(i + 2 * kD)) far(i + 2 * kD);
    if (i + kD < n && edge(i + kD)) near(i + kD);
    if (edge(i)) fold(i);
  }
}

}  // namespace frontier
