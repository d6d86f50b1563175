// Backing storage for the CSR arrays of a Graph.
//
// A Graph never owns its arrays directly; it reads them through std::span
// views into a GraphStorage. Storage comes in two flavors:
//   * owned   — std::vector arrays produced by GraphBuilder or by the
//               stream-based readers (today's behavior),
//   * mapped  — a read-only mmap of a format-v2 binary snapshot, where the
//               spans point straight into the page cache. Loading is O(1)
//               in the graph size: no copy, no per-edge rebuild.
// Graphs share storage by shared_ptr, so copying a Graph is cheap and a
// mapped file stays alive exactly as long as some Graph views it.
//
// Besides the immutable arrays, a storage owns two side tables that every
// Graph copy, engine and thread over the storage shares: the codegree memo
// (codegree_memo() below) and the walks' hop table (hop_table()).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "core/types.hpp"
#include "graph/codegree_memo.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define FRONTIER_HAS_MMAP 1
#else
#define FRONTIER_HAS_MMAP 0
#endif

namespace frontier {

/// One hop table entry (GraphStorage::hop_table): the CSR row of the
/// vertex w held by a slot, i.e. offsets[w] and deg(w).
struct Hop {
  std::uint32_t row = 0;
  std::uint32_t degree = 0;
};

/// Move-only RAII wrapper over a read-only memory-mapped file.
/// On platforms without mmap, open() always throws.
class MmapFile {
 public:
  MmapFile() = default;
  MmapFile(MmapFile&& other) noexcept;
  MmapFile& operator=(MmapFile&& other) noexcept;
  MmapFile(const MmapFile&) = delete;
  MmapFile& operator=(const MmapFile&) = delete;
  ~MmapFile();

  /// Maps `path` read-only. Throws IoError (see graph/io.hpp) on failure
  /// or when the platform has no mmap. Empty files map to {nullptr, 0}.
  [[nodiscard]] static MmapFile open(const std::string& path);

  [[nodiscard]] const std::byte* data() const noexcept { return data_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool valid() const noexcept { return mapped_; }

 private:
  /// Unmaps (when mapped) and returns to the empty state.
  void reset() noexcept;

  const std::byte* data_ = nullptr;
  std::size_t size_ = 0;
  bool mapped_ = false;
};

/// Immutable backing store of one graph: the five CSR arrays plus the
/// directed-edge count, either owned or memory-mapped.
class GraphStorage {
 public:
  /// Owned-array payload; moved into the storage wholesale.
  struct Arrays {
    std::vector<EdgeIndex> offsets;            // |V|+1 (or empty graph: {0})
    std::vector<VertexId> neighbors;           // vol(V), sorted per vertex
    std::vector<EdgeDir> directions;           // parallel to neighbors
    std::vector<std::uint32_t> out_degree;     // |V|
    std::vector<std::uint32_t> in_degree;      // |V|
    std::uint64_t num_directed_edges = 0;
  };

  /// Span views into the backing arrays (owned or mapped).
  struct Views {
    std::span<const EdgeIndex> offsets;
    std::span<const VertexId> neighbors;
    std::span<const EdgeDir> directions;
    std::span<const std::uint32_t> out_degree;
    std::span<const std::uint32_t> in_degree;
    std::uint64_t num_directed_edges = 0;
  };

  [[nodiscard]] static std::shared_ptr<const GraphStorage> from_arrays(
      Arrays arrays);

  /// Wraps views pointing into `file`; the storage keeps the mapping alive.
  [[nodiscard]] static std::shared_ptr<const GraphStorage> from_mapped(
      MmapFile file, const Views& views);

  [[nodiscard]] const Views& views() const noexcept { return views_; }
  [[nodiscard]] bool is_memory_mapped() const noexcept { return mapped_; }

  /// The codegree memo, one entry per CSR slot (views().neighbors.size()
  /// entries). Allocated by the first call, thread-safely, as lazily
  /// zeroed pages, so a process that never asks pays no memory and one
  /// that asks pays only for the pages it writes.
  [[nodiscard]] const CodegreeMemo& codegree_memo() const;

  /// A walk's CSR footprint (offsets plus neighbour ids, in bytes) above
  /// which hop_table() builds a table: one core's L2 on the reference
  /// host. Below it the CSR stays cached, a step's offsets load is a hit,
  /// and a table would only cost memory.
  static constexpr std::uint64_t kHopTableMinCsrBytes = std::uint64_t{2}
                                                        << 20;

  /// The hop table: entry s is {offsets[w], deg(w)} for w =
  /// views().neighbors[s], so a walk step reads its next row beside the
  /// neighbour id instead of after it. Built by the first call, on the
  /// calling thread in one O(slots) pass (8 bytes per slot), while any
  /// other caller waits. Only owned storage whose CSR footprint exceeds
  /// kHopTableMinCsrBytes and whose slot indices fit 32 bits gets one;
  /// for the rest, mapped snapshots included, it is empty, so a mapped
  /// crawl keeps touching only the pages it visits. Never serialized.
  [[nodiscard]] std::span<const Hop> hop_table() const;

 private:
  GraphStorage() = default;

  Arrays arrays_;  // populated iff !mapped_
  MmapFile file_;  // populated iff mapped_
  Views views_;
  bool mapped_ = false;
  mutable std::once_flag memo_once_;
  mutable CodegreeMemo memo_;  // assigned under memo_once_
  mutable std::once_flag hop_once_;
  mutable std::unique_ptr<Hop[]> hops_;  // assigned under hop_once_
  mutable std::span<const Hop> hop_view_;  // likewise; empty: no table
};

}  // namespace frontier
