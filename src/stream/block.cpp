#include "stream/block.hpp"

#include <stdexcept>

#include "core/env.hpp"
#include "graph/graph.hpp"
#include "graph/metrics.hpp"

namespace frontier {

std::size_t default_block_capacity() {
  static const std::size_t cap = [] {
    const std::uint64_t k = env_u64("FS_BLOCK", 4096);
    return static_cast<std::size_t>(k == 0 ? 1 : k);
  }();
  return cap;
}

StreamEventBlock::StreamEventBlock(std::size_t capacity) : cap_(capacity) {
  if (cap_ == 0) {
    throw std::invalid_argument("StreamEventBlock: capacity >= 1");
  }
  u_.resize(cap_);
  v_.resize(cap_);
  deg_v_.resize(cap_);
  vertex_.resize(cap_);
  flags_.resize(cap_);
}

std::span<const std::uint32_t> StreamEventBlock::codegree(
    const Graph& g) const {
  if (codegree_graph_ != &g || codegree_rows_ != size_) {
    if (codegree_.empty()) codegree_.resize(cap_);
    // Non-edge rows keep 0; edge rows are all overwritten below.
    std::fill_n(codegree_.begin(), size_, 0u);
    for_each_edge_row_prefetched(
        *this,
        [&](std::size_t j) {
          g.prefetch_offsets(u_[j]);
          g.prefetch_offsets(v_[j]);
        },
        [&](std::size_t j) {
          g.prefetch_neighbors(u_[j]);
          g.prefetch_neighbors(v_[j]);
        },
        [&](std::size_t i) {
          codegree_[i] = shared_neighbors(g, u_[i], v_[i]);
        });
    codegree_graph_ = &g;
    codegree_rows_ = size_;
  }
  return {codegree_.data(), size_};
}

}  // namespace frontier
