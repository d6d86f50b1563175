#include "stream/block.hpp"

#include <cassert>
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
  slot_.resize(cap_);
  vertex_.resize(cap_);
  flags_.resize(cap_);
}

void StreamEventBlock::clear(const Graph& g) noexcept {
  clear();
  slot_neighbors_ = g.neighbor_array().data();
}

bool StreamEventBlock::slots_index(const Graph& g) const noexcept {
  return slot_neighbors_ != nullptr &&
         slot_neighbors_ == g.neighbor_array().data();
}

std::span<const std::uint32_t> StreamEventBlock::codegree(
    const Graph& g) const {
  if (codegree_graph_ != &g || codegree_rows_ != size_) {
    if (codegree_.empty()) codegree_.resize(cap_);
    // Non-edge rows keep 0; edge rows are all overwritten below.
    std::fill_n(codegree_.begin(), size_, 0u);
    // Rows whose slots index g look their value up in, and store it to,
    // g's memo; any other rows read the empty memo, so always compute.
    static const CodegreeMemo kNoMemo;
    const bool indexed = slots_index(g);
    const CodegreeMemo& memo = indexed ? g.codegree_memo() : kNoMemo;
    const EdgeIndex* slot = slot_.data();
    // A memoised row needs only its memo line; the rest of the chain is
    // requested up front for every row and, once the memo line has
    // landed, continued only for rows the memo does not know.
    for_each_edge_row_prefetched(
        *this,
        [&](std::size_t j) {
          Graph::prefetch_codegree(memo, slot[j]);
          g.prefetch_offsets(u_[j]);
          g.prefetch_offsets(v_[j]);
        },
        [&](std::size_t j) {
          if (memo.load(slot[j])) return;
          g.prefetch_neighbors(u_[j]);
          g.prefetch_neighbors(v_[j]);
        },
        [&](std::size_t i) {
          // A wrong slot would store a wrong value for every reader of g.
          assert(!indexed || slot[i] == g.find_slot(u_[i], v_[i]));
          if (const auto f = memo.load(slot[i])) {
            codegree_[i] = *f;
            return;
          }
          codegree_[i] = shared_neighbors(g, u_[i], v_[i]);
          memo.store(slot[i], codegree_[i]);
        });
    codegree_graph_ = &g;
    codegree_rows_ = size_;
  }
  return {codegree_.data(), size_};
}

}  // namespace frontier
