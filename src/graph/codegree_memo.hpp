// The graph-wide codegree memo: f(u, v) = |N(u) ∩ N(v)| remembered by the
// CSR slot of (u, v), so each edge's codegree is computed once per graph
// rather than once per sample.
//
// A GraphStorage owns one (GraphStorage::codegree_memo), and every Graph
// copy, engine and thread over that storage shares it. Its format is
// private to this class: callers see load / store by slot, and
// Graph::prefetch_codegree for the cache hint.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>

#include "core/types.hpp"

namespace frontier {

class Graph;

/// One byte per CSR slot: 0 while the slot's codegree is unknown, f + 1
/// once some reader stored f <= kMaxCodegree. Entries are read and written
/// with relaxed atomics (std::atomic_ref): every writer of an entry stores
/// the same value, so no ordering is needed. Never serialized. Slots at or
/// past size() (Graph::kNoSlot among them) are never known and never
/// stored, so an out-of-range slot cannot touch memory.
class CodegreeMemo {
 public:
  /// The largest codegree an entry holds; larger ones are never stored.
  static constexpr std::uint32_t kMaxCodegree = 254;

  /// No entries: every load() is unknown.
  CodegreeMemo() noexcept = default;
  /// `slots` unknown entries, as lazily zeroed pages (an anonymous
  /// mapping where mmap exists), so only the pages written cost memory.
  explicit CodegreeMemo(std::size_t slots);
  CodegreeMemo(CodegreeMemo&& other) noexcept;
  CodegreeMemo& operator=(CodegreeMemo&& other) noexcept;
  CodegreeMemo(const CodegreeMemo&) = delete;
  CodegreeMemo& operator=(const CodegreeMemo&) = delete;
  ~CodegreeMemo();

  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// The codegree stored at slot s, or nullopt when none is.
  [[nodiscard]] std::optional<std::uint32_t> load(EdgeIndex s) const noexcept {
    if (s >= size_) return std::nullopt;
    const std::uint32_t b = entry(s).load(std::memory_order_relaxed);
    if (b == 0) return std::nullopt;
    return b - 1;
  }

  /// Remembers codegree f at slot s; a no-op when f > kMaxCodegree or
  /// s >= size(). Const like the cache it is: it never changes a value
  /// any reader computes.
  void store(EdgeIndex s, std::uint32_t f) const noexcept {
    if (s >= size_ || f > kMaxCodegree) return;
    entry(s).store(static_cast<std::uint8_t>(f + 1),
                   std::memory_order_relaxed);
  }

 private:
  friend class Graph;  // prefetch_codegree: the one prefetch site

  [[nodiscard]] std::atomic_ref<std::uint8_t> entry(
      EdgeIndex s) const noexcept {
    return std::atomic_ref<std::uint8_t>(bytes_[s]);
  }

  void release() noexcept;

  std::uint8_t* bytes_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace frontier
