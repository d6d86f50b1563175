// Fixture: the one file allowed to name the prefetch builtin — no
// prefetch-in-graph finding here.
#pragma once

namespace fixture {

inline void prefetch_line(const void* p) noexcept {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, 0, 1);
#else
  (void)p;
#endif
}

}  // namespace fixture
