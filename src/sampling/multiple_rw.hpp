// MultipleRW: m mutually independent random walkers (Section 4.4) — the
// naive remedy for walker trapping that the paper shows to be inferior to
// Frontier Sampling when walkers start from uniformly sampled vertices.
//
// A run records the edges of all m walkers concatenated in walker order;
// estimators aggregate them exactly as the paper does. The process and
// its Config are MultipleRwCursor (stream/sampler_cursors.hpp).
#pragma once

#include "sampling/walk_sampler.hpp"
#include "stream/sampler_cursors.hpp"

namespace frontier {

using MultipleRandomWalks = WalkSampler<MultipleRwCursor>;

}  // namespace frontier
