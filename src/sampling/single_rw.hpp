// SingleRW: the classic single random walker of Section 4. A run records
// up to `steps` edges (fewer under laziness) at cost burn_in + steps + 1
// jump; the process and its Config are SingleRwCursor
// (stream/sampler_cursors.hpp).
#pragma once

#include "sampling/walk_sampler.hpp"
#include "stream/sampler_cursors.hpp"

namespace frontier {

using SingleRandomWalk = WalkSampler<SingleRwCursor>;

}  // namespace frontier
