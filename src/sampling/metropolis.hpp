// Metropolis–Hastings random walk (related-work baseline, Section 7).
//
// MH-RW targets the *uniform* distribution over vertices: from v, propose a
// uniform neighbor w and accept with probability min(1, deg(v)/deg(w));
// otherwise stay at v. Every step (accepted or not) emits one vertex
// sample, so the visit sequence is asymptotically uniform over V and plain
// empirical averages are unbiased. The paper cites experiments [15, 29]
// showing MH-RW is usually less accurate than the reweighted plain RW.
//
// A run's `vertices` holds the visit sequence (steps+1 entries, including
// the start) and its `edges` the accepted transitions. The process and its
// Config are MetropolisCursor (stream/sampler_cursors.hpp).
#pragma once

#include "sampling/walk_sampler.hpp"
#include "stream/sampler_cursors.hpp"

namespace frontier {

using MetropolisHastingsWalk = WalkSampler<MetropolisCursor>;

}  // namespace frontier
