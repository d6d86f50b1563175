// The benchmark's workloads. Each builds its inputs from the seed, times
// a closed loop for the requested seconds, checks its outputs and sets
// the end-to-end metrics; with tracing on it sets the per-layer metrics
// instead.
#pragma once

#include <cstdint>
#include <string>

#include "bench.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string serve_bin;  ///< path of the frontier_serve daemon
};

/// Runs `o.workload`; throws on an unknown name or a broken environment.
/// Working files go to the current directory.
void run_workload(const Options& o, Tracer& tracer, Result& result);

}  // namespace perfbench
