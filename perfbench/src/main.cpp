// perfbench_runner — runs one benchmark workload and prints its result.
//
//   perfbench_runner --workload NAME --seed N --seconds S --trace 0|1
//                    --serve-bin PATH [--trace-out FILE]
//
// Working files (graph snapshot, socket, spool) go to the current
// directory. Stdout ends with a summary line and then the result line
// {"correct":...,"attempted":...,"failed":...,"metrics":{...}}; with
// --trace 1 the metrics are the per-layer ones and the spans are written
// to --trace-out. Exit status 1 on any error, 2 on bad arguments.
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <stdexcept>
#include <string>

#include "bench.hpp"
#include "workloads.hpp"

namespace {

perfbench::Options parse(int argc, char** argv, std::string& trace_out) {
  perfbench::Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      o.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace must be 0 or 1");
      }
      o.trace = value == "1";
    } else if (flag == "--serve-bin") {
      o.serve_bin = value;
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else {
      throw std::invalid_argument("unknown option " + flag);
    }
  }
  if (o.workload.empty() || o.serve_bin.empty() || !(o.seconds > 0.0)) {
    throw std::invalid_argument(
        "--workload, --serve-bin and a positive --seconds are required");
  }
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options o;
  std::string trace_out;
  try {
    o = parse(argc, argv, trace_out);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_runner: bad argument: " << e.what() << "\n";
    return 2;
  }
  try {
    perfbench::Tracer tracer(o.trace);
    perfbench::Result result;
    std::filesystem::create_directories("spool");
    perfbench::run_workload(o, tracer, result);
    if (o.trace && !trace_out.empty()) tracer.write(trace_out);
    std::cout << result.summary_json() << "\n"
              << result.final_json() << std::endl;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_runner: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
