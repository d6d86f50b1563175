// Shared plumbing of the benchmark runner: clocks, order statistics, the
// result object printed on the last stdout line, and the span tracer the
// traced runs record around calls into each library layer.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "random/rng.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
[[nodiscard]] inline double seconds_since(Clock::time_point a) {
  return seconds_between(a, Clock::now());
}

/// User-mode CPU time used so far by the calling thread / by the whole
/// process, in seconds. Time spent waiting for a core or for I/O, and in
/// the kernel, is not in it.
[[nodiscard]] double thread_user_cpu_seconds();
[[nodiscard]] double process_user_cpu_seconds();

/// Independent sub-seed `tag` of the workload seed, so every generated
/// input (graph, crawl, replication streams) follows from --seed alone.
[[nodiscard]] inline std::uint64_t derive_seed(std::uint64_t seed,
                                               std::uint64_t tag) {
  frontier::SplitMix64 mix(seed ^ (0x9e3779b97f4a7c15ULL * (tag + 1)));
  return mix.next();
}

/// Linear-interpolated quantile q in [0,1]; 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// A copy of `s` that lives until the process exits, for span names
/// built at run time (the tracer keeps names by pointer).
[[nodiscard]] const char* intern(const std::string& s);

/// Peak resident set of this process, in MiB.
[[nodiscard]] double own_peak_rss_mib();

/// Reads every page of the graph's arrays once, so page faults are paid
/// in set-up rather than in the timed phase. Returns a checksum so the
/// reads cannot be optimized away.
[[nodiscard]] std::uint64_t pretouch(const frontier::Graph& g);

/// The benchmark's result: metrics by name (printed in insertion order),
/// the attempted/failed operation counts, and failed output checks.
class Result {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] bool has(const std::string& name) const;

  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  void fail(std::uint64_t n = 1) { failed_ += n; }
  /// Records one output check; a false `ok` counts as a failed attempt
  /// and is reported on stderr with `what`.
  void check(bool ok, const std::string& what);

  [[nodiscard]] bool correct() const { return failed_ == 0; }

  /// Auxiliary figures printed on the summary line (sample counts, the
  /// failed-op fraction) but not part of the metric set.
  void note(const std::string& name, double value) { notes_[name] = value; }

  [[nodiscard]] std::string summary_json() const;
  [[nodiscard]] std::string final_json() const;

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::map<std::string, double> notes_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// In-memory span recorder. Each span has a name, start, end, the span
/// open on the same thread when it began (its parent), a request id and
/// a work count (events, edges, bytes). Disabled tracers record nothing
/// and cost one branch per span. Thread-safe: replication workers record
/// concurrently.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  class Scope {
   public:
    Scope(Tracer* t, const char* name, std::uint64_t request,
          std::uint64_t count);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Sets the work count once it is known (e.g. events a batch took).
    void set_count(std::uint64_t count);
    /// Sets the request id once it is known (e.g. the job a slice ran).
    void set_request(std::uint64_t request);

   private:
    Tracer* tracer_;
    std::size_t index_;
  };

  [[nodiscard]] Scope span(const char* name, std::uint64_t request = 0,
                           std::uint64_t count = 0) {
    return Scope(enabled_ ? this : nullptr, name, request, count);
  }

  struct Totals {
    double total_ns = 0.0;  ///< summed span durations
    double self_ns = 0.0;   ///< durations minus direct children's
    std::uint64_t count = 0;  ///< summed work counts
    std::uint64_t spans = 0;
  };
  /// Per-name totals over every finished span recorded so far.
  [[nodiscard]] std::map<std::string, Totals> totals() const;

  /// Writes the spans as a Chrome trace-event JSON file, with the
  /// per-name totals of all spans (self time included) under
  /// "spanTotals"; beyond 200 000 spans, events are counted under
  /// "droppedSpans" instead of listed.
  void write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int64_t parent;  // -1 for roots
    std::uint64_t request;
    std::uint64_t count;
    std::uint32_t thread;
  };
  std::size_t begin(const char* name, std::uint64_t request,
                    std::uint64_t count);
  void end(std::size_t index);
  void set_count(std::size_t index, std::uint64_t count);
  void set_request(std::size_t index, std::uint64_t request);
  [[nodiscard]] std::int64_t now_ns() const;

  bool enabled_;
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
  std::uint32_t next_thread_ = 0;  // guarded by mu_
  std::map<std::uint64_t, std::uint32_t> thread_ids_;  // guarded by mu_
};

}  // namespace perfbench
