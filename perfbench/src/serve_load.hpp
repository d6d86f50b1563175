// The served-session side of the benchmark: the frontier_serve daemon as
// a child process, a closed-loop load generator over Unix-socket
// connections, the in-process ServeCore replay the traced run uses to
// split protocol, session and engine time from the socket, and the
// bit-identity check of every session's final estimates.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench.hpp"
#include "graph/graph.hpp"
#include "stream/spec.hpp"

namespace perfbench {

/// One connection's traffic: sessions cycle through fs, srw, mrw, mh and
/// rwj; each takes `session_requests` requests of which most are
/// `step_events`-event steps, every `estimates_every`-th an estimates
/// and every `cycle_every`-th starts checkpoint → close → open+resume.
struct LoadSpec {
  std::size_t connections = 3;
  std::uint64_t step_events = 64;
  std::size_t estimates_every = 4;
  std::size_t cycle_every = 32;
  std::size_t session_requests = 256;
  std::size_t dimension = 100;
  std::uint64_t budget = 100'000'000;  // never exhausted by a session
};

enum class ReqKind : std::uint8_t {
  kOpen,
  kStep,
  kEstimates,
  kCheckpoint,
  kClose,
  kResume,  // open with "resume":true, the second half of a cycle
  kFinalEstimates,
  kFinalClose,
};

struct SessionRecord {
  std::string id;
  frontier::CrawlSpec spec;
  std::uint64_t events = 0;   ///< events stepped over all its resumes
  std::string final_response;  ///< its last estimates response line
};

struct LoadOutcome {
  double elapsed_s = 0.0;      ///< timed phase, first send to last reply
  std::uint64_t events = 0;    ///< events stepped by timed requests
  std::uint64_t attempted = 0;  ///< every request, wind-down included
  std::uint64_t failures = 0;   ///< refused requests and bad replies
  /// Per timed request: seconds from the start to its reply, and the
  /// events it stepped.
  std::vector<double> done_at_s;
  std::vector<double> done_events;
  /// Client-side latency in µs by op ("step", "estimates", "checkpoint",
  /// "resume") plus "all".
  std::map<std::string, std::vector<double>> latency_us;
  std::vector<SessionRecord> sessions;  ///< closed sessions
  /// Timed requests per connection, in send order (when recorded).
  std::vector<std::vector<std::pair<ReqKind, std::string>>> sent;
};

/// Runs the closed loop: each connection sends its next request only
/// after the previous reply. New requests stop after `seconds` or after
/// `max_requests` per connection; then every open session gets its final
/// estimates and close. Session ids start with `tag`.
[[nodiscard]] LoadOutcome run_load(const std::string& socket,
                                   const LoadSpec& spec, std::uint64_t seed,
                                   const std::string& tag, double seconds,
                                   std::size_t max_requests, bool record);

/// The daemon child process. The destructor kills and reaps it if it is
/// still running.
class Daemon {
 public:
  Daemon(const std::string& serve_bin, const std::string& graph_path,
         const std::string& socket, const std::string& spool,
         const std::string& log_path);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Blocks until the socket accepts a connection; throws on timeout or
  /// if the daemon exits first.
  void wait_ready(double timeout_s);
  /// VmHWM of the daemon, in MiB.
  [[nodiscard]] double peak_rss_mib() const;
  /// CPU time the daemon has used so far, in seconds.
  struct CpuTimes {
    double user = 0.0;
    double system = 0.0;
  };
  [[nodiscard]] CpuTimes cpu_times() const;
  /// Sends a shutdown request and reaps the process; throws if it does
  /// not exit cleanly.
  void shutdown();

 private:
  std::string socket_;
  std::string log_path_;
  pid_t pid_ = -1;
};

/// Replays every session in-process (CrawlSpec::make_engine, same event
/// count) and checks its final estimates line byte for byte.
void verify_sessions(const frontier::Graph& g,
                     const std::vector<SessionRecord>& sessions,
                     Result& result);

/// Replays `sent` through an in-process ServeCore over `g`, connections
/// interleaved as the daemon's poll loop would, with spans around
/// parse_request, handle_line and pump_slice. Sets the serve.* layer
/// metrics; `socket` is the untraced run the replay mirrors. Returns the
/// replay's events per second.
double replay_in_process(const frontier::Graph& g, const std::string& spool,
                         const LoadOutcome& socket, Tracer& tracer,
                         Result& result);

}  // namespace perfbench
