#include "serve_load.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <deque>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "stats/json.hpp"

extern char** environ;

namespace perfbench {
namespace {

/// Owns one socket descriptor.
class UniqueFd {
 public:
  explicit UniqueFd(int fd) : fd_(fd) {}
  UniqueFd(UniqueFd&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}
  UniqueFd& operator=(UniqueFd&&) = delete;
  UniqueFd(const UniqueFd&) = delete;
  UniqueFd& operator=(const UniqueFd&) = delete;
  ~UniqueFd() {
    if (fd_ >= 0) ::close(fd_);
  }
  [[nodiscard]] int get() const noexcept { return fd_; }

 private:
  int fd_;
};

int connect_unix(const std::string& path) {
  sockaddr_un addr{};
  if (path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("socket path too long: " + path);
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket(): " + std::string(strerror(errno)));
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

void send_line(int fd, const std::string& line) {
  const std::string msg = line + "\n";
  std::size_t off = 0;
  while (off < msg.size()) {
    const ssize_t n = ::write(fd, msg.data() + off, msg.size() - off);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw std::runtime_error("send: " + std::string(strerror(errno)));
    off += static_cast<std::size_t>(n);
  }
}

/// Blocking read of one reply line (for the control connection).
std::string read_line(int fd) {
  std::string line;
  char ch = 0;
  while (true) {
    const ssize_t n = ::read(fd, &ch, 1);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw std::runtime_error("daemon closed the connection");
    if (ch == '\n') return line;
    line += ch;
  }
}

bool is_ok(const std::string& response) {
  return response.rfind("{\"ok\":true", 0) == 0;
}

std::uint64_t field_u64(const std::string& response, const char* key) {
  const std::string k = std::string("\"") + key + "\":";
  const auto pos = response.find(k);
  if (pos == std::string::npos) return 0;
  return std::strtoull(response.c_str() + pos + k.size(), nullptr, 10);
}

/// Deterministic request sequence of one connection.
class ConnScript {
 public:
  ConnScript(const LoadSpec& spec, std::uint64_t seed, std::string prefix,
             std::size_t conn)
      : spec_(spec), seed_(seed), prefix_(std::move(prefix)), conn_(conn) {
    next_session();
  }

  [[nodiscard]] bool finished() const { return finished_; }
  [[nodiscard]] ReqKind kind() const { return ops_[pos_]; }
  [[nodiscard]] SessionRecord& session() { return record_; }

  [[nodiscard]] std::string line() const {
    const std::string sess = "\"session\":\"" + record_.id + "\"";
    switch (ops_[pos_]) {
      case ReqKind::kOpen:
      case ReqKind::kResume: {
        const frontier::CrawlSpec& s = record_.spec;
        return "{\"op\":\"open\"," + sess + ",\"method\":\"" + s.method +
               "\",\"budget\":" +
               std::to_string(static_cast<std::uint64_t>(s.budget)) +
               ",\"seed\":" + std::to_string(s.seed) +
               ",\"dimension\":" + std::to_string(s.dimension) +
               (ops_[pos_] == ReqKind::kResume ? ",\"resume\":true}" : "}");
      }
      case ReqKind::kStep:
        return "{\"op\":\"step\"," + sess +
               ",\"events\":" + std::to_string(spec_.step_events) + "}";
      case ReqKind::kEstimates:
      case ReqKind::kFinalEstimates:
        return "{\"op\":\"estimates\"," + sess + "}";
      case ReqKind::kCheckpoint:
        return "{\"op\":\"checkpoint\"," + sess + "}";
      case ReqKind::kClose:
      case ReqKind::kFinalClose:
        return "{\"op\":\"close\"," + sess + "}";
    }
    return {};
  }

  /// Moves past the answered request. Returns the finished session's
  /// record when that request closed it for good.
  bool advance(SessionRecord* closed) {
    const bool closing = ops_[pos_] == ReqKind::kFinalClose;
    ++pos_;
    if (winding_down_ && pos_ < ops_.size()) skip_to_final();
    if (closing) {
      *closed = std::move(record_);
      if (winding_down_) {
        finished_ = true;
      } else {
        next_session();
      }
    }
    return closing;
  }

  /// No new sessions; the current one ends after any cycle in flight.
  void wind_down() {
    if (winding_down_) return;
    winding_down_ = true;
    if (pos_ == 0) {
      finished_ = true;  // next session not opened yet
      return;
    }
    skip_to_final();
  }

 private:
  void skip_to_final() {
    const ReqKind k = ops_[pos_];
    if (k == ReqKind::kStep || k == ReqKind::kEstimates ||
        k == ReqKind::kCheckpoint) {
      pos_ = ops_.size() - 2;
    }
  }

  void next_session() {
    static const char* const kMethods[] = {"fs", "srw", "mrw", "mh", "rwj"};
    record_ = SessionRecord{};
    // Every session has a fresh id, as independent clients' sessions do,
    // so each leaves its own checkpoint file in the spool.
    record_.spec.method = kMethods[(index_ + conn_) % 5];
    record_.id = prefix_ + "c" + std::to_string(conn_) + "-" +
                 std::to_string(index_);
    record_.spec.budget = static_cast<double>(spec_.budget);
    record_.spec.dimension = spec_.dimension;
    record_.spec.seed =
        derive_seed(seed_, (conn_ << 32) + index_) & ((1ULL << 53) - 1);
    ++index_;
    ops_.clear();
    ops_.push_back(ReqKind::kOpen);
    for (std::size_t k = 1; k <= spec_.session_requests; ++k) {
      if (k % spec_.cycle_every == 0) {
        ops_.push_back(ReqKind::kCheckpoint);
        ops_.push_back(ReqKind::kClose);
        ops_.push_back(ReqKind::kResume);
      } else if (k % spec_.estimates_every == 0) {
        ops_.push_back(ReqKind::kEstimates);
      } else {
        ops_.push_back(ReqKind::kStep);
      }
    }
    ops_.push_back(ReqKind::kFinalEstimates);
    ops_.push_back(ReqKind::kFinalClose);
    pos_ = 0;
  }

  const LoadSpec& spec_;
  std::uint64_t seed_;
  std::string prefix_;
  std::size_t conn_;
  std::size_t index_ = 0;
  std::vector<ReqKind> ops_;
  std::size_t pos_ = 0;
  SessionRecord record_;
  bool winding_down_ = false;
  bool finished_ = false;
};

const char* latency_class(ReqKind k) {
  switch (k) {
    case ReqKind::kStep:
      return "step";
    case ReqKind::kEstimates:
    case ReqKind::kFinalEstimates:
      return "estimates";
    case ReqKind::kCheckpoint:
      return "checkpoint";
    case ReqKind::kResume:
      return "resume";
    default:
      return nullptr;
  }
}

/// Span names must outlive the tracer, so they are literals.
const char* handle_span(ReqKind k) {
  switch (k) {
    case ReqKind::kOpen:
      return "serve.handle.open";
    case ReqKind::kStep:
      return "serve.handle.step";
    case ReqKind::kEstimates:
    case ReqKind::kFinalEstimates:
      return "serve.handle.estimates";
    case ReqKind::kCheckpoint:
      return "serve.handle.checkpoint";
    case ReqKind::kClose:
    case ReqKind::kFinalClose:
      return "serve.handle.close";
    case ReqKind::kResume:
      return "serve.handle.resume";
  }
  return "serve.handle.unknown";
}

/// The op name of a request kind ("resume" for kResume).
const char* kind_name(ReqKind k) {
  switch (k) {
    case ReqKind::kOpen:
      return "open";
    case ReqKind::kStep:
      return "step";
    case ReqKind::kEstimates:
    case ReqKind::kFinalEstimates:
      return "estimates";
    case ReqKind::kCheckpoint:
      return "checkpoint";
    case ReqKind::kClose:
    case ReqKind::kFinalClose:
      return "close";
    case ReqKind::kResume:
      return "resume";
  }
  return "unknown";
}

}  // namespace

LoadOutcome run_load(const std::string& socket, const LoadSpec& spec,
                     std::uint64_t seed, const std::string& tag,
                     double seconds, std::size_t max_requests, bool record) {
  struct Conn {
    UniqueFd fd;
    ConnScript script;
    std::string in;
    Clock::time_point sent_at{};
    bool timed = false;
    std::size_t requests = 0;
  };
  LoadOutcome out;
  out.sent.resize(record ? spec.connections : 0);
  std::deque<Conn> conns;
  for (std::size_t c = 0; c < spec.connections; ++c) {
    const int fd = connect_unix(socket);
    if (fd < 0) throw std::runtime_error("cannot connect to " + socket);
    conns.push_back(
        Conn{UniqueFd(fd), ConnScript(spec, seed, tag, c), {}, {}, false, 0});
  }

  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  Clock::time_point last_timed = start;
  const auto send_next = [&](Conn& c, std::size_t index) {
    c.timed = Clock::now() < deadline && c.requests < max_requests;
    if (!c.timed) c.script.wind_down();
    if (c.script.finished()) return;
    const std::string line = c.script.line();
    if (record && c.timed) out.sent[index].emplace_back(c.script.kind(), line);
    ++c.requests;
    c.sent_at = Clock::now();
    send_line(c.fd.get(), line);
  };
  for (std::size_t i = 0; i < conns.size(); ++i) send_next(conns[i], i);

  std::vector<pollfd> fds;
  char buf[65536];
  while (true) {
    fds.clear();
    std::vector<std::size_t> index;
    for (std::size_t i = 0; i < conns.size(); ++i) {
      if (!conns[i].script.finished()) {
        fds.push_back(pollfd{conns[i].fd.get(), POLLIN, 0});
        index.push_back(i);
      }
    }
    if (fds.empty()) break;
    const int ready = ::poll(fds.data(), fds.size(), 30000);
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) throw std::runtime_error("daemon stopped answering");
    for (std::size_t f = 0; f < fds.size(); ++f) {
      if (fds[f].revents == 0) continue;
      Conn& c = conns[index[f]];
      const ssize_t n = ::read(c.fd.get(), buf, sizeof(buf));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw std::runtime_error("daemon dropped a connection");
      c.in.append(buf, static_cast<std::size_t>(n));
      std::size_t nl = 0;
      while ((nl = c.in.find('\n')) != std::string::npos) {
        const Clock::time_point now = Clock::now();
        const std::string response = c.in.substr(0, nl);
        c.in.erase(0, nl + 1);
        const ReqKind kind = c.script.kind();
        ++out.attempted;
        if (!is_ok(response)) {
          ++out.failures;
          std::cerr << "perfbench: request refused: " << response << "\n";
        }
        std::uint64_t stepped = 0;
        if (kind == ReqKind::kStep) {
          stepped = field_u64(response, "stepped");
          if (stepped != spec.step_events) ++out.failures;
          c.script.session().events += stepped;
          if (c.timed) out.events += stepped;
        }
        if (kind == ReqKind::kFinalEstimates) {
          c.script.session().final_response = response;
        }
        if (c.timed) {
          const double us =
              std::chrono::duration<double, std::micro>(now - c.sent_at)
                  .count();
          last_timed = now;
          out.done_at_s.push_back(seconds_between(start, now));
          out.done_events.push_back(static_cast<double>(stepped));
          out.latency_us["all"].push_back(us);
          if (const char* cls = latency_class(kind)) {
            out.latency_us[cls].push_back(us);
          }
        }
        SessionRecord closed;
        if (c.script.advance(&closed)) out.sessions.push_back(std::move(closed));
        send_next(c, index[f]);
        if (c.script.finished()) break;
      }
    }
  }
  out.elapsed_s = seconds_between(start, last_timed);
  return out;
}

Daemon::Daemon(const std::string& serve_bin, const std::string& graph_path,
               const std::string& socket, const std::string& spool,
               const std::string& log_path)
    : socket_(socket), log_path_(log_path) {
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, log_path.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);
  std::vector<std::string> args = {serve_bin, graph_path, "--socket",
                                   socket,    "--spool",  spool,
                                   "--mmap"};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  const int rc = posix_spawn(&pid_, serve_bin.c_str(), &actions, nullptr,
                             argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    pid_ = -1;
    throw std::runtime_error("cannot start " + serve_bin + ": " +
                             strerror(rc));
  }
}

Daemon::~Daemon() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGKILL);
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
}

void Daemon::wait_ready(double timeout_s) {
  const Clock::time_point start = Clock::now();
  while (seconds_since(start) < timeout_s) {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      throw std::runtime_error("frontier_serve exited during start-up; see " +
                               log_path_);
    }
    const int fd = connect_unix(socket_);
    if (fd >= 0) {
      ::close(fd);
      return;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  throw std::runtime_error("frontier_serve did not accept connections");
}

double Daemon::peak_rss_mib() const {
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kib = 0.0;
      status >> kib;
      return kib / 1024.0;
    }
    std::getline(status, key);
  }
  throw std::runtime_error("no VmHWM for the daemon");
}

Daemon::CpuTimes Daemon::cpu_times() const {
  std::ifstream stat("/proc/" + std::to_string(pid_) + "/stat");
  std::string line;
  std::getline(stat, line);
  // Fields after the parenthesised command name; utime and stime are
  // fields 14 and 15 of the whole line, in clock ticks.
  const auto close = line.rfind(')');
  if (close == std::string::npos) {
    throw std::runtime_error("no /proc stat for the daemon");
  }
  std::istringstream fields(line.substr(close + 2));
  std::string skip;
  for (int i = 3; i < 14; ++i) fields >> skip;
  double utime = 0.0;
  double stime = 0.0;
  fields >> utime >> stime;
  if (!fields) throw std::runtime_error("bad /proc stat for the daemon");
  const auto ticks = static_cast<double>(::sysconf(_SC_CLK_TCK));
  return {utime / ticks, stime / ticks};
}

void Daemon::shutdown() {
  std::string reply;
  {
    const UniqueFd fd(connect_unix(socket_));
    if (fd.get() < 0) {
      throw std::runtime_error("cannot reach the daemon to stop it");
    }
    send_line(fd.get(), "{\"op\":\"shutdown\"}");
    reply = read_line(fd.get());
  }
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  pid_ = -1;
  if (!is_ok(reply) || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("frontier_serve did not shut down cleanly");
  }
}

void verify_sessions(const frontier::Graph& g,
                     const std::vector<SessionRecord>& sessions,
                     Result& result) {
  for (const SessionRecord& s : sessions) {
    const frontier::CrawlSpec spec = s.spec.normalized();
    const auto engine = spec.make_engine(g);
    engine->pump(s.events);
    const std::string expected = frontier::serve::ok_response(
        frontier::serve::Op::kEstimates,
        "\"session\":" + frontier::json::quote(s.id) + "," +
            frontier::estimates_fields(spec, *engine));
    result.check(expected == s.final_response,
                 "session " + s.id + " estimates differ from replay");
  }
}

double replay_in_process(const frontier::Graph& g, const std::string& spool,
                         const LoadOutcome& socket, Tracer& tracer,
                         Result& result) {
  namespace fs = frontier::serve;
  fs::ServeCore core(g, fs::ServeLimits{}, spool, Clock::now());
  struct Virtual {
    std::size_t next = 0;
    bool waiting = false;  // a deferred step is queued
    std::uint64_t request = 0;
    Clock::time_point accepted{};
    double handled_us = 0.0;
  };
  std::vector<Virtual> conns(socket.sent.size());
  std::map<std::string, std::vector<double>> handle_us;
  std::vector<double> parse_ns, slice_us, wait_us, request_us;
  double busy_us = 0.0;
  std::uint64_t events = 0;
  std::uint64_t request_id = 0;

  const Clock::time_point start = Clock::now();
  const auto us = [](Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::micro>(b - a).count();
  };
  bool progress = true;
  while (progress) {
    progress = false;
    // Service input like the poll loop: highest connection first.
    for (std::size_t i = conns.size(); i-- > 0;) {
      Virtual& v = conns[i];
      if (v.waiting || v.next >= socket.sent[i].size()) continue;
      const auto& [kind, line] = socket.sent[i][v.next++];
      progress = true;
      v.request = ++request_id;
      const auto root = tracer.span("serve.request", v.request);
      const Clock::time_point p0 = Clock::now();
      {
        const auto s = tracer.span("serve.protocol.parse", v.request);
        (void)fs::parse_request(line);
      }
      const Clock::time_point h0 = Clock::now();
      fs::ServeCore::Outcome o;
      {
        const auto s = tracer.span(handle_span(kind), v.request);
        o = core.handle_line(i, line, h0);
      }
      const Clock::time_point h1 = Clock::now();
      parse_ns.push_back(us(p0, h0) * 1e3);
      handle_us[kind_name(kind)].push_back(us(h0, h1));
      busy_us += us(h0, h1);
      if (!is_ok(o.response) && !o.deferred) {
        result.check(false, "in-process replay refused: " + o.response);
      }
      if (o.deferred) {
        v.waiting = true;
        v.accepted = h1;
        v.handled_us = us(h0, h1);
      } else {
        request_us.push_back(us(h0, h1));
      }
    }
    for (int k = 0; k < 4 && core.has_runnable(); ++k) {
      progress = true;
      const Clock::time_point s0 = Clock::now();
      std::optional<fs::ServeCore::Completed> done;
      {
        auto s = tracer.span("serve.pump_slice");
        done = core.pump_slice(s0);
        if (done) s.set_request(conns[done->conn].request);
      }
      const Clock::time_point s1 = Clock::now();
      slice_us.push_back(us(s0, s1));
      busy_us += us(s0, s1);
      if (done) {
        Virtual& v = conns[done->conn];
        wait_us.push_back(us(v.accepted, s0));
        request_us.push_back(v.handled_us + us(s0, s1));
        events += field_u64(done->response, "stepped");
        v.waiting = false;
      }
    }
  }
  const double elapsed = seconds_since(start);

  result.set("serve.protocol.parse_ns", median(parse_ns), "ns");
  for (const char* op :
       {"open", "resume", "step", "estimates", "checkpoint", "close"}) {
    result.set(std::string("serve.handle.") + op + "_us",
               median(handle_us[op]), "us");
  }
  result.set("serve.pump_slice_us", median(slice_us), "us");
  result.set("serve.step_wait_us", median(wait_us), "us");
  result.set("serve.busy_frac", busy_us / 1e6 / socket.elapsed_s, "ratio");
  const auto all = socket.latency_us.find("all");
  result.set("serve.transport_us",
             (all == socket.latency_us.end() ? 0.0 : median(all->second)) -
                 median(request_us),
             "us");
  return static_cast<double>(events) / elapsed;
}

}  // namespace perfbench
