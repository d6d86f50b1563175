#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <functional>
#include <iostream>
#include <set>
#include <stdexcept>
#include <thread>

#include "stats/json.hpp"

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

const char* intern(const std::string& s) {
  static std::mutex mu;
  static std::set<std::string> names;  // node-based: c_str() stays valid
  const std::lock_guard<std::mutex> lock(mu);
  return names.insert(s).first->c_str();
}

namespace {
double user_seconds(int who) {
  rusage ru{};
  if (getrusage(who, &ru) != 0) throw std::runtime_error("getrusage failed");
  return static_cast<double>(ru.ru_utime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec) / 1e6;
}
}  // namespace

double thread_user_cpu_seconds() { return user_seconds(RUSAGE_THREAD); }

double process_user_cpu_seconds() { return user_seconds(RUSAGE_SELF); }

double own_peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::uint64_t pretouch(const frontier::Graph& g) {
  // One read per 4 KiB page (and the last element) of every array.
  std::uint64_t sum = 0;
  const auto touch = [&sum](const auto span) {
    using T = typename decltype(span)::value_type;
    constexpr std::size_t kStride = 4096 / sizeof(T);
    for (std::size_t i = 0; i < span.size(); i += kStride) {
      sum += static_cast<std::uint64_t>(span[i]);
    }
    if (!span.empty()) sum += static_cast<std::uint64_t>(span.back());
  };
  touch(g.offsets());
  touch(g.neighbor_array());
  touch(g.direction_array());
  touch(g.out_degree_array());
  touch(g.in_degree_array());
  return sum;
}

void Result::set(const std::string& name, double value,
                 const std::string& unit) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics_.push_back(Metric{name, value, unit});
}

bool Result::has(const std::string& name) const {
  return std::any_of(metrics_.begin(), metrics_.end(),
                     [&](const Metric& m) { return m.name == name; });
}

void Result::check(bool ok, const std::string& what) {
  attempt();
  if (!ok) {
    fail();
    std::cerr << "perfbench: output check failed: " << what << "\n";
  }
}

std::string Result::summary_json() const {
  std::string out = "{\"summary\":{\"failed_op_frac\":" +
                    frontier::json::number(
                        attempted_ == 0 ? 0.0
                                        : static_cast<double>(failed_) /
                                              static_cast<double>(attempted_));
  for (const auto& [name, value] : notes_) {
    out += ',';
    out += frontier::json::quote(name);
    out += ':';
    out += frontier::json::number(value);
  }
  return out + "}}";
}

std::string Result::final_json() const {
  std::string out = "{\"correct\":" + frontier::json::boolean(correct()) +
                    ",\"attempted\":" + std::to_string(attempted_) +
                    ",\"failed\":" + std::to_string(failed_) +
                    ",\"metrics\":{";
  bool first = true;
  for (const Metric& m : metrics_) {
    if (!first) out += ',';
    first = false;
    // A non-finite value is a benchmark bug; print it as null so the
    // line stays valid JSON and the consumer rejects it.
    out += frontier::json::quote(m.name) + ":{\"value\":" +
           (std::isfinite(m.value) ? frontier::json::number(m.value)
                                   : std::string("null")) +
           ",\"unit\":" + frontier::json::quote(m.unit) + "}";
  }
  return out + "}}";
}

namespace {

constexpr std::size_t kMaxWrittenSpans = 200'000;

// Indices of the spans open on this thread, innermost last.
thread_local std::vector<std::size_t> t_open;

}  // namespace

Tracer::Scope::Scope(Tracer* t, const char* name, std::uint64_t request,
                     std::uint64_t count)
    : tracer_(t), index_(t == nullptr ? 0 : t->begin(name, request, count)) {}

Tracer::Scope::~Scope() {
  if (tracer_ != nullptr) tracer_->end(index_);
}

void Tracer::Scope::set_count(std::uint64_t count) {
  if (tracer_ != nullptr) tracer_->set_count(index_, count);
}

void Tracer::Scope::set_request(std::uint64_t request) {
  if (tracer_ != nullptr) tracer_->set_request(index_, request);
}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

std::size_t Tracer::begin(const char* name, std::uint64_t request,
                          std::uint64_t count) {
  const std::int64_t parent =
      t_open.empty() ? -1 : static_cast<std::int64_t>(t_open.back());
  const std::uint64_t tid =
      std::hash<std::thread::id>{}(std::this_thread::get_id());
  std::size_t index = 0;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    auto [it, inserted] = thread_ids_.try_emplace(tid, next_thread_);
    if (inserted) ++next_thread_;
    index = spans_.size();
    spans_.push_back(Span{name, 0, -1, parent, request, count, it->second});
  }
  t_open.push_back(index);
  const std::int64_t start = now_ns();
  const std::lock_guard<std::mutex> lock(mu_);
  spans_[index].start_ns = start;
  return index;
}

void Tracer::end(std::size_t index) {
  const std::int64_t end = now_ns();
  if (!t_open.empty()) t_open.pop_back();
  const std::lock_guard<std::mutex> lock(mu_);
  spans_[index].end_ns = end;
}

void Tracer::set_count(std::size_t index, std::uint64_t count) {
  const std::lock_guard<std::mutex> lock(mu_);
  spans_[index].count = count;
}

void Tracer::set_request(std::size_t index, std::uint64_t request) {
  const std::lock_guard<std::mutex> lock(mu_);
  spans_[index].request = request;
}

std::map<std::string, Tracer::Totals> Tracer::totals() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.end_ns >= 0 && s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < 0) continue;
    const double d = static_cast<double>(s.end_ns - s.start_ns);
    Totals& t = out[s.name];
    t.total_ns += d;
    t.self_ns += d - child_ns[i];
    t.count += s.count;
    ++t.spans;
  }
  return out;
}

void Tracer::write(const std::string& path) const {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write trace file " + path);
  os << "{\"spanTotals\":{";
  bool first_total = true;
  for (const auto& [name, t] : totals()) {
    if (!first_total) os << ",\n";
    first_total = false;
    os << frontier::json::quote(name)
       << ":{\"total_ns\":" << frontier::json::number(t.total_ns)
       << ",\"self_ns\":" << frontier::json::number(t.self_ns)
       << ",\"count\":" << t.count << ",\"spans\":" << t.spans << "}";
  }
  const std::lock_guard<std::mutex> lock(mu_);
  // Every span counts in spanTotals; the event list keeps the first
  // kMaxWrittenSpans so a served run's trace stays a few tens of MB.
  const std::size_t written = std::min(spans_.size(), kMaxWrittenSpans);
  os << "},\n\"droppedSpans\":" << spans_.size() - written
     << ",\n\"traceEvents\":[";
  bool first = true;
  for (std::size_t i = 0; i < written; ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < 0) continue;
    if (!first) os << ",\n";
    first = false;
    os << "{\"name\":" << frontier::json::quote(s.name)
       << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.thread
       << ",\"ts\":" << frontier::json::number(s.start_ns / 1e3)
       << ",\"dur\":" << frontier::json::number((s.end_ns - s.start_ns) / 1e3)
       << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
       << ",\"request\":" << s.request << ",\"count\":" << s.count << "}}";
  }
  os << "]}\n";
  if (!os) throw std::runtime_error("cannot write trace file " + path);
}

}  // namespace perfbench
