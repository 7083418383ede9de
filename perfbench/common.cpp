#include "common.hpp"

#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "core/json.hpp"
#include "core/metrics.hpp"
#include "core/obs/journal.hpp"

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

void fail_check(const std::string& name, const std::string& why) {
  std::fprintf(stderr, "check failed: %s: %s\n", name.c_str(), why.c_str());
  std::fflush(stderr);
  std::exit(3);
}

int SpanLog::open(std::string name, int parent, std::uint64_t request) {
  const auto now = Clock::now();
  return add(std::move(name), now, now, parent, request);
}

void SpanLog::close(int id) {
  spans_.at(static_cast<std::size_t>(id)).end = Clock::now();
}

int SpanLog::add(std::string name, Clock::time_point start,
                 Clock::time_point end, int parent, std::uint64_t request,
                 int lane) {
  spans_.push_back(Span{std::move(name), start, end, parent, request, lane});
  return static_cast<int>(spans_.size() - 1);
}

std::map<std::string, double> SpanLog::self_ms() const {
  using Interval = std::pair<Clock::time_point, Clock::time_point>;
  std::vector<std::vector<Interval>> children(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start,
                                                                s.end);
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Children may overlap (concurrent requests inside one phase), so
    // subtract the union of their intervals, clipped to the parent.
    std::vector<Interval>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    Clock::time_point reach = s.start;
    for (const auto& [b, e] : kids) {
      const Clock::time_point from = std::max(b, reach);
      const Clock::time_point to = std::min(e, s.end);
      if (to > from) {
        covered += ms_between(from, to);
        reach = to;
      }
    }
    self[s.name] += ms_between(s.start, s.end) - covered;
  }
  return self;
}

std::string SpanLog::chrome_json() const {
  const Clock::time_point origin =
      spans_.empty() ? Clock::now() : spans_.front().start;
  dpnet::core::JsonWriter w;
  w.begin_object();
  w.key("traceEvents").begin_array();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    w.begin_object();
    w.key("name").value(s.name);
    w.key("cat").value("perfbench");
    w.key("ph").value("X");
    w.key("ts").value(std::chrono::duration<double, std::micro>(
                          s.start - origin).count());
    w.key("dur").value(std::chrono::duration<double, std::micro>(
                           s.end - s.start).count());
    w.key("pid").value(std::int64_t{2});
    w.key("tid").value(static_cast<std::int64_t>(s.lane));
    w.key("args").begin_object();
    w.key("span").value(static_cast<std::int64_t>(i));
    w.key("parent").value(static_cast<std::int64_t>(s.parent));
    w.key("request").value(s.request);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

EngineCounters EngineCounters::read() {
  namespace bm = dpnet::core::builtin_metrics;
  EngineCounters c;
  c.rejected = bm::serve_requests_rejected().value();
  c.shed = bm::serve_requests_shed().value();
  c.deadline_aborts = bm::deadline_exceeded().value();
  c.releases = bm::queries_executed().value();
  c.noise_draws = bm::noise_draws().value();
  c.query_count = bm::query_wall_ms().count();
  c.query_ms_sum = bm::query_wall_ms().sum();
  for (const std::string& kind : op_kinds()) {
    c.op_ms[kind] = bm::op_wall_ms(kind).sum();
  }
  const auto& journal = dpnet::core::obs::EventJournal::global();
  c.journal_events = journal.appended();
  c.journal_dropped = journal.dropped();
  return c;
}

EngineCounters EngineCounters::since(const EngineCounters& before) const {
  EngineCounters d;
  d.rejected = rejected - before.rejected;
  d.shed = shed - before.shed;
  d.deadline_aborts = deadline_aborts - before.deadline_aborts;
  d.releases = releases - before.releases;
  d.noise_draws = noise_draws - before.noise_draws;
  d.query_count = query_count - before.query_count;
  d.query_ms_sum = query_ms_sum - before.query_ms_sum;
  for (const auto& [kind, ms] : op_ms) {
    const auto it = before.op_ms.find(kind);
    d.op_ms[kind] = ms - (it != before.op_ms.end() ? it->second : 0.0);
  }
  d.journal_events = journal_events - before.journal_events;
  d.journal_dropped = journal_dropped - before.journal_dropped;
  return d;
}

EngineCounters& EngineCounters::operator+=(const EngineCounters& other) {
  rejected += other.rejected;
  shed += other.shed;
  deadline_aborts += other.deadline_aborts;
  releases += other.releases;
  noise_draws += other.noise_draws;
  query_count += other.query_count;
  query_ms_sum += other.query_ms_sum;
  for (const auto& [kind, ms] : other.op_ms) op_ms[kind] += ms;
  journal_events += other.journal_events;
  journal_dropped += other.journal_dropped;
  return *this;
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text << '\n';
  if (!out) std::fprintf(stderr, "warning: could not write %s\n", path.c_str());
}

std::uint64_t file_size(const char* path) {
  struct stat st {};
  if (::stat(path, &st) != 0) return 0;
  return static_cast<std::uint64_t>(st.st_size);
}

}  // namespace perfbench
