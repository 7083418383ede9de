// Shared plumbing for the dpnet benchmark: clocks, order statistics,
// named correctness checks, the metric report, the benchmark's own span
// log, and before/after deltas of the engine's process-wide metrics.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Linearly interpolated q-quantile (q in [0, 1]); 0 for an empty input.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Prints "check failed: <name>: <why>" to stderr and exits with code 3
/// before any result line is printed.
[[noreturn]] void fail_check(const std::string& name, const std::string& why);
inline void check(bool ok, const std::string& name, const std::string& why) {
  if (!ok) fail_check(name, why);
}

/// What one run measured: every metric it could take, by name.
struct Report {
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics;
  std::uint64_t attempted = 0;  // requests sent / analyses started
  std::uint64_t failed = 0;     // of those, not answered ok

  void set(const std::string& name, double value, const char* unit) {
    metrics[name] = Metric{value, unit};
  }
};

/// The benchmark's own spans, recorded around calls into each layer:
/// name, start, end, parent span and request id.  Kept in memory by the
/// driving thread and written out once at exit (Chrome trace format).
class SpanLog {
 public:
  struct Span {
    std::string name;
    Clock::time_point start;
    Clock::time_point end;
    int parent = -1;            // index into spans(), -1 for a root
    std::uint64_t request = 0;  // 0 when not tied to one request
    int lane = 0;               // Chrome tid: 0 generator, 1 request timeline
  };

  /// Opens a span now; close() stamps its end.
  int open(std::string name, int parent = -1, std::uint64_t request = 0);
  void close(int id);
  /// Records a finished span.
  int add(std::string name, Clock::time_point start, Clock::time_point end,
          int parent, std::uint64_t request = 0, int lane = 0);

  /// Self time per span name, ms: each span's duration minus the union of
  /// its children's intervals.
  [[nodiscard]] std::map<std::string, double> self_ms() const;

  /// Chrome trace_event JSON ({"traceEvents":[...]}).
  [[nodiscard]] std::string chrome_json() const;

 private:
  std::vector<Span> spans_;
};

/// Scoped span on a SpanLog; a no-op when the log is null (untraced run).
class SpanScope {
 public:
  SpanScope(SpanLog* log, std::string name, int parent = -1)
      : log_(log),
        id_(log != nullptr ? log->open(std::move(name), parent) : -1) {}
  ~SpanScope() {
    if (log_ != nullptr) log_->close(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  [[nodiscard]] int id() const { return id_; }

 private:
  SpanLog* log_;
  int id_;
};

/// The operator kinds the engine times in op.wall_ms.<kind>.
inline const std::vector<std::string>& op_kinds() {
  static const std::vector<std::string> kinds = {
      "where",    "select", "select_many", "group_by",  "distinct",
      "join",     "partition", "noisy_count", "noisy_sum",
      "noisy_quantile"};
  return kinds;
}

/// Values of the engine's process-wide counters and histograms at one
/// instant.  The registry accumulates across phases, so the benchmark
/// reports differences of two readings.
struct EngineCounters {
  std::uint64_t rejected = 0;
  std::uint64_t shed = 0;
  std::uint64_t deadline_aborts = 0;
  std::uint64_t releases = 0;
  std::uint64_t noise_draws = 0;
  std::uint64_t query_count = 0;
  double query_ms_sum = 0.0;
  std::map<std::string, double> op_ms;  // op.wall_ms.<kind> sums
  std::uint64_t journal_events = 0;
  std::uint64_t journal_dropped = 0;

  [[nodiscard]] static EngineCounters read();
  /// Mean of query.wall_ms from its exact sum and count (its decade
  /// buckets are too coarse for percentiles); 0 with no queries.
  [[nodiscard]] double query_ms_mean() const {
    return query_count == 0
               ? 0.0
               : query_ms_sum / static_cast<double>(query_count);
  }
  /// Field-wise this - before.
  [[nodiscard]] EngineCounters since(const EngineCounters& before) const;
  /// Field-wise sum, to total several phases.
  EngineCounters& operator+=(const EngineCounters& other);
};

/// Writes a traced run's artifact; a failure is reported on stderr and
/// does not fail the run.
void write_file(const std::string& path, const std::string& text);

/// Size of `path` in bytes, 0 when it cannot be read.
[[nodiscard]] std::uint64_t file_size(const char* path);

}  // namespace perfbench
