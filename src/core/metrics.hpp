// Process-wide operational metrics for the privacy engine.
//
// A MetricsRegistry holds named counters, gauges, and fixed-bucket
// histograms.  All metric updates are lock-free atomics, so the streaming
// substrate and concurrent analyst threads can record without contention;
// registration (name -> metric) takes a mutex but happens once per name.
//
// The engine maintains built-in metrics on MetricsRegistry::global():
//
//   queries.executed            aggregations released (counter)
//   eps.charged.<mechanism>     privacy cost charged per mechanism (gauge,
//                               monotone: only add() is applied)
//   budget.refused              charges refused by a budget (counter)
//   noise.draws                 draws taken from any NoiseSource (counter)
//   query.wall_ms               aggregation wall-clock time (histogram)
//   queries.aborted             QueryGuard trips: deadline, cancellation,
//                               or quota (counter; one per trip)
//   deadline.exceeded           guard trips caused by deadlines (counter)
//   records.quarantined         malformed trace records skipped by the
//                               degraded ingestion path (counter)
//   faults.injected             armed failpoints fired (counter)
//   bytes.processed             trace bytes consumed by ingestion (counter)
//   budget.spent.<label>        per-analyst epsilon charged (gauge,
//                               monotone: only add() is applied)
//   budget.remaining.<label>    per-analyst headroom after the latest
//                               charge (gauge; set only while the
//                               accountant reports a finite remaining())
//   budget.refusals.<label>     per-analyst refused charges (counter)
//   budget.burn_rate.<label>    recent ε spend per second over the burn
//                               tracker's sliding window (gauge;
//                               core/obs/burn.hpp)
//   budget.eta_s.<label>        projected seconds to budget exhaustion at
//                               the current burn rate (gauge; set only
//                               while finite)
//   journal.events.dropped      events the bounded journal ring forgot
//                               because it was full (counter)
//   serve.sessions.active       analyst sessions open on the query server
//                               (gauge; src/serve/)
//   serve.queue.depth           requests admitted but not yet dispatched
//                               (gauge; src/serve/)
//   serve.requests.rejected     requests refused before admission:
//                               malformed frames, session limit, or
//                               per-analyst backpressure (counter)
//   serve.requests.shed         requests dropped because the server-wide
//                               admission queue was full (counter)
//
// Telemetry stance: metrics carry *names and numbers only* — never record
// contents (see docs/observability.md); dpnet-lint rule R6 enforces the
// serialized field set.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace dpnet::core {

/// Monotone event counter.  touched() distinguishes a counter some code
/// path actually exercised from one that was merely registered — the
/// Prometheus exposition uses it to suppress never-touched `serve.*`
/// series so scrapes of non-server processes stay clean.
class Counter {
 public:
  void increment(std::uint64_t by = 1) {
    value_.fetch_add(by, std::memory_order_relaxed);
    touched_.store(true, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] bool touched() const {
    return touched_.load(std::memory_order_relaxed);
  }
  void reset() {
    value_.store(0, std::memory_order_relaxed);
    touched_.store(false, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
  std::atomic<bool> touched_{false};
};

/// Double-valued gauge.  set() overwrites; add() accumulates atomically
/// (used for the monotone eps.charged.* series).  touched() mirrors
/// Counter::touched(): true once any update has landed since
/// registration (or the last reset()).
class Gauge {
 public:
  void set(double v) {
    value_.store(v, std::memory_order_relaxed);
    touched_.store(true, std::memory_order_relaxed);
  }
  void add(double delta) {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + delta,
                                         std::memory_order_relaxed)) {
    }
    touched_.store(true, std::memory_order_relaxed);
  }
  [[nodiscard]] double value() const {
    return value_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] bool touched() const {
    return touched_.load(std::memory_order_relaxed);
  }
  void reset() {
    value_.store(0.0, std::memory_order_relaxed);
    touched_.store(false, std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
  std::atomic<bool> touched_{false};
};

/// Fixed-bucket histogram: bucket i counts observations <= bound[i], plus
/// one overflow bucket.  Bounds are fixed at registration.
class Histogram {
 public:
  /// Point-in-time percentile summary (docs/observability.md): count and
  /// sum as read at snapshot time, plus bucket-interpolated p50/p95/p99.
  struct Snapshot {
    std::uint64_t count = 0;
    double sum = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
  };

  explicit Histogram(std::vector<double> upper_bounds)
      : bounds_(std::move(upper_bounds)),
        buckets_(bounds_.size() + 1) {}

  void observe(double v) {
    std::size_t i = 0;
    while (i < bounds_.size() && v > bounds_[i]) ++i;
    buckets_[i].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    double cur = sum_.load(std::memory_order_relaxed);
    while (!sum_.compare_exchange_weak(cur, cur + v,
                                       std::memory_order_relaxed)) {
    }
  }

  [[nodiscard]] const std::vector<double>& bounds() const { return bounds_; }
  [[nodiscard]] std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const {
    return sum_.load(std::memory_order_relaxed);
  }
  /// Count in bucket i (i == bounds().size() is the overflow bucket).
  [[nodiscard]] std::uint64_t bucket(std::size_t i) const {
    return buckets_.at(i).load(std::memory_order_relaxed);
  }

  /// Bucket-interpolated q-quantile (q in [0, 1]) — an estimate, not an
  /// exact order statistic: the rank is located in the cumulative bucket
  /// counts and interpolated linearly inside the bucket (the first
  /// bucket's lower edge is min(0, bound), the overflow bucket reports
  /// its lower bound).  Safe to call concurrently with observe(): the
  /// total is derived from the same bucket reads it ranks against, so
  /// the result is always a value the bounds could produce.
  [[nodiscard]] double percentile(double q) const;

  /// One consistent-enough view of count/sum/p50/p95/p99 for export.
  [[nodiscard]] Snapshot snapshot() const;

  void reset() {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0.0, std::memory_order_relaxed);
  }

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<std::uint64_t>> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Named metric registry.  Metric objects are created on first use and
/// live as long as the registry; returned references stay valid, so hot
/// paths can cache them.
class MetricsRegistry {
 public:
  /// The process-wide registry the engine's built-in metrics live on.
  static MetricsRegistry& global();

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// Registers (or fetches) a histogram.  Bounds must match on repeat
  /// registration of the same name.
  Histogram& histogram(std::string_view name, std::vector<double> bounds);

  /// Zeroes every metric value (names stay registered).  Test plumbing.
  void reset();

  /// Serializes a point-in-time snapshot of every metric as JSON.
  [[nodiscard]] std::string to_json() const;

  /// Serializes the registry in the Prometheus text exposition format
  /// (version 0.0.4): counters and gauges as single samples, histograms
  /// as cumulative `_bucket{le="..."}` series plus `_sum`/`_count`.
  /// Names are prefixed `dpnet_` and sanitized ('.' -> '_') so a
  /// long-running mediated session can be scraped directly.
  [[nodiscard]] std::string to_prometheus() const;

  /// Human-readable snapshot (one metric per line).
  [[nodiscard]] std::string pretty() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Built-in metric accessors (cached; safe on hot paths).
namespace builtin_metrics {

Counter& queries_executed();
Counter& refused_charges();
Counter& noise_draws();
Counter& queries_aborted();
Counter& deadline_exceeded();
Counter& records_quarantined();
Counter& faults_injected();
Counter& bytes_processed();
/// Query-server ops surface (src/serve/, docs/observability.md): session
/// count, admission-queue depth, and the two degradation counters of the
/// backpressure ladder (docs/robustness.md).
Gauge& serve_sessions_active();
Gauge& serve_queue_depth();
Counter& serve_requests_rejected();
Counter& serve_requests_shed();
/// Journal-ring overwrites (core/obs/journal.hpp): events the bounded
/// ring forgot because it was full.  Silent drop must be visible to ops.
Counter& journal_events_dropped();
Gauge& eps_charged(std::string_view mechanism);
/// Per-analyst budget gauges fed by AuditingBudget (core/audit.hpp).  An
/// empty audit label maps to "unlabeled" so the series names stay valid.
/// The Prometheus exposition renders this family with the analyst as a
/// properly-escaped label value (`dpnet_budget_spent{analyst="..."}`),
/// not folded into the metric name.
Gauge& budget_spent(std::string_view label);
Gauge& budget_remaining(std::string_view label);
Counter& budget_refusals(std::string_view label);
/// Burn-rate forecasting gauges fed by the sliding-window tracker
/// (core/obs/burn.hpp): recent ε spend per second, and the projected
/// seconds until the analyst's budget is exhausted at that rate (set
/// only while remaining() is finite and the rate is positive).
Gauge& budget_burn_rate(std::string_view label);
Gauge& budget_eta_s(std::string_view label);
Histogram& query_wall_ms();
/// Per-operator-kind wall-time histogram ("op.wall_ms.<kind>", same
/// bounds as query.wall_ms).  Registered on first use per kind.
Histogram& op_wall_ms(std::string_view kind);
/// Records `ms` into op_wall_ms(kind); a no-op while diagnostics are
/// disarmed (core/obs/diagnostics.hpp).  Called once per materialization
/// checkpoint / release — never per record.
void observe_op_wall_ms(std::string_view kind, double ms);

}  // namespace builtin_metrics

}  // namespace dpnet::core
