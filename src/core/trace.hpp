// Query-plan tracing: a span tree recording what a pipeline actually did.
//
// The mediated-analysis model (paper §7) asks the data owner to see *what*
// an analyst's query did — which operators ran, what stability factors
// multiplied the charge, and where the epsilon went.  A QueryTrace captures
// exactly that: one TraceSpan per operator (Where/Select/GroupBy/Partition/
// Join/aggregation) with operator name, stability factor, input/output row
// counts, epsilon charged, mechanism used, and wall-clock time.  Spans nest:
// materializing a lazy pipeline records the upstream operators as children
// of the aggregation that forced them, and an analyst-opened TraceScope
// groups whatever runs inside it (per-partition subqueries, named phases).
//
// Recording is per-thread: a TraceSession installs a QueryTrace as the
// current thread's sink, so concurrent analyst threads trace independently.
// With no session installed the instrumentation is a single thread-local
// pointer check per *operator* (never per record) — zero-overhead on the
// hot path, benchmarked in bench_micro_engine.
//
// Privacy stance: spans expose accounting metadata and cardinalities that
// are already visible to the trusted side.  They never contain record
// contents (enforced by dpnet-lint rule R6; see docs/observability.md).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace dpnet::core {

/// One node of the query-plan trace.
struct TraceSpan {
  std::string op;           // operator / aggregation / scope name
  std::string detail;       // partition part, scope annotation ("" if none)
  double stability = 0.0;   // operator factor, or total stability at release
  std::int64_t input_rows = -1;   // -1: not applicable / not recorded
  std::int64_t output_rows = -1;
  double eps_requested = 0.0;  // analyst-chosen accuracy (aggregations)
  double eps_charged = 0.0;    // total charged across all accountants
  std::string mechanism;       // "laplace" / "geometric" / "exponential"
  double wall_ms = 0.0;
  // Timeline stamps (docs/observability.md): steady-clock begin relative
  // to the process-wide trace epoch and span duration, both in
  // microseconds, plus the executor worker lane that recorded the span
  // (-1 = the calling/analyst thread).  Every span gets them at open/close
  // — including spans whose body aborted — so timeline exports never
  // contain unterminated events.
  std::int64_t ts_us = -1;
  std::int64_t dur_us = -1;
  int worker = -1;
  std::vector<TraceSpan> children;
};

/// A recorded span tree for one traced session.
class QueryTrace {
 public:
  [[nodiscard]] const std::vector<TraceSpan>& roots() const { return roots_; }
  [[nodiscard]] bool empty() const { return roots_.empty(); }
  void clear();

  /// Moves `worker`'s finished root spans into this trace at the current
  /// insertion point (the open span's children, or the root list).  The
  /// executor records each parallel task into a private per-worker trace
  /// and merges them back in task order, so the merged tree has the same
  /// shape the sequential engine would have produced.  Appending to the
  /// top-of-stack children preserves the pointer-stability invariant
  /// documented above.  A worker trace with open scopes is not merged.
  void merge_from(QueryTrace&& worker);

  /// Sum of eps_charged over the whole tree.
  [[nodiscard]] double total_eps_charged() const;

  /// eps_charged grouped by operator name over the whole tree.
  [[nodiscard]] std::map<std::string, double> eps_by_op() const;

  /// Serializes the span tree as JSON: {"spans": [...]}.
  [[nodiscard]] std::string to_json() const;

  /// Serializes the span tree in the Chrome trace_event format (the JSON
  /// object form: {"traceEvents": [...]}), loadable in ui.perfetto.dev or
  /// chrome://tracing.  Every span becomes one complete ("ph":"X") event
  /// — closed by construction, even for spans whose operator aborted — on
  /// the lane (tid) of the executor worker that recorded it, so parallel
  /// map_parts fan-outs render as per-worker swimlanes.  Carries the same
  /// accounting metadata as to_json(), never record contents.
  [[nodiscard]] std::string to_chrome_json() const;

  /// Indented human-readable rendering of the span tree.
  [[nodiscard]] std::string pretty() const;

 private:
  friend class TraceScope;
  friend class TraceSession;

  // Only the top-of-stack span's children vector is ever appended to, so
  // every pointer on the stack stays valid (a span never moves while any
  // of its ancestors hold open scopes).
  std::vector<TraceSpan> roots_;
  std::vector<TraceSpan*> stack_;
};

namespace trace_detail {

inline thread_local QueryTrace* tls_sink = nullptr;

// Executor worker lane recording on this thread (-1 = calling thread).
inline thread_local int tls_worker = -1;

// The process-wide steady-clock origin all span timestamps are relative
// to, so spans recorded on different executor workers share one timeline.
[[nodiscard]] std::chrono::steady_clock::time_point trace_epoch();

}  // namespace trace_detail

/// The QueryTrace currently recording on this thread, or nullptr.
[[nodiscard]] inline QueryTrace* active_trace() {
  return trace_detail::tls_sink;
}

/// The executor worker index spans opened on this thread are stamped
/// with (-1 on the calling/analyst thread).  Set by the executor's
/// thread pool for each worker's lifetime; nothing else should call the
/// setter.
[[nodiscard]] inline int trace_worker() { return trace_detail::tls_worker; }
inline void set_trace_worker(int index) { trace_detail::tls_worker = index; }

/// Installs `trace` as this thread's recording sink for its lifetime;
/// restores the previous sink (sessions nest) on destruction.
class TraceSession {
 public:
  explicit TraceSession(QueryTrace& trace)
      : previous_(trace_detail::tls_sink) {
    trace_detail::tls_sink = &trace;
  }
  ~TraceSession() { trace_detail::tls_sink = previous_; }

  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

 private:
  QueryTrace* previous_;
};

/// RAII span: opens a child of the current span (or a new root) on the
/// thread's active trace, records wall-clock time, and closes on
/// destruction.  A no-op (and cheap) when no trace is active.
class TraceScope {
 public:
  explicit TraceScope(std::string op);
  ~TraceScope();

  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

  /// True when a span is actually being recorded.
  [[nodiscard]] bool active() const { return span_ != nullptr; }

  void set_stability(double s) {
    if (span_ != nullptr) span_->stability = s;
  }
  void set_rows(std::int64_t in, std::int64_t out) {
    if (span_ != nullptr) {
      span_->input_rows = in;
      span_->output_rows = out;
    }
  }
  void set_eps(double requested, double charged) {
    if (span_ != nullptr) {
      span_->eps_requested = requested;
      span_->eps_charged = charged;
    }
  }
  // dpnet-lint: suppress(R3)  (void setter, not a release mechanism)
  void set_mechanism(std::string mechanism) {
    if (span_ != nullptr) span_->mechanism = std::move(mechanism);
  }
  void set_detail(std::string detail) {
    if (span_ != nullptr) span_->detail = std::move(detail);
  }
  [[nodiscard]] double eps_charged() const {
    return span_ != nullptr ? span_->eps_charged : 0.0;
  }

 private:
  QueryTrace* trace_ = nullptr;
  TraceSpan* span_ = nullptr;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace dpnet::core
