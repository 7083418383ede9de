// Flight recorder: the black box for a mediated-analysis server.
//
// The event journal (core/obs/journal.hpp) is the durable, tamper-evident
// budget record; the flight recorder is its cheap, lossy sibling — a
// bounded ring of recent *ops moments* (operator span closes, every
// journal event, serve admission/shed/refusal decisions, serve gauge
// movements) kept in memory so that when something goes wrong the last
// seconds of context survive.  `dpnet_cli serve` dumps the ring
// atomically (temp file + rename, the journal-flush idiom) alongside
// every journal flush, on fault, and at shutdown — so even a kill -9
// leaves a complete, schema-valid `dpnet.flight.v1` document on disk
// whose trailing events reconcile with the flushed journal
// (docs/observability.md, "Operating the server").
//
// Unlike the journal, the flight dump is *not* hash-chained and carries
// no budget authority: it is diagnostic context, overwritten freely,
// never replayed for recovery.  Moments carry accounting metadata only —
// kinds, labels, operator names, epsilons, queue depths — never record
// contents (dpnet-lint rule R6 pins the serialized field set).
//
// Cost: one mutex-protected ring append per *moment* (spans, events,
// decisions — never per record); one relaxed load while diagnostics are
// disarmed (core/obs/diagnostics.hpp).
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/obs/diagnostics.hpp"

namespace dpnet::core::obs {

/// One flight-recorder entry.  `kind` names what happened ("span" for an
/// operator span close, a journal event kind for mirrored events, a
/// "serve.*" decision name for admission-ladder outcomes); `value` is the
/// kind's magnitude (span wall-clock ms, charged epsilon, queue depth).
struct Moment {
  std::uint64_t seq = 0;    // arrival order, monotone per recorder
  std::int64_t ts_us = -1;  // steady-clock stamp since the trace epoch
  std::string kind;
  std::string label;        // analyst label ("" outside a labeled scope)
  double value = 0.0;
  std::string detail;       // operator / reason / failpoint — names only
};

/// Bounded moment ring.  Appends serialize on one mutex; once full the
/// oldest moment is overwritten and counted in dropped() — by design,
/// a flight recorder forgets history rather than growing or blocking.
class FlightRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = 4096;

  /// The process-wide recorder all emission sites append to.
  static FlightRecorder& global();

  explicit FlightRecorder(std::size_t capacity = kDefaultCapacity);

  void record(std::string_view kind, std::string label, double value,
              std::string detail);

  /// Moments in arrival order (oldest retained first).
  [[nodiscard]] std::vector<Moment> moments() const;

  /// Total moments ever recorded / overwritten by the bounded ring.
  [[nodiscard]] std::uint64_t recorded() const;
  [[nodiscard]] std::uint64_t dropped() const;

  /// Discards retained moments (counters and sequence numbers keep
  /// counting from where they were).
  void clear();

  /// Serializes the ring as JSONL, schema "dpnet.flight.v1": a header
  /// line {"schema","moments","dropped"} followed by one moment per
  /// line in arrival order.  No hash chain — the dump is diagnostic
  /// context, not budget state of record.
  [[nodiscard]] std::string to_jsonl() const;

  /// Atomically replaces `path` with to_jsonl(): temp file in the same
  /// directory, fsync, rename — a crash at any instant leaves either
  /// the previous complete dump or the new one, never a torn hybrid.
  /// Throws DpError on I/O failure; the `obs.flight.dump` failpoint
  /// fires between durability and publication.
  void dump_to_file(const std::string& path) const;

 private:
  mutable std::mutex mutex_;
  std::size_t capacity_;
  std::vector<Moment> ring_;  // insertion ring, oldest at head_
  std::size_t head_ = 0;
  std::uint64_t recorded_ = 0;
  std::uint64_t dropped_ = 0;
};

namespace recorder_detail {

// Out-of-line slow path: stamps the moment and appends to the global
// recorder.  Only reached while diagnostics are armed.
void emit(std::string_view kind, std::string label, double value,
          std::string detail);

}  // namespace recorder_detail

/// Emission hook.  Callers sit on per-span / per-event / per-decision
/// paths, never per record.
inline void record_moment(std::string_view kind, std::string label = {},
                          double value = 0.0, std::string detail = {}) {
  if (diagnostics_armed()) {
    recorder_detail::emit(kind, std::move(label), value, std::move(detail));
  }
}

}  // namespace dpnet::core::obs
