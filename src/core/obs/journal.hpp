// Privacy event journal: the durable, tamper-evident ops record for a
// mediated-analysis service.
//
// The audit ledger (core/audit.hpp) accounts for successful charges only
// and dies with the process; the data owner operating the paper's §3
// mediated model also needs the *events* — refusals, guard aborts, task
// lifecycle, injected faults, quarantined records — in a form that can be
// flushed to disk, shipped off-box, and verified offline.  EventJournal
// is that record in memory: an append-only, bounded, lock-protected ring
// of structured events, written as schema-versioned JSONL
// ("dpnet.events.v1") — a whole document (flush_to_file) or the query
// server's sealed log (JournalLog) — whose records are FNV-1a
// hash-chained (the same fingerprint idiom as dpnet-lint) so a single
// flipped byte breaks the chain.  `dpnet_cli audit verify` replays a
// journal and reconciles its epsilon sums against the audit ledger and
// the query trace (docs/observability.md).
//
// Determinism: the canonical flush stable-sorts events by their causal
// key (plan-node id for charges/refusals, a salted task index for
// executor lifecycle events) and renumbers sequence ids, and it omits
// wall-clock timestamps — so parallel runs of the same pipeline flush a
// byte-identical canonical journal at any thread count, exactly like the
// canonical audit ledger (docs/architecture.md).  The arrival-order
// flush and the sealed log keep timestamps and original sequence numbers.
//
// Privacy stance: events carry accounting metadata only — kinds, labels,
// node ids, epsilons, operator/mechanism names — never record contents.
// dpnet-lint rule R6 pins the serialized field set.
//
// Overhead: emission sites compile down to one relaxed atomic load when
// the journal is disarmed (set_journal_armed(false)); the armed cost is
// one mutex-protected ring append per *event* (releases, tasks, faults —
// never per record).  bench_micro_engine A/Bs both configurations under
// the same <2% bound as the tracing layer (bench_schema_check).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/hash.hpp"

namespace dpnet::core::obs {

/// What happened.  Names are serialized; keep them in sync with
/// event_kind_name() and docs/observability.md.
enum class EventKind : std::uint8_t {
  kCharge,      // a budget admitted an epsilon charge
  kRefusal,     // a budget refused a charge (nothing was consumed)
  kAbort,       // a QueryGuard tripped (deadline/cancel/quota)
  kTaskBegin,   // an executor task started
  kTaskEnd,     // an executor task finished ("ok" or "error" in detail)
  kFault,       // an armed failpoint fired
  kQuarantine,  // the degraded trace reader skipped a malformed record
  kBudgetAlert,  // burn-rate forecast crossed the armed ETA threshold
};

[[nodiscard]] constexpr const char* event_kind_name(EventKind k) {
  switch (k) {
    case EventKind::kCharge: return "charge";
    case EventKind::kRefusal: return "refusal";
    case EventKind::kAbort: return "abort";
    case EventKind::kTaskBegin: return "task.begin";
    case EventKind::kTaskEnd: return "task.end";
    case EventKind::kFault: return "fault";
    case EventKind::kQuarantine: return "quarantine";
    case EventKind::kBudgetAlert: return "budget.alert";
  }
  return "unknown";
}

/// One journal record.  `node_id` doubles as the causal key the
/// canonical flush sorts on: the charging plan node for charge/refusal/
/// fault events, mix64(kTaskSalt, index) for task lifecycle events, 0
/// for process-scoped events (aborts, quarantines).
struct Event {
  std::uint64_t seq = 0;    // arrival order, monotone per journal
  std::int64_t ts_us = -1;  // steady-clock stamp since the trace epoch
  EventKind kind = EventKind::kCharge;
  std::string label;        // analyst label ("" outside a labeled scope)
  std::uint64_t node_id = 0;
  double eps = 0.0;
  std::string detail;       // mechanism / failpoint / reason — names only
};

/// FNV-1a over `text`, continuing from `basis` — the hash-chain
/// primitive.  Chain link i is fnv1a(record-body i, link i-1), so
/// changing any byte of any record invalidates every later link.
inline constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
[[nodiscard]] inline std::uint64_t fnv1a(std::string_view text,
                                         std::uint64_t basis = kFnvOffset) {
  std::uint64_t h = basis;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

/// Salt mixed with the executor task index to form task-event causal
/// keys (keeps them disjoint from plan-node ids, which mix from the
/// plan-shape salts).
inline constexpr std::uint64_t kTaskSalt = 0x6a6f75726e616c74ULL;

/// Append-only bounded event ring.  All appends are serialized on one
/// mutex; once full, the oldest event is overwritten and counted in
/// dropped() — the journal degrades by forgetting history, never by
/// blocking the engine.
class EventJournal {
 public:
  static constexpr std::size_t kDefaultCapacity = 65536;

  /// The process-wide journal all engine emission sites append to.
  static EventJournal& global();

  explicit EventJournal(std::size_t capacity = kDefaultCapacity);

  void append(EventKind kind, std::string label, std::uint64_t node_id,
              double eps, std::string detail);

  /// Events in arrival order (oldest retained first).
  [[nodiscard]] std::vector<Event> events() const;

  /// Events in canonical flush order: stable-sorted by causal key, so
  /// one node's (or task's) events keep their per-thread order while the
  /// cross-thread interleaving becomes schedule-independent.
  [[nodiscard]] std::vector<Event> canonical_events() const;

  /// Total events ever appended / overwritten by the bounded ring.
  [[nodiscard]] std::uint64_t appended() const;
  [[nodiscard]] std::uint64_t dropped() const;

  /// Discards retained events (appended/dropped counters keep counting
  /// from where they were; sequence numbers stay monotone).
  void clear();

  /// Serializes the journal as hash-chained JSONL, schema
  /// "dpnet.events.v1": a header line {"schema","events","dropped",
  /// "chain"} followed by one record per line, each ending in a "chain"
  /// field over every byte that precedes it (including all earlier
  /// lines).  `canonical` (the default) emits the schedule-independent
  /// ordering with renumbered seq and no timestamps — byte-identical
  /// across thread counts for a fixed seed; arrival order keeps seq and
  /// ts_us for tailing.
  [[nodiscard]] std::string to_jsonl(bool canonical = true) const;

  /// Atomically replaces `path` with to_jsonl() (publish_atomically: a
  /// crash at any instant leaves either the previous complete journal or
  /// the new one — never a truncated hybrid).  Throws DpError on I/O
  /// failure; the `obs.journal.flush` failpoint fires between durability
  /// and publication.
  void flush_to_file(const std::string& path, bool canonical = true) const;

  /// Moves the retained events out in arrival order and empties the ring
  /// (appended/dropped keep counting).  A journaled query server syncs
  /// what it drains, so its ring only ever holds events not yet on disk
  /// and a drop can never forget an event that is already durable.
  [[nodiscard]] std::vector<Event> drain();

 private:
  mutable std::mutex mutex_;
  std::size_t capacity_;
  std::vector<Event> ring_;   // insertion ring, oldest at head_
  std::size_t head_ = 0;
  std::uint64_t appended_ = 0;
  std::uint64_t dropped_ = 0;
};

/// Replaces `path` with `doc` so a crash at any instant leaves either the
/// previous complete file or the new one: same-directory temp file,
/// fsync, rename(), then a best-effort fsync of the directory.  Shared
/// by every ops artifact a crashed process leaves behind (journals,
/// flight dumps, ops snapshots).  Throws DpError naming the artifact by
/// `noun`; `failpoint` fires after the fsync, before the rename.
void publish_atomically(const std::string& path, std::string_view doc,
                        const char* failpoint, const std::string& noun);

/// The append-only sealed log behind `dpnet_cli serve --journal`: a
/// header {"schema","sealed":true,"chain"}, events in arrival order, and
/// after every sync a seal {"seal":N,"dropped":D,"chain"} continuing the
/// hash chain (N = records before it).  A seal marks a state the writer
/// fsynced; verify_journal_text reads the log as of its last seal.
/// Callers serialize syncs.
class JournalLog {
 public:
  /// Startup compaction: publishes header + `events` + seal over `path`
  /// crash-atomically (failpoint `obs.journal.flush`) and keeps it open
  /// for appends.  Throws DpError on I/O failure.
  JournalLog(std::string path, const std::vector<Event>& events,
             std::uint64_t dropped);
  ~JournalLog();

  JournalLog(const JournalLog&) = delete;
  JournalLog& operator=(const JournalLog&) = delete;

  /// Appends `events` — after any held from a failed sync — and a seal,
  /// then fsyncs, and returns true; writes nothing and returns false
  /// when there is nothing to append.  On
  /// failure (the `obs.journal.flush` failpoint fires between the write
  /// and the fsync) the file is cut back to its last seal, the events
  /// stay held, and the error propagates.  If even the cut fails, every
  /// later sync throws rather than append past unknown bytes.
  bool sync(std::vector<Event> events, std::uint64_t dropped);

 private:
  std::string path_;
  int fd_ = -1;
  std::uint64_t chain_ = kFnvOffset;  // link of the last seal
  std::uint64_t sealed_ = 0;          // records before the last seal
  std::uint64_t size_ = 0;            // bytes through the last seal
  std::vector<Event> held_;           // drained but not yet durable
};

namespace journal_detail {

// Construction-time kill switch, mirroring trace_detail::armed: when
// disarmed every emission site is one relaxed atomic load and nothing is
// recorded.  Defaults to armed — the journal is the always-on ops
// surface for mediated sessions.
inline std::atomic<bool> armed{true};

// Out-of-line slow path: stamps the event and appends to the global
// journal.  Only reached when armed.
void emit(EventKind kind, std::string label, std::uint64_t node_id,
          double eps, std::string detail);

}  // namespace journal_detail

[[nodiscard]] inline bool journal_armed() {
  return journal_detail::armed.load(std::memory_order_relaxed);
}
inline void set_journal_armed(bool on) {
  journal_detail::armed.store(on, std::memory_order_relaxed);
}

/// Emission hooks.  Each is a single relaxed load when disarmed; callers
/// sit on per-release / per-task / per-fault paths, never per record.
inline void emit_charge(std::string label, std::uint64_t node_id,
                        double eps, std::string detail = {}) {
  if (journal_armed()) {
    journal_detail::emit(EventKind::kCharge, std::move(label), node_id, eps,
                         std::move(detail));
  }
}
inline void emit_refusal(std::string label, std::uint64_t node_id,
                         double eps) {
  if (journal_armed()) {
    journal_detail::emit(EventKind::kRefusal, std::move(label), node_id, eps,
                         {});
  }
}
inline void emit_abort(std::string_view reason) {
  if (journal_armed()) {
    journal_detail::emit(EventKind::kAbort, {}, 0, 0.0, std::string(reason));
  }
}
inline void emit_task_begin(std::size_t index) {
  if (journal_armed()) {
    journal_detail::emit(EventKind::kTaskBegin, {}, mix64(kTaskSalt, index),
                         0.0, {});
  }
}
inline void emit_task_end(std::size_t index, std::string_view outcome) {
  if (journal_armed()) {
    journal_detail::emit(EventKind::kTaskEnd, {}, mix64(kTaskSalt, index),
                         0.0, std::string(outcome));
  }
}
inline void emit_fault(std::string_view failpoint, std::uint64_t node_id) {
  if (journal_armed()) {
    journal_detail::emit(EventKind::kFault, {}, node_id, 0.0,
                         std::string(failpoint));
  }
}
inline void emit_quarantine(std::string_view where) {
  if (journal_armed()) {
    journal_detail::emit(EventKind::kQuarantine, {}, 0, 0.0,
                         std::string(where));
  }
}
/// Burn-rate forecast crossed the operator's armed ETA threshold
/// (core/obs/burn.hpp).  `remaining_eps` is the analyst's headroom at
/// the moment of the alert — an epsilon, like every journal magnitude.
inline void emit_budget_alert(std::string label, double remaining_eps) {
  if (journal_armed()) {
    journal_detail::emit(EventKind::kBudgetAlert, std::move(label), 0,
                         remaining_eps, "eta below threshold");
  }
}

/// Offline verification result (dpnet_cli audit verify, chaos tests).
/// `ok` is false iff the document is structurally invalid or the hash
/// chain does not replay; the tallies summarize what the journal
/// witnessed and feed the journal == ledger == trace reconciliation.
struct JournalVerification {
  bool ok = false;
  std::string error;       // first failure ("" when ok), with line number
  std::size_t events = 0;  // records verified
  std::uint64_t dropped = 0;
  double charged_eps = 0.0;  // sum over charge events — must equal the
                             // ledger's spend for the same session
  double refused_eps = 0.0;  // sum over refusal events (never consumed)
  // Charged epsilon grouped by audit label.  Charge events carry the
  // analyst label as their causal key, so this is the per-analyst spend a
  // restarted server replays to reconstruct its budgets — the crash-safe
  // recovery path in serve::QueryServer (a crash can never refund ε).
  std::map<std::string, double> charged_eps_by_label;
  std::uint64_t charges = 0;
  std::uint64_t refusals = 0;
  std::uint64_t aborts = 0;
  std::uint64_t tasks = 0;   // task.begin events
  std::uint64_t faults = 0;
  std::uint64_t quarantined = 0;
  std::uint64_t alerts = 0;  // budget.alert events (burn-rate forecasts)
  std::size_t unsealed_bytes = 0;  // sealed logs: ignored after last seal
};

/// Replays a flushed journal: validates the header, every record's
/// shape, the seq numbering, and the full hash chain; tallies the event
/// sums.  A whole document must hold exactly the records its header
/// declares; a sealed log reports its state at the last seal, ignoring
/// what follows it (unsealed_bytes) but still verifying every complete
/// line.  Never throws — structural problems come back as ok == false.
[[nodiscard]] JournalVerification verify_journal_text(std::string_view text);

/// verify_journal_text over the contents of `path` (unreadable file =>
/// ok == false).
[[nodiscard]] JournalVerification verify_journal_file(
    const std::string& path);

}  // namespace dpnet::core::obs
