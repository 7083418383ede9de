#include "core/obs/journal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iterator>

#include "core/errors.hpp"
#include "core/failpoint.hpp"
#include "core/json.hpp"
#include "core/metrics.hpp"
#include "core/obs/recorder.hpp"
#include "core/trace.hpp"

namespace dpnet::core::obs {

namespace {

/// 16-digit lowercase hex of a chain link (fixed width keeps the flush
/// byte-stable and the grep-ability of `audit tail` output).
std::string chain_hex(std::uint64_t h) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return std::string(buf);
}

void append_chained(std::string& out, const std::string& body,
                    std::uint64_t& chain) {
  chain = fnv1a(body, chain);
  out += body;
  out += ",\"chain\":\"";
  out += chain_hex(chain);
  out += "\"}\n";
}

/// The serialized object WITHOUT its closing brace: the caller hashes
/// these bytes and appends `,"chain":"..."}`, so the chain covers every
/// serialized byte of the line.
std::string open_body(JsonWriter& w) {
  w.end_object();
  std::string body = w.str();
  body.pop_back();
  return body;
}

std::string record_body(const Event& e, bool canonical,
                        std::uint64_t canonical_seq) {
  JsonWriter w;
  w.begin_object();
  w.key("seq").value(canonical ? canonical_seq : e.seq);
  w.key("kind").value(event_kind_name(e.kind));
  w.key("label").value(e.label);
  w.key("node_id").value(e.node_id);
  w.key("eps").value(e.eps);
  w.key("detail").value(e.detail);
  if (!canonical) w.key("ts_us").value(e.ts_us);
  return open_body(w);
}

std::string header_body(std::uint64_t events, std::uint64_t dropped) {
  JsonWriter w;
  w.begin_object();
  w.key("schema").value("dpnet.events.v1");
  w.key("events").value(events);
  w.key("dropped").value(dropped);
  return open_body(w);
}

/// A sealed log's records in arrival order, closed by a seal counting
/// every record the log holds once it lands.
std::string sealed_records(const std::vector<Event>& events,
                           std::uint64_t records, std::uint64_t dropped,
                           std::uint64_t& chain) {
  std::string out;
  for (const Event& e : events) {
    append_chained(out, record_body(e, false, 0), chain);
  }
  JsonWriter w;
  w.begin_object();
  w.key("seal").value(records);
  w.key("dropped").value(dropped);
  append_chained(out, open_body(w), chain);
  return out;
}

}  // namespace

void publish_atomically(const std::string& path, std::string_view doc,
                        const char* failpoint, const std::string& noun) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) {
    throw DpError("cannot write " + noun + " to " + tmp);
  }
  const std::size_t written = std::fwrite(doc.data(), 1, doc.size(), f);
  const bool flushed = std::fflush(f) == 0;
  const bool synced = flushed && ::fsync(::fileno(f)) == 0;
  const bool closed = std::fclose(f) == 0;
  if (written != doc.size() || !synced || !closed) {
    std::remove(tmp.c_str());
    throw DpError("short write flushing " + noun + " to " + tmp);
  }
  // A throw injected here models a crash after the temp file is durable
  // but before it is published; the previous file must still be intact.
  failpoint::hit(failpoint, path);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw DpError("cannot replace " + noun + " at " + path);
  }
  // Make the rename itself durable.  Some filesystems refuse fsync on a
  // directory; that weakens only the latest publish, never atomicity.
  const std::size_t slash = path.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? std::string(".") : path.substr(0, slash);
  const int fd = ::open(dir.empty() ? "/" : dir.c_str(),
                        O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
}

EventJournal& EventJournal::global() {
  static EventJournal journal;
  return journal;
}

EventJournal::EventJournal(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {
  ring_.reserve(std::min<std::size_t>(capacity_, 1024));
}

void EventJournal::append(EventKind kind, std::string label,
                          std::uint64_t node_id, double eps,
                          std::string detail) {
  Event e;
  e.ts_us = std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() -
                trace_detail::trace_epoch())
                .count();
  e.kind = kind;
  e.label = std::move(label);
  e.node_id = node_id;
  e.eps = eps;
  e.detail = std::move(detail);
  const std::lock_guard<std::mutex> lock(mutex_);
  e.seq = appended_++;
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(e));
  } else {
    ring_[head_] = std::move(e);
    head_ = (head_ + 1) % capacity_;
    ++dropped_;
    // Silent forgetting must be visible to ops: every overwrite also
    // counts on the metrics surface (lock-free, fine under the ring
    // mutex).
    builtin_metrics::journal_events_dropped().increment();
  }
}

std::vector<Event> EventJournal::events() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Event> out;
  out.reserve(ring_.size());
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(head_ + i) % ring_.size()]);
  }
  return out;
}

std::vector<Event> EventJournal::canonical_events() const {
  std::vector<Event> sorted = events();
  // Stable on the causal key: one node's (or task's) events were emitted
  // sequentially by whichever thread ran it, so per-key arrival order is
  // schedule-independent; the sort removes the cross-thread interleave.
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const Event& a, const Event& b) {
                     return a.node_id < b.node_id;
                   });
  return sorted;
}

std::uint64_t EventJournal::appended() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return appended_;
}

std::uint64_t EventJournal::dropped() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

void EventJournal::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  ring_.clear();
  head_ = 0;
}

std::string EventJournal::to_jsonl(bool canonical) const {
  const std::vector<Event> snapshot =
      canonical ? canonical_events() : events();
  std::uint64_t dropped = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    dropped = dropped_;
  }
  std::string out;
  std::uint64_t chain = kFnvOffset;
  append_chained(out, header_body(snapshot.size(), dropped), chain);
  for (std::size_t i = 0; i < snapshot.size(); ++i) {
    append_chained(out, record_body(snapshot[i], canonical, i), chain);
  }
  return out;
}

void EventJournal::flush_to_file(const std::string& path,
                                 bool canonical) const {
  // The journal file is the budget state of record: a truncated file
  // would make recovery refuse startup, and the only operator remedy
  // (deleting the journal) would refund every spent epsilon.
  publish_atomically(path, to_jsonl(canonical), "obs.journal.flush",
                     "event journal");
}

std::vector<Event> EventJournal::drain() {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::rotate(ring_.begin(),
              ring_.begin() + static_cast<std::ptrdiff_t>(head_),
              ring_.end());
  head_ = 0;
  std::vector<Event> out = std::move(ring_);
  ring_ = {};
  return out;
}

JournalLog::JournalLog(std::string path, const std::vector<Event>& events,
                       std::uint64_t dropped)
    : path_(std::move(path)), sealed_(events.size()) {
  JsonWriter header;
  header.begin_object();
  header.key("schema").value("dpnet.events.v1");
  header.key("sealed").value(true);
  std::string doc;
  append_chained(doc, open_body(header), chain_);
  doc += sealed_records(events, sealed_, dropped, chain_);
  publish_atomically(path_, doc, "obs.journal.flush", "event journal");
  fd_ = ::open(path_.c_str(), O_WRONLY | O_CLOEXEC);
  if (fd_ < 0) throw DpError("cannot append to event journal at " + path_);
  size_ = doc.size();
}

JournalLog::~JournalLog() {
  if (fd_ >= 0) ::close(fd_);
}

bool JournalLog::sync(std::vector<Event> events, std::uint64_t dropped) {
  held_.insert(held_.end(), std::make_move_iterator(events.begin()),
               std::make_move_iterator(events.end()));
  if (held_.empty()) return false;  // an earlier sync made them durable
  if (fd_ < 0) throw DpError("event journal at " + path_ + " is unusable");
  std::uint64_t chain = chain_;
  const std::string tail =
      sealed_records(held_, sealed_ + held_.size(), dropped, chain);
  try {
    if (::pwrite(fd_, tail.data(), tail.size(), static_cast<off_t>(size_)) !=
        static_cast<ssize_t>(tail.size())) {
      throw DpError("short write appending to event journal at " + path_);
    }
    failpoint::hit("obs.journal.flush", path_);
    if (::fsync(fd_) != 0) {
      throw DpError("cannot sync event journal at " + path_);
    }
  } catch (...) {
    // Back to the last seal, so the file still ends at a state that was
    // durable; the held events go out with the next sync, exactly once.
    if (::ftruncate(fd_, static_cast<off_t>(size_)) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
    throw;
  }
  chain_ = chain;
  sealed_ += held_.size();
  size_ += tail.size();
  held_.clear();
  return true;
}

namespace journal_detail {

void emit(EventKind kind, std::string label, std::uint64_t node_id,
          double eps, std::string detail) {
  // Every journal event is also a flight-recorder moment, so the black
  // box a crashed server leaves behind carries the same trailing context
  // the journal witnessed (the dump reconciles against the flushed
  // journal in the serve chaos drill) — while diagnostics are armed; the
  // journal append below is unconditional.
  record_moment(event_kind_name(kind), label, eps, detail);
  EventJournal::global().append(kind, std::move(label), node_id, eps,
                                std::move(detail));
}

}  // namespace journal_detail

}  // namespace dpnet::core::obs
