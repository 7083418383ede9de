#include "core/obs/recorder.hpp"

#include <algorithm>
#include <chrono>

#include "core/json.hpp"
#include "core/obs/journal.hpp"
#include "core/trace.hpp"

namespace dpnet::core::obs {

namespace {

std::string moment_line(const Moment& m) {
  JsonWriter w;
  w.begin_object();
  w.key("seq").value(m.seq);
  w.key("ts_us").value(m.ts_us);
  w.key("kind").value(m.kind);
  w.key("label").value(m.label);
  w.key("value").value(m.value);
  w.key("detail").value(m.detail);
  w.end_object();
  return w.str();
}

}  // namespace

FlightRecorder& FlightRecorder::global() {
  static FlightRecorder recorder;
  return recorder;
}

FlightRecorder::FlightRecorder(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {
  ring_.reserve(std::min<std::size_t>(capacity_, 1024));
}

void FlightRecorder::record(std::string_view kind, std::string label,
                            double value, std::string detail) {
  Moment m;
  m.ts_us = std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() -
                trace_detail::trace_epoch())
                .count();
  m.kind = std::string(kind);
  m.label = std::move(label);
  m.value = value;
  m.detail = std::move(detail);
  const std::lock_guard<std::mutex> lock(mutex_);
  m.seq = recorded_++;
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(m));
  } else {
    ring_[head_] = std::move(m);
    head_ = (head_ + 1) % capacity_;
    ++dropped_;
  }
}

std::vector<Moment> FlightRecorder::moments() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Moment> out;
  out.reserve(ring_.size());
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(head_ + i) % ring_.size()]);
  }
  return out;
}

std::uint64_t FlightRecorder::recorded() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return recorded_;
}

std::uint64_t FlightRecorder::dropped() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

void FlightRecorder::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  ring_.clear();
  head_ = 0;
}

std::string FlightRecorder::to_jsonl() const {
  const std::vector<Moment> snapshot = moments();
  std::uint64_t dropped = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    dropped = dropped_;
  }
  JsonWriter header;
  header.begin_object();
  header.key("schema").value("dpnet.flight.v1");
  header.key("moments").value(static_cast<std::uint64_t>(snapshot.size()));
  header.key("dropped").value(dropped);
  header.end_object();
  std::string out = header.str();
  out += '\n';
  for (const Moment& m : snapshot) {
    out += moment_line(m);
    out += '\n';
  }
  return out;
}

void FlightRecorder::dump_to_file(const std::string& path) const {
  // The dump a crashed server leaves behind must always be a complete
  // document — a torn flight dump would be worse than none when
  // reconstructing an incident.
  publish_atomically(path, to_jsonl(), "obs.flight.dump", "flight dump");
}

namespace recorder_detail {

void emit(std::string_view kind, std::string label, double value,
          std::string detail) {
  FlightRecorder::global().record(kind, std::move(label), value,
                                  std::move(detail));
}

}  // namespace recorder_detail

}  // namespace dpnet::core::obs
