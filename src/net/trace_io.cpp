#include "net/trace_io.hpp"

#include <algorithm>
#include <array>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <string_view>
#include <thread>

#include "core/failpoint.hpp"
#include "core/metrics.hpp"
#include "core/obs/journal.hpp"

namespace dpnet::net {

namespace {

// Fixed part of a serialized packet (everything but the payload bytes).
constexpr std::uint32_t kPacketFixedBytes = 36;
constexpr std::uint32_t kMaxPayloadBytes = 64u * 1024 * 1024;
constexpr std::uint32_t kMaxBodyBytes = kPacketFixedBytes + kMaxPayloadBytes;

template <typename T>
void put(std::ostream& out, T value) {
  static_assert(std::is_trivially_copyable_v<T>);
  out.write(reinterpret_cast<const char*>(&value), sizeof(value));
}

/// A frame body already in memory, read with the istream calls
/// take()/take_packet() use — parsing from it costs no stream set-up
/// per record.
class BodyCursor {
 public:
  explicit BodyCursor(std::string_view bytes) : rest_(bytes) {}

  bool read(char* dst, std::streamsize n) {
    const auto want = static_cast<std::size_t>(n);
    if (want > rest_.size()) return false;
    std::copy_n(rest_.data(), want, dst);
    rest_.remove_prefix(want);
    return true;
  }
  [[nodiscard]] bool bad() const { return false; }

 private:
  std::string_view rest_;
};

template <typename T, typename In>
T take(In& in) {
  static_assert(std::is_trivially_copyable_v<T>);
  T value{};
  if (!in.read(reinterpret_cast<char*>(&value), sizeof(value))) {
    if (in.bad()) throw TransientIoError("trace stream I/O failure");
    throw TraceIoError("truncated trace container");
  }
  return value;
}

/// IEEE CRC-32 (reflected polynomial 0xEDB88320), table-driven.
std::uint32_t crc32(std::string_view bytes) {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (const char ch : bytes) {
    crc = table[(crc ^ static_cast<unsigned char>(ch)) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

void put_packet(std::ostream& out, const Packet& p) {
  put(out, p.timestamp);
  put(out, p.src_ip.value);
  put(out, p.dst_ip.value);
  put(out, p.src_port);
  put(out, p.dst_port);
  put(out, p.protocol);
  put(out, p.flags.to_byte());
  put(out, p.seq);
  put(out, p.ack_no);
  put(out, p.length);
  if (p.payload.size() > kMaxPayloadBytes) {
    throw TraceIoError("payload too large to serialize");
  }
  put(out, static_cast<std::uint32_t>(p.payload.size()));
  out.write(p.payload.data(),
            static_cast<std::streamsize>(p.payload.size()));
}

template <typename In>
Packet take_packet(In& in) {
  Packet p;
  p.timestamp = take<double>(in);
  p.src_ip = Ipv4(take<std::uint32_t>(in));
  p.dst_ip = Ipv4(take<std::uint32_t>(in));
  p.src_port = take<std::uint16_t>(in);
  p.dst_port = take<std::uint16_t>(in);
  p.protocol = take<std::uint8_t>(in);
  p.flags = TcpFlags::from_byte(take<std::uint8_t>(in));
  p.seq = take<std::uint32_t>(in);
  p.ack_no = take<std::uint32_t>(in);
  p.length = take<std::uint16_t>(in);
  const auto payload_len = take<std::uint32_t>(in);
  if (payload_len > kMaxPayloadBytes) {
    throw TraceIoError("implausible payload length (corrupt container?)");
  }
  p.payload.resize(payload_len);
  if (payload_len > 0 &&
      !in.read(p.payload.data(), static_cast<std::streamsize>(payload_len))) {
    if (in.bad()) throw TransientIoError("trace stream I/O failure");
    throw TraceIoError("truncated packet payload");
  }
  return p;
}

/// Reads `n` bytes or throws with the record index; distinguishes stream
/// failure (transient) from running out of bytes (format).
void read_exact(std::istream& in, char* dst, std::streamsize n,
                const char* what, std::uint64_t index) {
  if (!in.read(dst, n)) {
    if (in.bad()) throw TransientIoError("trace stream I/O failure");
    throw TraceFormatError(what, index);
  }
}

/// Parses one v2 frame and adds its size to `frame_bytes`.  Every failure
/// mode is a bounded, indexed TraceFormatError (or TransientIoError for
/// stream-level faults) — no input byte pattern may crash the reader or
/// read out of bounds.
Packet take_frame(std::istream& in, std::uint64_t index,
                  std::streamoff& frame_bytes) {
  std::uint16_t marker = 0;
  read_exact(in, reinterpret_cast<char*>(&marker), sizeof(marker),
             "truncated record frame", index);
  if (marker != kRecordMarker) {
    throw TraceFormatError("bad record marker", index);
  }
  std::uint32_t body_len = 0;
  read_exact(in, reinterpret_cast<char*>(&body_len), sizeof(body_len),
             "truncated record frame", index);
  if (body_len < kPacketFixedBytes || body_len > kMaxBodyBytes) {
    throw TraceFormatError("implausible record length", index);
  }
  std::string body(body_len, '\0');
  read_exact(in, body.data(), static_cast<std::streamsize>(body_len),
             "truncated record body", index);
  std::uint32_t crc = 0;
  read_exact(in, reinterpret_cast<char*>(&crc), sizeof(crc),
             "truncated record checksum", index);
  if (crc != crc32(body)) {
    throw TraceFormatError("record checksum mismatch", index);
  }
  BodyCursor body_in(body);
  try {
    Packet p = take_packet(body_in);
    frame_bytes += static_cast<std::streamoff>(
        sizeof(marker) + sizeof(body_len) + body_len + sizeof(crc));
    return p;
  } catch (const TransientIoError&) {
    throw;
  } catch (const TraceIoError&) {
    // Checksum passed but the body doesn't parse as a packet: the record
    // was written malformed.  Index only — never the bytes themselves.
    throw TraceFormatError("malformed record body", index);
  }
}

}  // namespace

void write_trace(std::ostream& out, std::span<const Packet> trace) {
  TraceWriter writer(out);
  for (const Packet& p : trace) writer.write(p);
  writer.finish();
}

std::vector<Packet> read_trace(std::istream& in,
                               const TraceReadOptions& options) {
  TraceReader reader(in, options);
  std::vector<Packet> out;
  // A corrupted count must not drive a giant up-front allocation; the
  // vector grows naturally past this if the records are really there.
  out.reserve(static_cast<std::size_t>(
      std::min<std::uint64_t>(reader.total(), 1u << 20)));
  Packet p;
  while (reader.next(p)) out.push_back(std::move(p));
  return out;
}

void write_trace_file(const std::string& path,
                      std::span<const Packet> trace) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw TraceIoError("cannot open for writing: " + path);
  write_trace(out, trace);
  if (!out) throw TraceIoError("write failed: " + path);
}

std::vector<Packet> read_trace_file(const std::string& path,
                                    const TraceReadOptions& options) {
  for (int attempt = 0;; ++attempt) {
    try {
      std::ifstream in(path, std::ios::binary);
      if (!in) throw TransientIoError("cannot open for reading: " + path);
      return read_trace(in, options);
    } catch (const TransientIoError&) {
      if (attempt >= options.max_retries) throw;
      // Deterministic doubling backoff, no jitter: retry k waits
      // retry_backoff * 2^k, so failure handling replays identically.
      std::this_thread::sleep_for(options.retry_backoff * (1LL << attempt));
    }
  }
}

TraceWriter::TraceWriter(std::ostream& out) : out_(out) {
  put(out_, kTraceMagic);
  put(out_, kTraceVersion);
  count_pos_ = out_.tellp();
  put(out_, std::uint64_t{0});  // patched by finish()
}

TraceWriter::~TraceWriter() {
  if (!finished_) {
    try {
      finish();
    } catch (...) {
      // Destructors must not throw; an explicit finish() reports errors.
    }
  }
}

void TraceWriter::write(const Packet& p) {
  if (finished_) throw TraceIoError("write after finish");
  std::ostringstream body_out;
  put_packet(body_out, p);
  const std::string body = std::move(body_out).str();
  put(out_, kRecordMarker);
  put(out_, static_cast<std::uint32_t>(body.size()));
  out_.write(body.data(), static_cast<std::streamsize>(body.size()));
  put(out_, crc32(body));
  ++count_;
}

void TraceWriter::finish() {
  if (finished_) return;
  finished_ = true;
  const std::streampos end = out_.tellp();
  out_.seekp(count_pos_);
  put(out_, count_);
  out_.seekp(end);
  if (!out_) throw TraceIoError("trace writer stream failure");
}

TraceReader::TraceReader(std::istream& in, TraceReadOptions options)
    : in_(in), options_(options) {
  core::failpoint::hit("net.trace_io.read");
  try {
    if (take<std::uint32_t>(in_) != kTraceMagic) {
      throw TraceFormatError("bad trace magic (not a DPNT container)",
                             TraceFormatError::kHeader);
    }
    version_ = take<std::uint16_t>(in_);
    if (version_ != kTraceVersion && version_ != kTraceVersionLegacy) {
      throw TraceFormatError(
          "unsupported trace version " + std::to_string(version_),
          TraceFormatError::kHeader);
    }
    total_ = take<std::uint64_t>(in_);
    frame_pos_ = in_.tellg();
  } catch (const TraceFormatError&) {
    throw;
  } catch (const TransientIoError&) {
    throw;
  } catch (const TraceIoError&) {
    throw TraceFormatError("truncated trace header",
                           TraceFormatError::kHeader);
  }
}

bool TraceReader::next(Packet& p) {
  while (consumed_ < total_) {
    const std::uint64_t index = consumed_;
    const std::streampos frame_start = frame_pos_;
    try {
      if (version_ == kTraceVersionLegacy) {
        try {
          p = take_packet(in_);
        } catch (const TransientIoError&) {
          throw;
        } catch (const TraceFormatError&) {
          throw;
        } catch (const TraceIoError&) {
          throw TraceFormatError("truncated or malformed record", index);
        }
      } else {
        std::streamoff frame_bytes = 0;
        p = take_frame(in_, index, frame_bytes);
        if (frame_pos_ != std::streampos(-1)) frame_pos_ += frame_bytes;
      }
      ++consumed_;
      core::builtin_metrics::bytes_processed().increment(kPacketFixedBytes +
                                                         p.payload.size());
      return true;
    } catch (const TransientIoError&) {
      throw;
    } catch (const TraceFormatError&) {
      // Legacy containers carry no frame markers, so there is nothing to
      // resync on — degraded mode is v2-only.
      if (!options_.quarantine || version_ == kTraceVersionLegacy) throw;
      ++consumed_;
      ++quarantined_;
      core::builtin_metrics::records_quarantined().increment();
      core::obs::emit_quarantine("net.trace_io");
      if (quarantined_ > options_.max_quarantined) {
        throw TraceFormatError("quarantine limit exceeded; container too "
                               "corrupt to degrade gracefully",
                               index);
      }
      if (!resync(frame_start)) {
        // Truncated tail: nothing left to scan.  Terminal — remaining()
        // drops to zero so callers see a clean (if short) end of trace.
        total_ = consumed_;
        return false;
      }
      frame_pos_ = in_.tellg();
    }
  }
  return false;
}

bool TraceReader::resync(std::streampos frame_start) {
  // Re-scan from one byte past the bad frame's start for the next marker
  // (native byte order, matching put<std::uint16_t>).  A payload byte
  // pair can alias the marker; the checksum then rejects the false frame
  // and we land back here, one quarantine count further along.
  in_.clear();
  in_.seekg(frame_start + std::streamoff(1));
  if (!in_) {
    in_.clear();
    return false;
  }
  constexpr int lo = kRecordMarker & 0xFF;
  constexpr int hi = (kRecordMarker >> 8) & 0xFF;
  int prev = -1;
  int c = 0;
  while ((c = in_.get()) != std::char_traits<char>::eof()) {
    if (prev == lo && c == hi) {
      in_.seekg(-2, std::ios::cur);
      return true;
    }
    prev = c;
  }
  if (in_.bad()) throw TransientIoError("trace stream I/O failure");
  in_.clear();
  return false;
}

}  // namespace dpnet::net
