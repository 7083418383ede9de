// Offline journal verification: replays a "dpnet.events.v1" JSONL
// document or sealed log, recomputes the FNV-1a hash chain link by
// link, and tallies the event sums that `dpnet_cli audit verify`
// reconciles against the audit ledger and the query trace.  This is the
// library half of the chaos suite's in-process invariant, turned into an
// artifact check an operator can run long after the process died.
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>

#include "core/json.hpp"
#include "core/obs/journal.hpp"

namespace dpnet::core::obs {

namespace {

JournalVerification failed(std::size_t line_no, const std::string& why) {
  JournalVerification v;
  v.ok = false;
  v.error = "line " + std::to_string(line_no + 1) + ": " + why;
  return v;
}

constexpr std::string_view kChainMarker = ",\"chain\":\"";
constexpr std::size_t kChainTail = 16 + 2;  // hex digits + closing "}

/// Splits one journal line into the hashed body and the stored chain
/// link.  The chain field is by construction the final member of every
/// line, so everything before `,"chain":"` is exactly what was hashed.
bool split_chain(std::string_view line, std::string_view& body,
                 std::string_view& stored_hex) {
  const std::size_t pos = line.rfind(kChainMarker);
  if (pos == std::string_view::npos) return false;
  body = line.substr(0, pos);
  std::string_view rest = line.substr(pos + kChainMarker.size());
  if (rest.size() != kChainTail || rest.substr(16) != "\"}") return false;
  stored_hex = rest.substr(0, 16);
  return true;
}

/// True when a final, newline-less line stops before its chain field is
/// complete — all a crash mid-append can leave.  A line whose chain field
/// is complete is whole (or damaged) and must verify like any other.
bool cut_short(std::string_view line) {
  const std::size_t pos = line.rfind(kChainMarker);
  return pos == std::string_view::npos ||
         line.size() - pos - kChainMarker.size() < kChainTail;
}

bool parse_hex64(std::string_view hex, std::uint64_t& out) {
  out = 0;
  for (const char c : hex) {
    out <<= 4;
    if (c >= '0' && c <= '9') {
      out |= static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      out |= static_cast<std::uint64_t>(c - 'a' + 10);
    } else {
      return false;
    }
  }
  return true;
}

}  // namespace

JournalVerification verify_journal_text(std::string_view text) {
  JournalVerification v;
  JournalVerification sealed;  // sealed logs: the tallies at the last seal
  std::uint64_t chain = kFnvOffset;
  std::size_t line_no = 0;
  std::uint64_t declared_events = 0;
  bool saw_header = false;
  bool log = false;  // the header opened a sealed log
  const std::size_t total_bytes = text.size();
  std::size_t sealed_bytes = 0;  // through the last seal line
  double last_seq = -1.0;

  while (!text.empty()) {
    const std::size_t nl = text.find('\n');
    const std::string_view line =
        nl == std::string_view::npos ? text : text.substr(0, nl);
    text = nl == std::string_view::npos ? std::string_view{}
                                        : text.substr(nl + 1);
    if (line.empty()) continue;  // a trailing newline is fine
    if (log && nl == std::string_view::npos && cut_short(line)) break;

    std::string_view body;
    std::string_view stored_hex;
    if (!split_chain(line, body, stored_hex)) {
      return failed(line_no, "record has no trailing chain field");
    }
    std::uint64_t stored = 0;
    if (!parse_hex64(stored_hex, stored)) {
      return failed(line_no, "chain field is not 16 hex digits");
    }
    chain = fnv1a(body, chain);
    if (chain != stored) {
      return failed(line_no,
                    "hash chain broken (journal tampered or truncated "
                    "mid-record)");
    }

    JsonValue doc;
    try {
      doc = parse_json(line);
    } catch (const JsonParseError&) {
      // The chain link already matched, so this is a writer bug, not
      // tampering; the parser's own message stays outside src/ (R8).
      return failed(line_no, "record is not valid JSON");
    }
    if (!doc.is_object()) return failed(line_no, "record is not an object");

    if (!saw_header) {
      const JsonValue* schema = doc.find("schema");
      if (schema == nullptr || !schema->is_string() ||
          schema->string != "dpnet.events.v1") {
        return failed(line_no, "header schema is not \"dpnet.events.v1\"");
      }
      const JsonValue* events = doc.find("events");
      const JsonValue* dropped = doc.find("dropped");
      const JsonValue* flag = doc.find("sealed");
      log = flag != nullptr && flag->is_bool() && flag->boolean;
      if (!log && (events == nullptr || !events->is_number() ||
                   dropped == nullptr || !dropped->is_number())) {
        return failed(line_no, "header missing numeric events/dropped");
      }
      if (!log) {
        declared_events = static_cast<std::uint64_t>(events->number);
        v.dropped = static_cast<std::uint64_t>(dropped->number);
      }
      saw_header = true;
      ++line_no;
      continue;
    }

    if (const JsonValue* seal = doc.find("seal"); log && seal != nullptr) {
      const JsonValue* dropped = doc.find("dropped");
      if (!seal->is_number() || dropped == nullptr || !dropped->is_number()) {
        return failed(line_no, "seal missing numeric seal/dropped");
      }
      if (static_cast<std::uint64_t>(seal->number) != v.events) {
        return failed(line_no, "seal count differs from the records before it");
      }
      v.dropped = static_cast<std::uint64_t>(dropped->number);
      sealed = v;
      sealed_bytes = total_bytes - text.size();
      ++line_no;
      continue;
    }

    const JsonValue* seq = doc.find("seq");
    const JsonValue* kind = doc.find("kind");
    const JsonValue* label = doc.find("label");
    const JsonValue* eps = doc.find("eps");
    if (seq == nullptr || !seq->is_number() || kind == nullptr ||
        !kind->is_string() || label == nullptr || !label->is_string() ||
        eps == nullptr || !eps->is_number() ||
        doc.find("node_id") == nullptr || doc.find("detail") == nullptr) {
      return failed(line_no, "record missing seq/kind/label/node_id/eps/"
                             "detail");
    }
    if (!(seq->number > last_seq)) {
      return failed(line_no, "seq numbers are not strictly increasing");
    }
    last_seq = seq->number;

    const std::string& k = kind->string;
    if (k == "charge") {
      ++v.charges;
      v.charged_eps += eps->number;
      v.charged_eps_by_label[label->string] += eps->number;
    } else if (k == "refusal") {
      ++v.refusals;
      v.refused_eps += eps->number;
    } else if (k == "abort") {
      ++v.aborts;
    } else if (k == "task.begin") {
      ++v.tasks;
    } else if (k == "task.end") {
      // counted via task.begin; nothing to tally
    } else if (k == "fault") {
      ++v.faults;
    } else if (k == "quarantine") {
      ++v.quarantined;
    } else if (k == "budget.alert") {
      ++v.alerts;
    } else {
      return failed(line_no, "unknown event kind '" + k + "'");
    }
    ++v.events;
    ++line_no;
  }

  if (!saw_header) {
    return failed(0, "empty document (no header line)");
  }
  if (log) {
    // Everything after the last seal was never acknowledged: a crash
    // mid-append, which recovery must neither count nor refuse.
    if (sealed_bytes == 0) return failed(0, "sealed log has no seal line");
    sealed.ok = true;
    sealed.unsealed_bytes = total_bytes - sealed_bytes;
    return sealed;
  }
  if (v.events != declared_events) {
    return failed(line_no == 0 ? 0 : line_no - 1,
                  "header declares " + std::to_string(declared_events) +
                      " events but " + std::to_string(v.events) +
                      " records follow (journal truncated?)");
  }
  v.ok = true;
  return v;
}

JournalVerification verify_journal_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    JournalVerification v;
    v.ok = false;
    v.error = "cannot open " + path;
    return v;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return verify_journal_text(buf.str());
}

}  // namespace dpnet::core::obs
