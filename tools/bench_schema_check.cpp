// Validates dpnet's machine-readable observability artifacts
// (see docs/observability.md):
//
//   bench_schema_check <artifact>...
//
// Each file is dispatched on the schema named by its first line:
//
//   dpnet.bench.v1   bench reports (BENCH_*.json)
//   dpnet.flight.v1  flight-recorder dumps (`serve --flight`)
//   dpnet.log.v1     structured ops logs (`serve --ops-log`)
//   dpnet.ops.v1     live ops snapshots (`serve --ops-snapshot`)
//
// Beyond shape checking, it verifies the accounting invariants that make
// the artifacts trustworthy: when a bench report carries both a query
// trace and an audit ledger, the spans' eps_charged must sum to the
// ledger's spend, every "* overhead pct" result must stay under 2%, and
// the where+noisy_count scan may cost at most 2x the raw predicate loop;
// flight/log sequence numbers must be strictly increasing; snapshot
// percentiles must be monotone.  Exit status 0 iff every file passes;
// each failure prints one line.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/json.hpp"

namespace {

using dpnet::core::JsonValue;

int failures = 0;
const char* current_file = "";

void fail(const std::string& why) {
  std::fprintf(stderr, "%s: %s\n", current_file, why.c_str());
  ++failures;
}

bool require_string(const JsonValue& doc, const char* field) {
  const JsonValue* v = doc.find(field);
  if (v == nullptr || !v->is_string()) {
    fail(std::string("missing or non-string field '") + field + "'");
    return false;
  }
  return true;
}

/// Sum of eps_charged over a span subtree; checks span shape as it goes.
double check_span(const JsonValue& span) {
  if (!span.is_object()) {
    fail("trace span is not an object");
    return 0.0;
  }
  for (const char* field : {"op", "stability", "input_rows", "output_rows",
                            "eps_requested", "eps_charged", "wall_ms",
                            "children"}) {
    if (span.find(field) == nullptr) {
      fail(std::string("trace span missing '") + field + "'");
      return 0.0;
    }
  }
  if (!span.at("op").is_string() || !span.at("eps_charged").is_number() ||
      !span.at("children").is_array()) {
    fail("trace span has mistyped fields");
    return 0.0;
  }
  // Timeline stamps (ts_us/dur_us relative to the trace epoch, worker
  // lane index) are optional — pre-timeline artifacts lack them — but
  // when present they must be numeric, and -1 is the only legal negative
  // (the "not stamped" sentinel).
  for (const char* field : {"ts_us", "dur_us", "worker"}) {
    const JsonValue* v = span.find(field);
    if (v == nullptr) continue;
    if (!v->is_number()) {
      fail(std::string("trace span '") + field + "' is not numeric");
      return 0.0;
    }
    if (v->number < -1.0) {
      fail(std::string("trace span '") + field + "' below -1 sentinel");
      return 0.0;
    }
  }
  // Derived throughput (optional: only spans that recorded output rows
  // and measurable wall time carry it) must be strictly positive —
  // records_per_sec omits the field rather than emitting 0.
  if (const JsonValue* rps = span.find("records_per_sec"); rps != nullptr) {
    if (!rps->is_number() || !(rps->number > 0.0)) {
      fail("trace span 'records_per_sec' is not a positive number");
      return 0.0;
    }
  }
  double total = span.at("eps_charged").number;
  for (const JsonValue& child : span.at("children").array) {
    total += check_span(child);
  }
  return total;
}

void check_results(const JsonValue& results) {
  for (const JsonValue& row : results.array) {
    if (!row.is_object() || row.find("section") == nullptr ||
        row.find("key") == nullptr) {
      fail("result row missing section/key");
      continue;
    }
    const bool comparison =
        row.find("paper") != nullptr && row.find("measured") != nullptr;
    const JsonValue* value = row.find("value");
    if (!comparison && value == nullptr) {
      fail("result row '" + row.at("key").string +
           "' has neither value nor paper/measured");
      continue;
    }
    // Every always-on telemetry layer carries the same promise:
    // recording must cost under 2% (docs/observability.md).
    const std::string& key = row.at("key").string;
    if (key == "tracing disabled overhead pct" ||
        key == "op histogram overhead pct" ||
        key == "journal armed overhead pct" ||
        key == "flight recorder overhead pct" ||
        key == "ops log overhead pct" ||
        key == "ops snapshot overhead pct") {
      if (value == nullptr || !value->is_number()) {
        fail("overhead result is not numeric");
      } else if (!(value->number < 2.0)) {
        fail(key + " " + std::to_string(value->number) +
             "% exceeds the 2% bound");
      }
    }
    // The query engine's cost per query: a where+noisy_count may cost at
    // most twice the raw predicate loop over the same records.
    if (key == "where+noisy_count over raw predicate loop ratio") {
      if (value == nullptr || !value->is_number()) {
        fail("scan ratio result is not numeric");
      } else if (!(value->number <= 2.0)) {
        fail(key + " " + std::to_string(value->number) +
             "x exceeds the 2x bound");
      }
    }
  }
}

void check_report(const JsonValue& doc) {
  if (!doc.is_object()) {
    fail("document is not an object");
    return;
  }
  const JsonValue* schema = doc.find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->string != "dpnet.bench.v1") {
    fail("schema is not \"dpnet.bench.v1\"");
    return;
  }
  require_string(doc, "name");
  require_string(doc, "title");
  require_string(doc, "reproduces");

  const JsonValue* results = doc.find("results");
  if (results == nullptr || !results->is_array()) {
    fail("missing or non-array 'results'");
  } else {
    check_results(*results);
  }

  const JsonValue* metrics = doc.find("metrics");
  if (metrics == nullptr || !metrics->is_object()) {
    fail("missing or non-object 'metrics'");
  } else {
    for (const char* field : {"counters", "gauges", "histograms"}) {
      const JsonValue* m = metrics->find(field);
      if (m == nullptr || !m->is_object()) {
        fail(std::string("metrics missing object '") + field + "'");
      }
    }
    // Percentile blocks (optional: pre-percentile artifacts lack them).
    // When present all three must be numeric and ordered — a p99 below
    // p50 means the snapshot was torn or the interpolation regressed.
    const JsonValue* hists = metrics->find("histograms");
    if (hists != nullptr && hists->is_object()) {
      for (const auto& [name, h] : hists->object) {
        if (!h.is_object()) continue;
        const JsonValue* p50 = h.find("p50");
        const JsonValue* p95 = h.find("p95");
        const JsonValue* p99 = h.find("p99");
        const int present =
            (p50 != nullptr) + (p95 != nullptr) + (p99 != nullptr);
        if (present == 0) continue;
        if (present != 3 || !p50->is_number() || !p95->is_number() ||
            !p99->is_number()) {
          fail("histogram '" + name + "' has a partial/mistyped "
               "percentile block (need numeric p50/p95/p99)");
          continue;
        }
        if (!(p50->number <= p95->number && p95->number <= p99->number)) {
          fail("histogram '" + name + "' percentiles not monotone");
        }
      }
    }
  }

  // Optional parallelism metadata: benches that ran under an ExecPolicy
  // record the thread count and the measured speedup over their own
  // single-thread run.  Either both appear or neither does.
  const JsonValue* threads = doc.find("threads");
  const JsonValue* speedup = doc.find("speedup_vs_1thread");
  if ((threads == nullptr) != (speedup == nullptr)) {
    fail("'threads' and 'speedup_vs_1thread' must appear together");
  }
  if (threads != nullptr &&
      (!threads->is_number() || threads->number < 1.0)) {
    fail("'threads' must be a number >= 1");
  }
  if (speedup != nullptr &&
      (!speedup->is_number() || !(speedup->number > 0.0))) {
    fail("'speedup_vs_1thread' must be a number > 0");
  }

  // Resource telemetry: peak_rss_kb is always written by current benches
  // (tolerated as absent for pre-telemetry artifacts); records_per_sec is
  // optional.  Both must be non-negative numbers when present.
  if (const JsonValue* rss = doc.find("peak_rss_kb"); rss != nullptr) {
    if (!rss->is_number() || rss->number < 0.0) {
      fail("'peak_rss_kb' must be a non-negative number");
    }
  }
  if (const JsonValue* rps = doc.find("records_per_sec"); rps != nullptr) {
    if (!rps->is_number() || !(rps->number > 0.0)) {
      fail("'records_per_sec' must be a number > 0");
    }
  }

  const JsonValue* trace = doc.find("trace");
  const JsonValue* audit = doc.find("audit");
  if (trace == nullptr || audit == nullptr) {
    fail("missing 'trace' or 'audit' (use null when not recorded)");
    return;
  }

  double trace_eps = 0.0;
  if (!trace->is_null()) {
    const JsonValue* spans = trace->find("spans");
    if (spans == nullptr || !spans->is_array()) {
      fail("trace missing 'spans' array");
      return;
    }
    for (const JsonValue& span : spans->array) {
      trace_eps += check_span(span);
    }
  }

  if (!audit->is_null()) {
    const JsonValue* spent = audit->find("spent");
    const JsonValue* entries = audit->find("entries");
    const JsonValue* totals = audit->find("totals_by_label");
    if (spent == nullptr || !spent->is_number() || entries == nullptr ||
        !entries->is_array() || totals == nullptr || !totals->is_object()) {
      fail("audit ledger missing spent/entries/totals_by_label");
      return;
    }
    double entry_sum = 0.0;
    for (const JsonValue& e : entries->array) {
      if (!e.is_object() || e.find("eps") == nullptr ||
          !e.at("eps").is_number() || e.find("label") == nullptr) {
        fail("audit entry missing eps/label");
        return;
      }
      entry_sum += e.at("eps").number;
    }
    double label_sum = 0.0;
    for (const auto& [label, total] : totals->object) {
      if (!total.is_number()) {
        fail("non-numeric total for label '" + label + "'");
        return;
      }
      label_sum += total.number;
    }
    // The per-entry and per-label views are two groupings of one ledger.
    if (std::abs(entry_sum - label_sum) > 1e-9 * std::max(1.0, entry_sum)) {
      fail("audit entries and totals_by_label disagree");
    }
    // The load-bearing invariant: what the trace says was charged is what
    // the ledger says was spent (charge-then-record ordering guarantees
    // the two never drift; see src/core/audit.hpp).
    if (!trace->is_null() && trace_eps != entry_sum) {
      fail("trace eps_charged sum " + std::to_string(trace_eps) +
           " != audit ledger sum " + std::to_string(entry_sum));
    }
  }
}

/// Shared field-shape checks for the JSONL artifacts: `field` must be a
/// number (non-negative unless `allow_negative`).
bool require_number(const JsonValue& obj, const char* field,
                    std::size_t line_no, bool allow_negative = false) {
  const JsonValue* v = obj.find(field);
  if (v == nullptr || !v->is_number() ||
      (!allow_negative && v->number < 0.0)) {
    fail("line " + std::to_string(line_no) + ": missing or invalid '" +
         field + "'");
    return false;
  }
  return true;
}

bool require_text(const JsonValue& obj, const char* field,
                  std::size_t line_no) {
  const JsonValue* v = obj.find(field);
  if (v == nullptr || !v->is_string()) {
    fail("line " + std::to_string(line_no) + ": missing or non-string '" +
         field + "'");
    return false;
  }
  return true;
}

/// dpnet.flight.v1: a header naming the dumped moment count, then one
/// moment per line with strictly increasing sequence numbers.
void check_flight(const JsonValue& header,
                  const std::vector<JsonValue>& records) {
  const JsonValue* moments = header.find("moments");
  if (moments == nullptr || !moments->is_number() ||
      moments->number != static_cast<double>(records.size())) {
    fail("flight header 'moments' does not match the dumped line count");
  }
  if (const JsonValue* d = header.find("dropped");
      d == nullptr || !d->is_number() || d->number < 0.0) {
    fail("flight header missing non-negative 'dropped'");
  }
  double prev_seq = -1.0;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const JsonValue& m = records[i];
    const std::size_t line_no = i + 2;
    if (!m.is_object()) {
      fail("line " + std::to_string(line_no) + ": moment is not an object");
      continue;
    }
    if (!require_number(m, "seq", line_no) ||
        !require_number(m, "ts_us", line_no, /*allow_negative=*/true) ||
        !require_number(m, "value", line_no, /*allow_negative=*/true) ||
        !require_text(m, "kind", line_no) ||
        !require_text(m, "label", line_no) ||
        !require_text(m, "detail", line_no)) {
      continue;
    }
    if (m.at("kind").string.empty()) {
      fail("line " + std::to_string(line_no) + ": empty 'kind'");
    }
    if (m.at("seq").number <= prev_seq) {
      fail("line " + std::to_string(line_no) +
           ": 'seq' not strictly increasing");
    }
    prev_seq = m.at("seq").number;
  }
}

/// dpnet.log.v1: schema header, then one leveled line per entry.
void check_log(const std::vector<JsonValue>& records) {
  double prev_seq = -1.0;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const JsonValue& rec = records[i];
    const std::size_t line_no = i + 2;
    if (!rec.is_object()) {
      fail("line " + std::to_string(line_no) + ": entry is not an object");
      continue;
    }
    if (!require_number(rec, "seq", line_no) ||
        !require_number(rec, "ts_us", line_no, /*allow_negative=*/true) ||
        !require_number(rec, "eps", line_no) ||
        !require_text(rec, "level", line_no) ||
        !require_text(rec, "kind", line_no) ||
        !require_text(rec, "label", line_no) ||
        !require_text(rec, "detail", line_no)) {
      continue;
    }
    const std::string& level = rec.at("level").string;
    if (level != "debug" && level != "info" && level != "warn" &&
        level != "error") {
      fail("line " + std::to_string(line_no) + ": unknown level '" + level +
           "'");
    }
    if (rec.at("kind").string.empty()) {
      fail("line " + std::to_string(line_no) + ": empty 'kind'");
    }
    if (const JsonValue* s = rec.find("suppressed");
        s != nullptr && (!s->is_number() || !(s->number > 0.0))) {
      fail("line " + std::to_string(line_no) +
           ": 'suppressed' must be a positive count when present");
    }
    if (rec.at("seq").number <= prev_seq) {
      fail("line " + std::to_string(line_no) +
           ": 'seq' not strictly increasing");
    }
    prev_seq = rec.at("seq").number;
  }
}

/// dpnet.ops.v1: one object — the live serve snapshot `dpnet_cli top`
/// renders.  remaining/eta_s use -1 as the "uncapped / no forecast"
/// sentinel, the only legal negative.
void check_ops(const JsonValue& doc) {
  for (const char* field :
       {"ts_us", "uptime_ms", "frames", "sessions", "queue_depth",
        "in_flight", "peak_rss_kb", "records_per_sec"}) {
    require_number(doc, field, 1);
  }
  const JsonValue* dataset = doc.find("dataset");
  if (dataset == nullptr || !dataset->is_object()) {
    fail("missing or non-object 'dataset'");
  } else {
    require_number(*dataset, "spent", 1);
    require_number(*dataset, "remaining", 1, /*allow_negative=*/true);
  }
  const JsonValue* analysts = doc.find("analysts");
  if (analysts == nullptr || !analysts->is_array()) {
    fail("missing or non-array 'analysts'");
  } else {
    for (const JsonValue& a : analysts->array) {
      if (!a.is_object()) {
        fail("analyst row is not an object");
        continue;
      }
      require_text(a, "analyst", 1);
      require_number(a, "spent", 1);
      require_number(a, "burn_rate", 1);
      require_number(a, "queued", 1);
      for (const char* sentinel_ok : {"remaining", "eta_s"}) {
        const JsonValue* v = a.find(sentinel_ok);
        if (v == nullptr || !v->is_number() ||
            (v->number < 0.0 && v->number != -1.0)) {
          fail(std::string("analyst '") + sentinel_ok +
               "' must be non-negative or the -1 sentinel");
        }
      }
    }
  }
  const JsonValue* latency = doc.find("latency");
  if (latency == nullptr || !latency->is_object()) {
    fail("missing or non-object 'latency'");
  } else if (require_number(*latency, "count", 1) &&
             require_number(*latency, "p50", 1) &&
             require_number(*latency, "p95", 1) &&
             require_number(*latency, "p99", 1)) {
    if (!(latency->at("p50").number <= latency->at("p95").number &&
          latency->at("p95").number <= latency->at("p99").number)) {
      fail("latency percentiles not monotone");
    }
  }
}

/// Splits a JSONL artifact into parsed non-empty lines.
std::vector<JsonValue> parse_lines(const std::string& text,
                                   bool* parse_ok) {
  std::vector<JsonValue> out;
  std::istringstream in(text);
  std::size_t line_no = 0;
  *parse_ok = true;
  for (std::string line; std::getline(in, line);) {
    ++line_no;
    if (line.empty()) continue;
    try {
      out.push_back(dpnet::core::parse_json(line));
    } catch (const std::exception& e) {
      fail("line " + std::to_string(line_no) + ": " + e.what());
      *parse_ok = false;
    }
  }
  return out;
}

void check_artifact(const std::string& text) {
  // Dispatch on the first line's schema: bench reports and ops snapshots
  // are single-document files, flight dumps and ops logs are JSONL.
  const std::size_t eol = text.find('\n');
  const std::string first =
      eol == std::string::npos ? text : text.substr(0, eol);
  std::string schema;
  try {
    const JsonValue head = dpnet::core::parse_json(first);
    const JsonValue* s = head.find("schema");
    if (s != nullptr && s->is_string()) schema = s->string;
  } catch (const std::exception&) {
    // Fall through: a first line that is not standalone JSON can only
    // belong to a (pretty-printed) bench report.
  }

  if (schema == "dpnet.flight.v1" || schema == "dpnet.log.v1") {
    bool parse_ok = false;
    std::vector<JsonValue> lines = parse_lines(text, &parse_ok);
    if (!parse_ok || lines.empty()) return;
    std::vector<JsonValue> records(
        std::make_move_iterator(lines.begin() + 1),
        std::make_move_iterator(lines.end()));
    if (schema == "dpnet.flight.v1") {
      check_flight(lines.front(), records);
    } else {
      check_log(records);
    }
    return;
  }
  if (schema == "dpnet.ops.v1") {
    check_ops(dpnet::core::parse_json(text));
    return;
  }
  check_report(dpnet::core::parse_json(text));
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: bench_schema_check <artifact>...\n");
    return 2;
  }
  for (int i = 1; i < argc; ++i) {
    current_file = argv[i];
    std::ifstream in(argv[i]);
    if (!in) {
      fail("cannot open");
      continue;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    try {
      check_artifact(buf.str());
    } catch (const std::exception& e) {
      fail(e.what());
    }
  }
  if (failures == 0) {
    std::printf("bench_schema_check: %d file(s) ok\n", argc - 1);
  }
  return failures == 0 ? 0 : 1;
}
