// The flight recorder: the bounded in-memory ring of ops moments that a
// faulted or killed server leaves behind as a dpnet.flight.v1 black box
// (src/core/obs/recorder.hpp, docs/observability.md).  Unlike the event
// journal it is not hash-chained and never replayed — it is diagnostic
// context, so these tests pin the ring semantics (bounded, oldest-out,
// faithful counters), the dump format, the diagnostics switch, and the
// mirror from journal events into ring moments.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "core/audit.hpp"
#include "core/budget.hpp"
#include "core/json.hpp"
#include "core/obs/diagnostics.hpp"
#include "core/obs/journal.hpp"
#include "core/obs/recorder.hpp"

namespace dpnet::core {
namespace {

TEST(FlightRecorder, BoundedRingDropsOldestAndCountsFaithfully) {
  obs::FlightRecorder recorder(4);
  for (int i = 0; i < 6; ++i) {
    recorder.record("probe", "label", static_cast<double>(i), "");
  }
  EXPECT_EQ(recorder.recorded(), 6u);
  EXPECT_EQ(recorder.dropped(), 2u);
  const auto moments = recorder.moments();
  ASSERT_EQ(moments.size(), 4u);
  // Oldest two were overwritten; survivors keep their original seq.
  EXPECT_EQ(moments.front().seq, 2u);
  EXPECT_EQ(moments.back().seq, 5u);
  for (std::size_t i = 1; i < moments.size(); ++i) {
    EXPECT_LT(moments[i - 1].seq, moments[i].seq);
  }
}

TEST(FlightRecorder, ToJsonlHeaderMatchesDumpedMoments) {
  obs::FlightRecorder recorder(8);
  recorder.record("span", "", 1.5, "noisy_count");
  recorder.record("charge", "alice", 0.25, "");
  const std::string doc = recorder.to_jsonl();
  std::istringstream in(doc);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  const JsonValue header = parse_json(line);
  EXPECT_EQ(header.at("schema").string, "dpnet.flight.v1");
  EXPECT_DOUBLE_EQ(header.at("moments").number, 2.0);
  EXPECT_DOUBLE_EQ(header.at("dropped").number, 0.0);
  std::size_t records = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const JsonValue m = parse_json(line);
    EXPECT_TRUE(m.at("kind").is_string());
    EXPECT_TRUE(m.at("seq").is_number());
    EXPECT_TRUE(m.at("value").is_number());
    ++records;
  }
  EXPECT_EQ(records, 2u);
}

TEST(FlightRecorder, DumpToFileWritesCompleteDocument) {
  const char* path = "test_flight_dump_tmp.jsonl";
  obs::FlightRecorder recorder(8);
  recorder.record("abort", "bob", 1.0, "deadline");
  recorder.dump_to_file(path);
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::ostringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(), recorder.to_jsonl());
  std::remove(path);
}

// The diagnostics switch: disarmed, record_moment is one relaxed atomic
// load and the global ring does not move.
TEST(FlightRecorder, KillSwitchSuppressesGlobalMoments) {
  obs::set_diagnostics_armed(false);
  const std::uint64_t before = obs::FlightRecorder::global().recorded();
  obs::record_moment("probe", "killswitch", 1.0, "");
  EXPECT_EQ(obs::FlightRecorder::global().recorded(), before);
  obs::set_diagnostics_armed(true);
  obs::record_moment("probe", "killswitch", 2.0, "");
  EXPECT_EQ(obs::FlightRecorder::global().recorded(), before + 1);
}

// Every journal event mirrors one flight moment (same kind name, label,
// eps as value), so the black box always contains the accounting tail
// that the journal witnessed — the reconciliation the chaos drill
// checks after kill -9.
TEST(FlightRecorder, JournalEventsMirrorIntoRing) {
  const std::uint64_t before = obs::FlightRecorder::global().recorded();
  auto audit =
      std::make_shared<AuditingBudget>(std::make_shared<RootBudget>(1.0));
  const ScopedAuditLabel label(*audit, "flight.mirror");
  audit->charge(0.25);
  ASSERT_EQ(obs::FlightRecorder::global().recorded(), before + 1);
  const auto moments = obs::FlightRecorder::global().moments();
  const auto& m = moments.back();
  EXPECT_EQ(m.kind, "charge");
  EXPECT_EQ(m.label, "flight.mirror");
  EXPECT_DOUBLE_EQ(m.value, 0.25);
}

// The journal has no switch of its own, but its mirror into the ring is
// diagnostics: disarmed, a charge is journaled and the ring stays put.
TEST(FlightRecorder, JournalKillSwitchSilencesMirror) {
  obs::set_diagnostics_armed(false);
  const std::uint64_t before = obs::FlightRecorder::global().recorded();
  const std::uint64_t events = obs::EventJournal::global().appended();
  auto audit =
      std::make_shared<AuditingBudget>(std::make_shared<RootBudget>(1.0));
  const ScopedAuditLabel label(*audit, "flight.silenced");
  audit->charge(0.25);
  obs::set_diagnostics_armed(true);
  EXPECT_EQ(obs::FlightRecorder::global().recorded(), before);
  EXPECT_EQ(obs::EventJournal::global().appended(), events + 1);
}

}  // namespace
}  // namespace dpnet::core
