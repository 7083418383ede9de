// The diagnostics switch (src/core/obs/diagnostics.hpp): one gate over
// operator spans, op.wall_ms histograms, flight-recorder moments, ops-log
// lines and ops snapshots.  Disarmed, none of the five records — while the
// privacy event journal, which has no switch, still witnesses every charge
// and refusal.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "core/audit.hpp"
#include "core/budget.hpp"
#include "core/metrics.hpp"
#include "core/obs/diagnostics.hpp"
#include "core/obs/journal.hpp"
#include "core/obs/log.hpp"
#include "core/obs/recorder.hpp"
#include "core/obs/snapshot.hpp"
#include "core/queryable.hpp"
#include "core/trace.hpp"

namespace dpnet::core {
namespace {

TEST(Diagnostics, DisarmedSilencesEveryChannelButTheJournal) {
  const char* log_path = "test_diagnostics_log_tmp.jsonl";
  const char* snapshot_path = "test_diagnostics_snapshot_tmp.json";
  obs::OpsLog::global().open_file(log_path);
  obs::OpsSnapshotWriter writer(snapshot_path,
                                std::chrono::milliseconds(1000));
  auto audit =
      std::make_shared<AuditingBudget>(std::make_shared<RootBudget>(1.0));
  const ScopedAuditLabel label(*audit, "diagnostics.off");

  const std::uint64_t where_ops =
      builtin_metrics::op_wall_ms("where").count();
  const std::uint64_t release_ops =
      builtin_metrics::op_wall_ms("noisy_count").count();
  const std::uint64_t moments = obs::FlightRecorder::global().recorded();
  const std::uint64_t lines = obs::OpsLog::global().emitted();
  const std::uint64_t events = obs::EventJournal::global().appended();

  obs::set_diagnostics_armed(false);
  QueryTrace trace;
  {
    TraceSession session(trace);
    const Queryable<int> q(std::vector<int>{1, 2, 3}, audit,
                           std::make_shared<NoiseSource>(5));
    std::ignore = q.where([](int x) { return x > 1; }).noisy_count(0.25);
  }
  audit->charge(0.25);
  EXPECT_THROW(audit->charge(1.0), BudgetExhaustedError);
  obs::record_moment("probe", "diagnostics.off", 1.0, "");
  obs::log_event(obs::LogLevel::kError, "diagnostics.off");
  const bool wrote =
      writer.maybe_write([] { return std::string("{}"); }, /*force=*/true);
  obs::set_diagnostics_armed(true);
  obs::OpsLog::global().close();
  std::remove(log_path);
  std::remove(snapshot_path);

  // The release span still records (it checks the session at call time);
  // the where operator built while disarmed carries no instrumentation.
  ASSERT_EQ(trace.roots().size(), 1u);
  EXPECT_EQ(trace.roots()[0].op, "noisy_count");
  EXPECT_TRUE(trace.roots()[0].children.empty());
  EXPECT_EQ(builtin_metrics::op_wall_ms("where").count(), where_ops);
  EXPECT_EQ(builtin_metrics::op_wall_ms("noisy_count").count(), release_ops);
  EXPECT_EQ(obs::FlightRecorder::global().recorded(), moments);
  EXPECT_EQ(obs::OpsLog::global().emitted(), lines);
  EXPECT_FALSE(wrote);
  // Two charges (the release and the direct one) and one refusal.
  EXPECT_EQ(obs::EventJournal::global().appended(), events + 3);
}

}  // namespace
}  // namespace dpnet::core
