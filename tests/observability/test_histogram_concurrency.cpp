// Latency-histogram concurrency: the lock-free observe path and the
// percentile/snapshot readers hammered simultaneously from executor
// workers.  Runs in the CI-required TSan label set (see
// .github/workflows/ci.yml) — the point is not just that counts come out
// exact, but that concurrent reads never tear into impossible values.
#include "core/metrics.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <tuple>
#include <vector>

#include "core/exec/executor.hpp"
#include "core/obs/diagnostics.hpp"
#include "core/queryable.hpp"

namespace dpnet::core {
namespace {

TEST(HistogramPercentiles, InterpolatesWithinBuckets) {
  Histogram h({1.0, 10.0, 100.0});
  h.observe(0.5);
  h.observe(0.5);
  h.observe(5.0);
  h.observe(5.0);
  // Ranks land exactly on bucket edges / interiors:
  //   p50 -> target rank 2.0, filled by bucket (0, 1]   -> 1.0
  //   p95 -> target rank 3.8, 90% into bucket (1, 10]   -> 9.1
  EXPECT_DOUBLE_EQ(h.percentile(0.50), 1.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.95), 9.1);
  // Out-of-range quantiles clamp instead of misindexing.
  EXPECT_DOUBLE_EQ(h.percentile(-1.0), h.percentile(0.0));
  EXPECT_DOUBLE_EQ(h.percentile(2.0), h.percentile(1.0));
}

TEST(HistogramPercentiles, EmptyAndOverflowEdges) {
  Histogram h({1.0, 10.0});
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);  // empty: nothing to rank
  h.observe(1000.0);
  // Only the unbounded overflow bucket is populated; the histogram can
  // honestly report no more than its largest finite bound.
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 10.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.99), 10.0);
}

TEST(HistogramPercentiles, SnapshotIsMonotone) {
  Histogram h({0.01, 0.1, 1.0, 10.0});
  for (int i = 1; i <= 1000; ++i) h.observe(0.011 * i);
  const Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, 1000u);
  EXPECT_GT(s.sum, 0.0);
  EXPECT_LE(s.p50, s.p95);
  EXPECT_LE(s.p95, s.p99);
  EXPECT_LE(s.p99, 10.0 + 1e-12);
}

// Writers and percentile readers race on one histogram across executor
// workers.  Counts must be exact afterwards, and every concurrent read
// must be a value the bucket bounds could produce — a torn read would
// surface as a negative or out-of-range percentile (and as a TSan race).
TEST(HistogramConcurrency, ObserveAndPercentileRaceCleanly) {
  Histogram h({0.5, 1.0, 5.0, 25.0});
  constexpr int kWriters = 6;
  constexpr int kReaders = 4;
  constexpr int kObservationsPerWriter = 20000;

  std::vector<std::function<void()>> tasks;
  for (int w = 0; w < kWriters; ++w) {
    tasks.push_back([&h, w] {
      for (int i = 0; i < kObservationsPerWriter; ++i) {
        h.observe(0.1 * ((w + i) % 300));
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    tasks.push_back([&h] {
      for (int i = 0; i < 2000; ++i) {
        const double p = h.percentile(0.01 * (i % 100));
        ASSERT_GE(p, 0.0);
        ASSERT_LE(p, 25.0);
        const Histogram::Snapshot s = h.snapshot();
        ASSERT_LE(s.p50, s.p95);
        ASSERT_LE(s.p95, s.p99);
      }
    });
  }
  exec::Executor(exec::ExecPolicy{4}).run(std::move(tasks));

  EXPECT_EQ(h.count(),
            static_cast<std::uint64_t>(kWriters) * kObservationsPerWriter);
  const Histogram::Snapshot final_snap = h.snapshot();
  EXPECT_LE(final_snap.p50, final_snap.p95);
  EXPECT_LE(final_snap.p95, final_snap.p99);
}

// The real producer path: parallel aggregations feeding the built-in
// op.wall_ms.<kind> histograms through map_parts while another task
// snapshots them.  Exercises registration, the diagnostics check, and
// the observe itself under the executor.
TEST(HistogramConcurrency, OpWallMsFedFromExecutorWorkers) {
  const std::uint64_t before =
      builtin_metrics::op_wall_ms("noisy_count").count();

  std::vector<int> data(5000);
  for (int i = 0; i < 5000; ++i) data[static_cast<std::size_t>(i)] = i;
  Queryable<int> q(data, std::make_shared<RootBudget>(1e6),
                   std::make_shared<NoiseSource>(11));
  std::vector<int> keys{0, 1, 2, 3, 4, 5, 6, 7};
  auto parts = q.partition(keys, [](int v) { return v % 8; });

  std::ignore = exec::map_parts(
      exec::ExecPolicy{4}, keys, parts, [](int, const Queryable<int>& part) {
        double acc = 0.0;
        for (int i = 0; i < 25; ++i) acc += part.noisy_count(0.01);
        const Histogram::Snapshot s =
            builtin_metrics::op_wall_ms("noisy_count").snapshot();
        EXPECT_LE(s.p50, s.p99);
        return acc;
      });

  EXPECT_EQ(builtin_metrics::op_wall_ms("noisy_count").count(),
            before + 8u * 25u);
}

// The diagnostics switch must stop recording without perturbing anything
// else — bench_micro_engine A/Bs it to assert the < 2% overhead bound.
TEST(HistogramConcurrency, KillSwitchStopsRecording) {
  ASSERT_TRUE(obs::diagnostics_armed());
  const std::uint64_t before =
      builtin_metrics::op_wall_ms("noisy_count").count();
  Queryable<int> q(std::vector<int>{1, 2, 3},
                   std::make_shared<RootBudget>(10.0),
                   std::make_shared<NoiseSource>(5));
  obs::set_diagnostics_armed(false);
  std::ignore = q.noisy_count(0.5);
  EXPECT_EQ(builtin_metrics::op_wall_ms("noisy_count").count(), before);
  obs::set_diagnostics_armed(true);
  std::ignore = q.noisy_count(0.5);
  EXPECT_EQ(builtin_metrics::op_wall_ms("noisy_count").count(), before + 1);
}

}  // namespace
}  // namespace dpnet::core
