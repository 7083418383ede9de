// Query-plan tracing: span nesting across lazy materialization, partition
// per-branch visibility vs the max-cost charge, epsilon reconciliation
// against the audit ledger, and the disabled paths.
#include "core/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <tuple>
#include <vector>

#include "core/audit.hpp"
#include "core/exec/executor.hpp"
#include "core/json.hpp"
#include "core/obs/diagnostics.hpp"
#include "core/queryable.hpp"

namespace dpnet::core {
namespace {

Queryable<int> protect(std::vector<int> data,
                       std::shared_ptr<PrivacyBudget> budget) {
  return Queryable<int>(std::move(data), std::move(budget),
                        std::make_shared<NoiseSource>(7));
}

TEST(QueryTrace, NoSessionRecordsNothing) {
  EXPECT_EQ(active_trace(), nullptr);
  auto q = protect({1, 2, 3}, std::make_shared<RootBudget>(10.0));
  std::ignore = q.where([](int x) { return x > 1; }).noisy_count(0.5);
  // Nothing observable: no session was installed anywhere.
  QueryTrace trace;
  EXPECT_TRUE(trace.empty());
}

TEST(QueryTrace, AggregationSpanNestsUpstreamOperators) {
  auto q = protect({1, 2, 3, 4, 5, 6}, std::make_shared<RootBudget>(10.0));
  QueryTrace trace;
  {
    TraceSession session(trace);
    std::ignore = q.where([](int x) { return x % 2 == 0; })
                      .group_by([](int x) { return x % 3; })
                      .noisy_count(0.25);
  }
  ASSERT_EQ(trace.roots().size(), 1u);
  const TraceSpan& agg = trace.roots()[0];
  EXPECT_EQ(agg.op, "noisy_count");
  EXPECT_EQ(agg.mechanism, "laplace");
  EXPECT_DOUBLE_EQ(agg.eps_requested, 0.25);
  EXPECT_DOUBLE_EQ(agg.eps_charged, 0.5);  // group_by stability 2
  EXPECT_DOUBLE_EQ(agg.stability, 2.0);
  EXPECT_EQ(agg.output_rows, 1);

  // Materialization is demand-driven, so the group_by ran inside the
  // aggregation and the where ran inside the group_by.
  ASSERT_EQ(agg.children.size(), 1u);
  const TraceSpan& grouped = agg.children[0];
  EXPECT_EQ(grouped.op, "group_by");
  EXPECT_DOUBLE_EQ(grouped.stability, 2.0);
  EXPECT_EQ(grouped.input_rows, 3);
  EXPECT_EQ(grouped.output_rows, 3);  // 2,4,6 land in classes 2,1,0

  ASSERT_EQ(grouped.children.size(), 1u);
  const TraceSpan& filtered = grouped.children[0];
  EXPECT_EQ(filtered.op, "where");
  EXPECT_DOUBLE_EQ(filtered.stability, 1.0);
  EXPECT_EQ(filtered.input_rows, 6);
  EXPECT_EQ(filtered.output_rows, 3);
  EXPECT_TRUE(filtered.children.empty());
}

TEST(QueryTrace, MemoizedNodesAreNotReRecorded) {
  auto q = protect({1, 2, 3}, std::make_shared<RootBudget>(10.0));
  auto filtered = q.where([](int x) { return x > 0; });
  QueryTrace trace;
  {
    TraceSession session(trace);
    std::ignore = filtered.noisy_count(0.5);
    std::ignore = filtered.noisy_count(0.5);
  }
  ASSERT_EQ(trace.roots().size(), 2u);
  EXPECT_EQ(trace.roots()[0].children.size(), 1u);  // first run materializes
  EXPECT_TRUE(trace.roots()[1].children.empty());   // second reuses the node
}

TEST(QueryTrace, AnalystScopeGroupsSubqueries) {
  auto q = protect({1, 2, 3}, std::make_shared<RootBudget>(10.0));
  QueryTrace trace;
  {
    TraceSession session(trace);
    TraceScope phase("phase:warmup");
    std::ignore = q.noisy_count(0.5);
    std::ignore = q.noisy_count(0.5);
  }
  ASSERT_EQ(trace.roots().size(), 1u);
  EXPECT_EQ(trace.roots()[0].op, "phase:warmup");
  ASSERT_EQ(trace.roots()[0].children.size(), 2u);
  EXPECT_EQ(trace.roots()[0].children[0].op, "noisy_count");
}

TEST(QueryTrace, PartitionShowsPerBranchChargesBehindMaxCost) {
  auto root = std::make_shared<RootBudget>(10.0);
  auto q = protect({0, 1, 2, 3, 4, 5}, root);
  QueryTrace trace;
  {
    TraceSession session(trace);
    auto parts = q.partition(std::vector<int>{0, 1},
                             [](int x) { return x % 2; });
    std::ignore = parts.at(0).noisy_count(0.5);
    std::ignore = parts.at(1).noisy_count(0.25);
    std::ignore = parts.at(1).noisy_count(0.25);
  }
  // Max-cost rule: the parent pays the most expensive branch, not the sum.
  EXPECT_DOUBLE_EQ(root->spent(), 0.5);

  ASSERT_EQ(trace.roots().size(), 4u);
  EXPECT_EQ(trace.roots()[0].op, "partition");
  EXPECT_EQ(trace.roots()[0].input_rows, 6);
  EXPECT_EQ(trace.roots()[0].output_rows, 2);

  // The per-branch spans carry the part key, making the gap between the
  // branch charges (1.0 total) and the max-cost spend (0.5) auditable.
  EXPECT_EQ(trace.roots()[1].detail, "partition[0]");
  EXPECT_DOUBLE_EQ(trace.roots()[1].eps_charged, 0.5);
  EXPECT_EQ(trace.roots()[2].detail, "partition[1]");
  EXPECT_DOUBLE_EQ(trace.roots()[2].eps_charged, 0.25);
  EXPECT_EQ(trace.roots()[3].detail, "partition[1]");
  EXPECT_DOUBLE_EQ(trace.total_eps_charged(), 1.0);
}

TEST(QueryTrace, EpsSumsReconcileWithAuditLedger) {
  auto audit = std::make_shared<AuditingBudget>(
      std::make_shared<RootBudget>(10.0));
  auto q = protect({1, 2, 3, 4}, audit);
  QueryTrace trace;
  {
    TraceSession session(trace);
    std::ignore = q.noisy_count(0.5);
    std::ignore =
        q.group_by([](int x) { return x % 2; }).noisy_count(0.125);
    std::ignore =
        q.noisy_sum(0.25, [](int x) { return static_cast<double>(x); });
  }
  double ledger_sum = 0.0;
  for (const auto& e : audit->entries()) ledger_sum += e.eps;
  // Exact equality: a span's eps_charged is the very quantity the ledger
  // entry recorded, in the same order.
  EXPECT_EQ(trace.total_eps_charged(), ledger_sum);
  EXPECT_EQ(trace.total_eps_charged(), audit->spent());
  const auto by_op = trace.eps_by_op();
  EXPECT_DOUBLE_EQ(by_op.at("noisy_count"), 0.75);  // 0.5 + 2 x 0.125
  EXPECT_DOUBLE_EQ(by_op.at("noisy_sum"), 0.25);
}

TEST(QueryTrace, RefusedChargeMarksSpanAndChargesNothing) {
  auto q = protect({1, 2, 3}, std::make_shared<RootBudget>(0.1));
  QueryTrace trace;
  {
    TraceSession session(trace);
    EXPECT_THROW(std::ignore = q.noisy_count(0.5), BudgetExhaustedError);
  }
  ASSERT_EQ(trace.roots().size(), 1u);
  EXPECT_EQ(trace.roots()[0].detail, "refused");
  EXPECT_DOUBLE_EQ(trace.roots()[0].eps_charged, 0.0);
  EXPECT_DOUBLE_EQ(trace.total_eps_charged(), 0.0);
}

TEST(QueryTrace, DisarmedPipelinesSkipOperatorSpans) {
  obs::set_diagnostics_armed(false);
  auto q = protect({1, 2, 3}, std::make_shared<RootBudget>(10.0));
  auto filtered = q.where([](int x) { return x > 1; });
  obs::set_diagnostics_armed(true);
  QueryTrace trace;
  {
    TraceSession session(trace);
    std::ignore = filtered.noisy_count(0.5);
  }
  // The aggregation span still records (it checks at call time), but the
  // operator built while disarmed carries no instrumentation at all.
  ASSERT_EQ(trace.roots().size(), 1u);
  EXPECT_EQ(trace.roots()[0].op, "noisy_count");
  EXPECT_TRUE(trace.roots()[0].children.empty());
}

TEST(QueryTrace, SessionsNestAndRestore) {
  auto q = protect({1, 2, 3}, std::make_shared<RootBudget>(10.0));
  QueryTrace outer;
  QueryTrace inner;
  {
    TraceSession outer_session(outer);
    std::ignore = q.noisy_count(0.5);
    {
      TraceSession inner_session(inner);
      std::ignore = q.noisy_count(0.5);
    }
    std::ignore = q.noisy_count(0.5);
  }
  EXPECT_EQ(outer.roots().size(), 2u);
  EXPECT_EQ(inner.roots().size(), 1u);
  EXPECT_EQ(active_trace(), nullptr);
}

TEST(QueryTrace, ClearRefusesUnderOpenScopes) {
  QueryTrace trace;
  TraceSession session(trace);
  {
    TraceScope open("outer");
    trace.clear();  // must be a no-op: a span pointer is live on the stack
    TraceScope child("child");
  }
  ASSERT_EQ(trace.roots().size(), 1u);
  EXPECT_EQ(trace.roots()[0].children.size(), 1u);
  trace.clear();
  EXPECT_TRUE(trace.empty());
}

TEST(QueryTrace, JsonSerializationRoundTrips) {
  auto q = protect({1, 2, 3, 4}, std::make_shared<RootBudget>(10.0));
  QueryTrace trace;
  {
    TraceSession session(trace);
    std::ignore =
        q.where([](int x) { return x > 1; }).noisy_count(0.5);
  }
  const JsonValue doc = parse_json(trace.to_json());
  const JsonValue& spans = doc.at("spans");
  ASSERT_EQ(spans.array.size(), 1u);
  const JsonValue& agg = spans.array[0];
  EXPECT_EQ(agg.at("op").string, "noisy_count");
  EXPECT_EQ(agg.at("mechanism").string, "laplace");
  EXPECT_EQ(agg.at("eps_charged").number, 0.5);
  ASSERT_EQ(agg.at("children").array.size(), 1u);
  EXPECT_EQ(agg.at("children").array[0].at("op").string, "where");
  EXPECT_GE(agg.at("wall_ms").number, 0.0);

  EXPECT_NE(trace.pretty().find("noisy_count"), std::string::npos);
  EXPECT_NE(trace.pretty().find("where"), std::string::npos);
}

TEST(QueryTrace, SpansCarryTimelineStamps) {
  auto q = protect({1, 2, 3, 4}, std::make_shared<RootBudget>(10.0));
  QueryTrace trace;
  {
    TraceSession session(trace);
    std::ignore = q.where([](int x) { return x > 1; }).noisy_count(0.5);
  }
  ASSERT_EQ(trace.roots().size(), 1u);
  const TraceSpan& agg = trace.roots()[0];
  EXPECT_GE(agg.ts_us, 0);
  EXPECT_GE(agg.dur_us, 0);
  EXPECT_EQ(agg.worker, -1);  // recorded on the calling (analyst) thread
  ASSERT_EQ(agg.children.size(), 1u);
  const TraceSpan& child = agg.children[0];
  // The nested materialization began no earlier than its parent and fits
  // inside it (with 1 µs slack for truncation at each stamp).
  EXPECT_GE(child.ts_us, agg.ts_us);
  EXPECT_LE(child.ts_us + child.dur_us, agg.ts_us + agg.dur_us + 1);

  // The span JSON carries the stamps for bench artifacts / CLI output.
  const JsonValue doc = parse_json(trace.to_json());
  const JsonValue& span = doc.at("spans").array[0];
  EXPECT_GE(span.at("ts_us").number, 0.0);
  EXPECT_GE(span.at("dur_us").number, 0.0);
  EXPECT_EQ(span.at("worker").number, -1.0);
}

TEST(QueryTrace, ChromeExportIsCompleteEventsPlusLaneMetadata) {
  auto q = protect({1, 2, 3, 4}, std::make_shared<RootBudget>(10.0));
  QueryTrace trace;
  {
    TraceSession session(trace);
    std::ignore = q.where([](int x) { return x > 1; }).noisy_count(0.5);
  }
  const JsonValue doc = parse_json(trace.to_chrome_json());
  EXPECT_EQ(doc.at("displayTimeUnit").string, "ms");
  const JsonValue& events = doc.at("traceEvents");
  ASSERT_TRUE(events.is_array());

  std::size_t metadata = 0, complete = 0;
  for (const JsonValue& ev : events.array) {
    const std::string& ph = ev.at("ph").string;
    if (ph == "M") {
      ++metadata;
      EXPECT_EQ(ev.at("name").string, "thread_name");
      EXPECT_EQ(ev.at("args").at("name").string, "analyst");
    } else {
      ASSERT_EQ(ph, "X");  // complete events only: nothing half-open
      ++complete;
      EXPECT_GE(ev.at("ts").number, 0.0);
      EXPECT_GE(ev.at("dur").number, 0.0);
      EXPECT_EQ(ev.at("tid").number, 0.0);  // analyst lane
      EXPECT_EQ(ev.at("cat").string, "dpnet");
    }
  }
  EXPECT_EQ(metadata, 1u);  // single-threaded run: one lane
  EXPECT_EQ(complete, 2u);  // noisy_count + where
  // The aggregation event carries accounting args, never record contents.
  bool saw_charge = false;
  for (const JsonValue& ev : events.array) {
    if (ev.at("ph").string == "X" && ev.at("name").string == "noisy_count") {
      EXPECT_DOUBLE_EQ(ev.at("args").at("eps_charged").number, 0.5);
      saw_charge = true;
    }
  }
  EXPECT_TRUE(saw_charge);
}

TEST(QueryTrace, ParallelFanOutRendersPerWorkerLanes) {
  auto q = protect({0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11},
                   std::make_shared<RootBudget>(100.0));
  std::vector<int> keys{0, 1, 2, 3};
  auto parts = q.partition(keys, [](int x) { return x % 4; });
  QueryTrace trace;
  {
    TraceSession session(trace);
    std::ignore = exec::map_parts(
        exec::ExecPolicy{4}, keys, parts,
        [](int, const Queryable<int>& part) {
          return part.noisy_count(0.5);
        });
  }
  // Worker-recorded spans carry their pool index; with 4 threads no task
  // runs on the calling thread.
  std::set<int> workers;
  for (const TraceSpan& root : trace.roots()) {
    workers.insert(root.worker);
  }
  EXPECT_TRUE(workers.count(-1) == 0);
  for (const int w : workers) {
    EXPECT_GE(w, 0);
    EXPECT_LT(w, 4);
  }

  // The Chrome export names each worker lane distinctly.
  const std::string chrome = trace.to_chrome_json();
  for (const int w : workers) {
    const std::string lane = "\"name\":\"worker " + std::to_string(w) + "\"";
    EXPECT_NE(chrome.find(lane), std::string::npos) << lane;
  }
  EXPECT_EQ(chrome.find("\"name\":\"analyst\""), std::string::npos);
}

}  // namespace
}  // namespace dpnet::core
