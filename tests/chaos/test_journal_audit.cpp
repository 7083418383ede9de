// Journal/audit chaos: a pipeline with an injected release-path fault
// must flush a tamper-evident event journal whose epsilon sums reconcile
// *exactly* with the audit ledger and the query trace — at any thread
// count, with a byte-identical canonical flush.  This is the in-process
// half of the `dpnet_cli audit verify` gate; when DPNET_JOURNAL_DIR is
// set (the CI chaos job), the faulted run's journal/ledger/trace
// artifacts are written there and the CLI re-verifies them offline.
//
// All epsilons are dyadic rationals (multiples of 0.125) so every sum is
// exact in binary floating point and the assertions demand equality.
//
// Determinism note: the workload deliberately uses only charge, refusal,
// task-lifecycle, and core.release.charge fault events — their causal
// keys (plan-node ids, salted task indices) are schedule-independent.
// exec.worker_task faults and guard aborts carry key 0 and *which* hit
// fires is schedule-dependent, so they have no place in a byte-identity
// test (they are covered by test_abort_reconciliation.cpp).
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <numeric>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "core/audit.hpp"
#include "core/exec/executor.hpp"
#include "core/failpoint.hpp"
#include "core/obs/journal.hpp"
#include "core/queryable.hpp"
#include "core/trace.hpp"

namespace dpnet::core {
namespace {

// Root headroom: the seven surviving branches charge 4.0, the post-run
// exact-fit release takes the last 0.5, and the 0.75 attempt in between
// is refused.
constexpr double kRootEps = 4.5;

std::vector<int> many_values() {
  std::vector<int> v(600);
  std::iota(v.begin(), v.end(), 0);
  return v;
}

double ledger_sum(const std::vector<AuditingBudget::Entry>& entries) {
  double s = 0.0;
  for (const auto& e : entries) s += e.eps;
  return s;
}

std::vector<Queryable<int>> make_branches(
    const std::shared_ptr<AuditingBudget>& audit) {
  std::vector<Queryable<int>> branches;
  for (std::uint64_t i = 0; i < 8; ++i) {
    branches.push_back(Queryable<int>(many_values(), audit,
                                      std::make_shared<NoiseSource>(100 + i)));
  }
  return branches;
}

/// The plan node that charges for branch 3's release, discovered by a
/// fault-free dry run.  Node ids derive from the plan shape, not global
/// state (docs/architecture.md), so the id is identical in the faulted
/// runs below — which makes "fault exactly branch 3's release"
/// expressible as a deterministic failpoint predicate.
std::uint64_t faulted_node_id() {
  auto audit =
      std::make_shared<AuditingBudget>(std::make_shared<RootBudget>(1e6));
  auto branches = make_branches(audit);
  std::ignore = branches[3].noisy_count(0.5);
  if (audit->entries().size() != 1) {
    ADD_FAILURE() << "dry run expected exactly one ledger entry";
    return 0;
  }
  return audit->entries().front().node_id;
}

struct RunResult {
  std::shared_ptr<AuditingBudget> audit;
  std::shared_ptr<QueryTrace> trace;
  std::string jsonl;  // canonical flush of the run's journal
};

/// Runs the faulted workload: 8 independent branches over one shared
/// accountant, a core.release.charge failpoint refusing exactly branch
/// 3's charge, then (sequentially) one genuine budget refusal and one
/// exact-fit release.  Returns the canonical journal flush alongside the
/// ledger and trace for reconciliation.
RunResult run_faulted(std::size_t threads, std::uint64_t target) {
  obs::EventJournal::global().clear();
  RunResult r;
  r.audit =
      std::make_shared<AuditingBudget>(std::make_shared<RootBudget>(kRootEps));
  r.trace = std::make_shared<QueryTrace>();
  auto branches = make_branches(r.audit);
  failpoint::ScopedFailpoint fp(
      "core.release.charge", [target](std::string_view) {
        if (ScopedChargeNode::current() == target) {
          throw BudgetExhaustedError("injected refusal");
        }
      });
  {
    TraceSession session(*r.trace);
    std::vector<std::function<void()>> tasks;
    for (std::size_t i = 0; i < branches.size(); ++i) {
      tasks.push_back([&branches, i] {
        std::ignore =
            branches[i].noisy_count(0.125 * static_cast<double>(i + 1));
      });
    }
    EXPECT_THROW(
        exec::Executor(exec::ExecPolicy{threads}).run(std::move(tasks)),
        BudgetExhaustedError);
    // 4.0 of 4.5 is spent: a 0.75 attempt is refused by the real budget
    // (journaled as a refusal, charging nothing), then 0.5 fits exactly.
    EXPECT_THROW(std::ignore = branches[0].noisy_count(0.75),
                 BudgetExhaustedError);
    EXPECT_NO_THROW(std::ignore = branches[0].noisy_count(0.5));
  }
  r.jsonl = obs::EventJournal::global().to_jsonl(true);
  return r;
}

// The canonical flush is the journal's determinism contract: same
// pipeline, same fault, any thread count => the same bytes.
TEST(JournalAudit, CanonicalFlushIsByteIdenticalAcrossThreadCounts) {
  const std::uint64_t target = faulted_node_id();
  const RunResult sequential = run_faulted(1, target);
  ASSERT_FALSE(sequential.jsonl.empty());
  for (const std::size_t threads : {std::size_t{4}, std::size_t{8}}) {
    const RunResult parallel = run_faulted(threads, target);
    EXPECT_EQ(parallel.jsonl, sequential.jsonl) << "threads=" << threads;
  }
}

// Replaying the flushed journal must balance the books exactly: the
// journal's charge sum equals the ledger's, equals the accountant's,
// equals the trace's — and the faulted release appears in none of them.
TEST(JournalAudit, VerifiedJournalReconcilesWithLedgerAndTrace) {
  const std::uint64_t target = faulted_node_id();
  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{4}, std::size_t{8}}) {
    const RunResult r = run_faulted(threads, target);
    const obs::JournalVerification v = obs::verify_journal_text(r.jsonl);
    ASSERT_TRUE(v.ok) << v.error << " (threads=" << threads << ")";
    EXPECT_EQ(v.dropped, 0u);
    // 7 surviving branch releases + the post-run exact-fit release.
    EXPECT_EQ(v.charges, 8u) << "threads=" << threads;
    EXPECT_EQ(v.refusals, 1u);
    EXPECT_EQ(v.tasks, 8u);
    // Every release hit the armed failpoint once: 8 in the executor run
    // (including the one whose charge was then refused) + 2 after it.
    EXPECT_EQ(v.faults, 10u);
    EXPECT_EQ(v.aborts, 0u);
    EXPECT_EQ(v.quarantined, 0u);
    // Exact reconciliation, all four books: journal == ledger ==
    // accountant == trace.  The faulted branch's 0.5 and the refused
    // 0.75 are absent from every charged sum.
    EXPECT_DOUBLE_EQ(v.charged_eps, kRootEps) << "threads=" << threads;
    EXPECT_DOUBLE_EQ(ledger_sum(r.audit->canonical_entries()), v.charged_eps);
    EXPECT_DOUBLE_EQ(r.audit->spent(), v.charged_eps);
    EXPECT_DOUBLE_EQ(r.trace->total_eps_charged(), v.charged_eps);
    EXPECT_DOUBLE_EQ(v.refused_eps, 0.75);
    for (const auto& entry : r.audit->canonical_entries()) {
      EXPECT_NE(entry.node_id, target) << "faulted branch reached the ledger";
    }
  }
}

// Tamper evidence: flipping ANY single byte of a flushed journal — in
// the header, a record body, a chain link, or a newline — must fail
// verification, as must truncating trailing records.
TEST(JournalAudit, AnySingleFlippedByteBreaksVerification) {
  const std::uint64_t target = faulted_node_id();
  const RunResult r = run_faulted(1, target);
  ASSERT_TRUE(obs::verify_journal_text(r.jsonl).ok);
  for (std::size_t i = 0; i < r.jsonl.size(); ++i) {
    std::string tampered = r.jsonl;
    tampered[i] = static_cast<char>(tampered[i] ^ 0x1);
    EXPECT_FALSE(obs::verify_journal_text(tampered).ok)
        << "flip at byte " << i << " went undetected";
  }
  // Truncation: drop the final record line (keeping a well-formed tail).
  std::string truncated = r.jsonl;
  truncated.pop_back();  // trailing '\n'
  truncated.resize(truncated.rfind('\n') + 1);
  const obs::JournalVerification v = obs::verify_journal_text(truncated);
  EXPECT_FALSE(v.ok);
  EXPECT_NE(v.error.find("truncated"), std::string::npos) << v.error;
}

// File round-trip for the offline gate: flush_to_file output verifies via
// verify_journal_file, and a flipped byte on disk is caught the same way.
TEST(JournalAudit, FlushedFileVerifiesAndDetectsOnDiskTampering) {
  const std::uint64_t target = faulted_node_id();
  const RunResult r = run_faulted(4, target);
  const std::string path = ::testing::TempDir() + "/dpnet_journal.jsonl";
  obs::EventJournal::global().flush_to_file(path);
  const obs::JournalVerification clean = obs::verify_journal_file(path);
  ASSERT_TRUE(clean.ok) << clean.error;
  EXPECT_DOUBLE_EQ(clean.charged_eps, r.audit->spent());

  std::string tampered = r.jsonl;
  tampered[tampered.size() / 2] =
      static_cast<char>(tampered[tampered.size() / 2] ^ 0x1);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << tampered;
  }
  EXPECT_FALSE(obs::verify_journal_file(path).ok);
}

// CI artifact drop: when DPNET_JOURNAL_DIR is set (the chaos job in
// .github/workflows/ci.yml), write the faulted run's journal, ledger,
// and trace there so `dpnet_cli audit verify` can re-reconcile them as a
// hard gate — and as an uploadable incident-forensics artifact.
TEST(JournalAudit, WritesVerifiableArtifactsWhenJournalDirSet) {
  const char* dir = std::getenv("DPNET_JOURNAL_DIR");
  if (dir == nullptr || *dir == '\0') {
    GTEST_SKIP() << "DPNET_JOURNAL_DIR not set";
  }
  const std::uint64_t target = faulted_node_id();
  const RunResult r = run_faulted(8, target);
  const std::string base = std::string(dir) + "/";
  obs::EventJournal::global().flush_to_file(base + "journal.jsonl");
  {
    std::ofstream ledger(base + "ledger.json", std::ios::binary);
    ASSERT_TRUE(ledger.good()) << base;
    ledger << r.audit->to_json(/*canonical=*/true);
  }
  {
    std::ofstream trace(base + "trace.json", std::ios::binary);
    ASSERT_TRUE(trace.good()) << base;
    trace << r.trace->to_json();
  }
  const obs::JournalVerification v =
      obs::verify_journal_file(base + "journal.jsonl");
  ASSERT_TRUE(v.ok) << v.error;
  EXPECT_DOUBLE_EQ(v.charged_eps, r.audit->spent());
}

}  // namespace
}  // namespace dpnet::core
