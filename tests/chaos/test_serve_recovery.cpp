// Crash-safe budget recovery: the journal is a sealed log, appended and
// fsynced before every response, so a server killed at ANY point can be
// restarted against it and reconstruct each analyst's spent epsilon
// exactly — a crash can never refund budget (docs/robustness.md,
// "Crash-safe budget recovery").
//
// The "crash" here is in-process: the first server is destroyed without
// ceremony and the global journal ring is cleared (a new process starts
// with an empty ring), leaving the journal file as the only surviving
// record — exactly what a real restart sees.  The CLI soak
// test (tests/cli/test_serve_soak.sh) does the same drill across real
// processes with kill -9.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/errors.hpp"
#include "core/failpoint.hpp"
#include "core/json.hpp"
#include "core/obs/journal.hpp"
#include "net/packet.hpp"
#include "serve/server.hpp"

namespace dpnet::serve {
namespace {

std::vector<net::Packet> small_trace() {
  std::vector<net::Packet> trace(32);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    trace[i].timestamp = static_cast<double>(i);
    trace[i].protocol = net::kProtoTcp;
    trace[i].length = 64;
  }
  return trace;
}

std::string request_line(std::uint64_t id, const std::string& analyst,
                         double eps) {
  core::JsonWriter w;
  w.begin_object();
  w.key("id").value(id);
  w.key("analyst").value(analyst);
  w.key("query").value("count");
  w.key("eps").value(eps);
  w.end_object();
  return w.str();
}

/// Synchronous submit-and-wait; returns the response line ("" if the
/// response was dropped).
std::string ask(QueryServer& server, std::uint64_t id,
                const std::string& analyst, double eps) {
  std::mutex mu;
  std::string response;
  server.submit_frame(request_line(id, analyst, eps),
                      [&](const std::string& line) {
                        const std::lock_guard<std::mutex> lock(mu);
                        response = line;
                      });
  server.drain();
  return response;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
}

ServerConfig journal_config(const std::string& path, std::size_t threads) {
  ServerConfig cfg;
  cfg.dataset_budget = 4.0;
  cfg.analyst_cap = 1.0;
  cfg.threads = threads;
  cfg.journal_path = path;
  return cfg;
}

// Budget == ledger == journal == trace must survive a crash + restart:
// the restarted server replays per-analyst spend exactly, refuses what
// no longer fits, and its own journal keeps reconciling — at 1, 4, and
// 8 threads.
TEST(ServeRecovery, ReplaysPerAnalystSpendExactlyAcrossRestart) {
  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{4}, std::size_t{8}}) {
    const std::string path = ::testing::TempDir() + "/serve_recovery_" +
                             std::to_string(threads) + ".jsonl";
    std::remove(path.c_str());

    {
      QueryServer first(small_trace(), journal_config(path, threads));
      EXPECT_NE(ask(first, 1, "alice", 0.5).find("\"status\":\"ok\""),
                std::string::npos);
      EXPECT_NE(ask(first, 2, "bob", 0.25).find("\"status\":\"ok\""),
                std::string::npos);
      EXPECT_NE(ask(first, 3, "alice", 0.375).find("\"status\":\"ok\""),
                std::string::npos);
      // A genuine cap refusal: journaled as a refusal, charges nothing.
      EXPECT_NE(ask(first, 4, "alice", 0.5).find("budget-exhausted"),
                std::string::npos);
      EXPECT_DOUBLE_EQ(first.analyst_spent("alice"), 0.875);
      EXPECT_DOUBLE_EQ(first.analyst_spent("bob"), 0.25);
      // Crash: no shutdown flush, no artifacts — the per-response
      // syncs are all that survive.
    }
    core::obs::EventJournal::global().clear();  // fresh-process analog

    QueryServer second(small_trace(), journal_config(path, threads));
    ASSERT_EQ(second.recovered().size(), 2u);
    EXPECT_EQ(second.recovered()[0].analyst, "alice");
    EXPECT_DOUBLE_EQ(second.recovered()[0].eps, 0.875);
    EXPECT_EQ(second.recovered()[1].analyst, "bob");
    EXPECT_DOUBLE_EQ(second.recovered()[1].eps, 0.25);
    EXPECT_DOUBLE_EQ(second.analyst_spent("alice"), 0.875);
    EXPECT_DOUBLE_EQ(second.analyst_spent("bob"), 0.25);
    EXPECT_DOUBLE_EQ(second.dataset_spent(), 1.125);

    // No refunds: alice's recovered 0.875 stands, so 0.25 no longer
    // fits her 1.0 cap...
    EXPECT_NE(ask(second, 5, "alice", 0.25).find("budget-exhausted"),
              std::string::npos);
    // ...while 0.125 fits exactly.
    EXPECT_NE(ask(second, 6, "alice", 0.125).find("\"status\":\"ok\""),
              std::string::npos);
    EXPECT_DOUBLE_EQ(second.analyst_spent("alice"), 1.0);

    // The restarted server's journal (recovery charges + new charges)
    // reconciles with its ledger: the books balance by induction.
    const core::obs::JournalVerification v =
        core::obs::verify_journal_file(path);
    ASSERT_TRUE(v.ok) << v.error << " (threads=" << threads << ")";
    EXPECT_DOUBLE_EQ(v.charged_eps_by_label.at("alice"), 1.0);
    EXPECT_DOUBLE_EQ(v.charged_eps_by_label.at("bob"), 0.25);
    EXPECT_DOUBLE_EQ(v.charged_eps, second.dataset_spent());
    EXPECT_EQ(v.refusals, 1u);  // request 5; request 4 died with run 1
  }
}

// Chained restarts: recovery charges are themselves journaled, so a
// second crash recovers the same totals — restart is idempotent.
TEST(ServeRecovery, RestartIsIdempotentAcrossChainedCrashes) {
  const std::string path =
      ::testing::TempDir() + "/serve_recovery_chain.jsonl";
  std::remove(path.c_str());

  {
    QueryServer first(small_trace(), journal_config(path, 2));
    EXPECT_NE(ask(first, 1, "alice", 0.5).find("\"status\":\"ok\""),
              std::string::npos);
  }
  core::obs::EventJournal::global().clear();
  {
    QueryServer second(small_trace(), journal_config(path, 2));
    EXPECT_DOUBLE_EQ(second.analyst_spent("alice"), 0.5);
    // Crash again immediately: run 2 never answered a request, so the
    // journal on disk is its startup compaction — run 1's spend, re-
    // charged and sealed.
  }
  core::obs::EventJournal::global().clear();
  QueryServer third(small_trace(), journal_config(path, 2));
  EXPECT_DOUBLE_EQ(third.analyst_spent("alice"), 0.5);
  EXPECT_DOUBLE_EQ(third.dataset_spent(), 0.5);
}

// A tampered journal must refuse startup outright: budgets cannot be
// reconstructed from a record that fails its hash chain.
TEST(ServeRecovery, TamperedJournalRefusesStartup) {
  const std::string path =
      ::testing::TempDir() + "/serve_recovery_tampered.jsonl";
  std::remove(path.c_str());
  {
    QueryServer first(small_trace(), journal_config(path, 2));
    EXPECT_NE(ask(first, 1, "alice", 0.5).find("\"status\":\"ok\""),
              std::string::npos);
  }
  core::obs::EventJournal::global().clear();

  std::string text = read_file(path);
  ASSERT_FALSE(text.empty());
  text[text.size() / 2] = static_cast<char>(text[text.size() / 2] ^ 0x1);
  write_file(path, text);
  EXPECT_THROW(QueryServer(small_trace(), journal_config(path, 2)),
               core::DpError);
}

// A recovered spend that no longer fits a (shrunk) cap refuses startup:
// silently truncating it would refund budget.
TEST(ServeRecovery, ShrunkCapRefusesStartup) {
  const std::string path =
      ::testing::TempDir() + "/serve_recovery_shrunk.jsonl";
  std::remove(path.c_str());
  {
    QueryServer first(small_trace(), journal_config(path, 2));
    EXPECT_NE(ask(first, 1, "alice", 0.5).find("\"status\":\"ok\""),
              std::string::npos);
  }
  core::obs::EventJournal::global().clear();

  ServerConfig shrunk = journal_config(path, 2);
  shrunk.analyst_cap = 0.25;  // less than alice's recovered 0.5
  EXPECT_THROW(QueryServer(small_trace(), shrunk), core::DpError);
}

// A sync that fails between its write and its fsync (the
// obs.journal.flush failpoint) withholds the value and cuts the file back
// to its last seal, so a crash at that instant leaves the previous sealed
// journal replayable.  A server that keeps running holds the drained
// events: the next response's sync lands them exactly once.
TEST(ServeRecovery, CrashMidFlushLeavesPreviousJournalReplayable) {
  const std::string path =
      ::testing::TempDir() + "/serve_recovery_midflush.jsonl";
  std::remove(path.c_str());
  {
    QueryServer first(small_trace(), journal_config(path, 2));
    EXPECT_NE(ask(first, 1, "alice", 0.5).find("\"status\":\"ok\""),
              std::string::npos);
    const std::string sealed = read_file(path);
    {
      const core::failpoint::ScopedFailpoint crash(
          "obs.journal.flush", [](std::string_view) {
            throw std::runtime_error("injected crash mid-flush");
          });
      // The charge was never made durable, so no answer may acknowledge
      // it.
      EXPECT_NE(ask(first, 2, "alice", 0.25).find("\"error\":\"internal\""),
                std::string::npos);
    }
    // On disk: exactly the last sealed state, which verifies.
    EXPECT_EQ(read_file(path), sealed);
    const core::obs::JournalVerification v =
        core::obs::verify_journal_file(path);
    ASSERT_TRUE(v.ok) << v.error;
    EXPECT_EQ(v.charges, 1u);

    // The next sync lands the held charge and its own, each once (the
    // verifier rejects a repeated seq).
    EXPECT_NE(ask(first, 3, "bob", 0.125).find("\"status\":\"ok\""),
              std::string::npos);
    const core::obs::JournalVerification after =
        core::obs::verify_journal_file(path);
    ASSERT_TRUE(after.ok) << after.error;
    EXPECT_EQ(after.charges, 3u);
    EXPECT_EQ(after.faults, 1u);
    EXPECT_DOUBLE_EQ(after.charged_eps_by_label.at("alice"), 0.75);
    EXPECT_DOUBLE_EQ(after.charged_eps_by_label.at("bob"), 0.125);
  }
  core::obs::EventJournal::global().clear();  // fresh-process analog

  // Restart replays every durable spend, the withheld one included (a
  // charge stands even when its answer was withheld); serving resumes,
  // and the startup publish leaves no temp residue behind.
  QueryServer second(small_trace(), journal_config(path, 2));
  ASSERT_EQ(second.recovered().size(), 2u);
  EXPECT_DOUBLE_EQ(second.analyst_spent("alice"), 0.75);
  EXPECT_NE(ask(second, 4, "alice", 0.125).find("\"status\":\"ok\""),
            std::string::npos);
  EXPECT_DOUBLE_EQ(second.analyst_spent("alice"), 0.875);
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
}

// The journal is append-only: a response's sync adds its events and a
// seal, so the file before any response is a byte prefix of the file
// after it — no response rewrites history.
TEST(ServeRecovery, EachResponseOnlyAppendsToTheJournal) {
  const std::string path =
      ::testing::TempDir() + "/serve_recovery_append.jsonl";
  std::remove(path.c_str());
  QueryServer server(small_trace(), journal_config(path, 4));
  std::string previous = read_file(path);  // the startup publish
  ASSERT_FALSE(previous.empty());
  for (std::uint64_t id = 1; id <= 6; ++id) {
    EXPECT_NE(ask(server, id, id % 2 == 0 ? "alice" : "bob", 0.125)
                  .find("\"status\":\"ok\""),
              std::string::npos);
    const std::string current = read_file(path);
    ASSERT_GT(current.size(), previous.size()) << "id=" << id;
    EXPECT_EQ(current.compare(0, previous.size(), previous), 0)
        << "id=" << id;
    previous = current;
  }
  const core::obs::JournalVerification v =
      core::obs::verify_journal_file(path);
  ASSERT_TRUE(v.ok) << v.error;
  EXPECT_EQ(v.charges, 6u);
  EXPECT_EQ(v.unsealed_bytes, 0u);
}

// A crash mid-append leaves the last sync's bytes cut anywhere after the
// previous seal.  At every such cut the log reads as that seal, and a
// restart recovers exactly the sealed spends: the cut request was never
// acknowledged.
TEST(ServeRecovery, CutAfterLastSealRestartsWithTheSealedSpends) {
  const std::string path =
      ::testing::TempDir() + "/serve_recovery_cut.jsonl";
  std::remove(path.c_str());
  std::string sealed;
  std::string full;
  {
    QueryServer first(small_trace(), journal_config(path, 2));
    EXPECT_NE(ask(first, 1, "alice", 0.5).find("\"status\":\"ok\""),
              std::string::npos);
    sealed = read_file(path);
    EXPECT_NE(ask(first, 2, "alice", 0.25).find("\"status\":\"ok\""),
              std::string::npos);
    full = read_file(path);
  }
  core::obs::EventJournal::global().clear();
  ASSERT_GT(full.size(), sealed.size());
  ASSERT_EQ(full.compare(0, sealed.size(), sealed), 0);

  // Every cut short of the final seal's newline (with it, the seal line
  // is whole and the append counts).
  for (std::size_t cut = sealed.size(); cut + 1 < full.size(); ++cut) {
    const core::obs::JournalVerification v =
        core::obs::verify_journal_text(std::string_view(full).substr(0, cut));
    ASSERT_TRUE(v.ok) << "cut=" << cut << ": " << v.error;
    EXPECT_EQ(v.charges, 1u) << "cut=" << cut;
    EXPECT_EQ(v.unsealed_bytes, cut - sealed.size());
  }
  // Damage is not a cut: a flipped final newline leaves a whole seal line
  // with a stray byte, which must refuse rather than pass as a torn tail.
  std::string flipped = full;
  flipped.back() = static_cast<char>(flipped.back() ^ 0x40);
  EXPECT_FALSE(core::obs::verify_journal_text(flipped).ok);

  write_file(path, full.substr(0, (sealed.size() + full.size()) / 2));
  const QueryServer second(small_trace(), journal_config(path, 2));
  ASSERT_EQ(second.recovered().size(), 1u);
  EXPECT_DOUBLE_EQ(second.analyst_spent("alice"), 0.5);
  // The startup compaction dropped the tail.
  const core::obs::JournalVerification v =
      core::obs::verify_journal_file(path);
  ASSERT_TRUE(v.ok) << v.error;
  EXPECT_EQ(v.unsealed_bytes, 0u);
  EXPECT_DOUBLE_EQ(v.charged_eps, 0.5);
}

// A missing journal file is a first boot, not an error.
TEST(ServeRecovery, MissingJournalIsFirstBoot) {
  const std::string path =
      ::testing::TempDir() + "/serve_recovery_absent.jsonl";
  std::remove(path.c_str());
  QueryServer server(small_trace(), journal_config(path, 2));
  EXPECT_TRUE(server.recovered().empty());
  EXPECT_DOUBLE_EQ(server.dataset_spent(), 0.0);
}

}  // namespace
}  // namespace dpnet::serve
