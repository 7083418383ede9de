// serve_scan: the production server configuration
// (`dpnet_cli serve --journal J --flight F`, 4 threads) driven from one
// generator thread through QueryServer::submit_frame.
//
// A run is split into windows.  Each window has two phases, each on a
// fresh server with fresh journal and flight files:
//   open loop    requests sent on a fixed schedule; latency runs from
//                each request's scheduled send time to its response sink;
//   closed loop  one outstanding request per analyst (the server's own
//                at-most-one-in-flight rule), for capacity.
// Every phase first opens all 8 sessions, then starts its clock.  The
// end-to-end timings come from the best window (see run_serve).
// After each phase the journal must verify with nothing dropped, and the
// journal, the per-analyst budgets and the ledger must agree on every
// analyst's spent epsilon.
#include <algorithm>
#include <array>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <thread>

#include "core/json.hpp"
#include "core/obs/journal.hpp"
#include "core/obs/log.hpp"
#include "core/obs/recorder.hpp"
#include "core/obs/resource.hpp"
#include "net/trace_io.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "tracegen/hotspot.hpp"
#include "workloads.hpp"
#include "zipf.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using dpnet::net::Packet;
using dpnet::serve::QueryServer;

constexpr int kAnalysts = 8;
constexpr std::size_t kThreads = 4;  // dpnet_cli serve's --threads default
// Dyadic epsilon and caps: every spent sum is exact in binary floating
// point, so journal == budget == ledger can be checked with ==, and no
// request is refused for budget within a run.
constexpr double kEps = 0x1.0p-10;
constexpr double kAnalystCap = 0x1.0p20;
constexpr double kDatasetBudget = 0x1.0p23;
// Closed-loop request slots per second of phase, preallocated so the
// response sinks write without a shared lock.  A phase that fills them
// ends early.
constexpr double kClosedSlotsPerSecond = 2000.0;
// In Zipf popularity order.  The most popular query, count-udp, sits in
// the middle of the latency order (count is cheaper; count-port and
// count-tcp copy more rows), so the median latency falls well inside one
// query's distribution and not on the edge between two.
constexpr const char* kQueries[] = {"count-udp", "count-tcp", "count-port",
                                    "count"};
constexpr std::uint64_t kPorts[] = {80, 443, 53, 22};
// The open-loop rate: under a fifth of the closed-loop capacity on a
// quiet host at the commit that defined the benchmark, because queueing
// amplifies the host's speed drift into the latencies; see README.
constexpr double kOpenRateQps = 25.0;
// Latency limit for slo_share.
constexpr double kSloMs = 500.0;
// Windows per run; each runs an open-loop phase for 3/4 of its share of
// --seconds, then a closed-loop phase for 1/4.
constexpr int kWindows = 5;
// Set-ups before the first window.  Every phase's server set-up is timed
// too, and setup_s is the median of them all.
constexpr int kSetupReps = 8;

std::uint64_t substream(std::uint64_t seed, std::uint64_t salt) {
  return Rng(seed ^ (salt * 0x9e3779b97f4a7c15ULL)).next();
}

std::string analyst_name(int a) { return "analyst" + std::to_string(a); }

/// Draws analysts (uniform) and request frames (Zipfian queries) from one
/// seeded stream.
class FrameSource {
 public:
  explicit FrameSource(std::uint64_t seed)
      : rng_(seed), queries_(std::size(kQueries)) {}

  int next_analyst() { return static_cast<int>(rng_.below(kAnalysts)); }

  std::string frame(std::uint64_t id, int analyst) {
    const std::uint64_t q = queries_.next(rng_);
    char buf[192];
    if (q == 2) {
      std::snprintf(buf, sizeof buf,
                    "{\"id\":%" PRIu64 ",\"analyst\":\"analyst%d\","
                    "\"query\":\"%s\",\"eps\":0.0009765625,\"port\":%" PRIu64
                    "}",
                    id, analyst, kQueries[q],
                    kPorts[rng_.below(std::size(kPorts))]);
    } else {
      std::snprintf(buf, sizeof buf,
                    "{\"id\":%" PRIu64 ",\"analyst\":\"analyst%d\","
                    "\"query\":\"%s\",\"eps\":0.0009765625}",
                    id, analyst, kQueries[q]);
    }
    return buf;
  }

 private:
  Rng rng_;
  Zipfian queries_;
};

struct Planned {
  std::string frame;
  int analyst = 0;
};

/// The open-loop request plan drawn from `stream`: first one request per
/// analyst in order, which open the sessions before the schedule starts,
/// then `n` scheduled requests whose analyst is drawn uniformly.
std::vector<Planned> plan_open_loop(std::uint64_t stream, std::size_t n) {
  FrameSource source(stream);
  std::vector<Planned> plan(kAnalysts + n);
  for (std::size_t i = 0; i < plan.size(); ++i) {
    plan[i].analyst = i < kAnalysts ? static_cast<int>(i)
                                    : source.next_analyst();
    plan[i].frame = source.frame(i + 1, plan[i].analyst);
  }
  return plan;
}

/// One request's record, written once by whichever thread runs its
/// response sink and read by the generator after QueryServer::drain().
struct Slot {
  Clock::time_point due;        // scheduled send (open loop)
  Clock::time_point sent;       // submit_frame called
  Clock::time_point submitted;  // submit_frame returned
  Clock::time_point answered;   // response sink ran
  std::uint64_t journal_bytes = 0;  // traced runs: file sizes the sink saw
  std::uint64_t flight_bytes = 0;
  bool answered_flag = false;
  bool ok = false;
};

/// Closed-loop hand-off from the sinks to the generator: one ready flag
/// per analyst plus a completion counter to wait on.  No mutex.
struct ClosedSync {
  std::array<std::atomic<bool>, kAnalysts> ready{};
  std::atomic<std::uint32_t> completions{0};
};

struct PhaseFiles {
  std::string dir;
  std::string journal;
  std::string flight;
};

PhaseFiles fresh_phase_dir(const std::string& scratch,
                           const std::string& name) {
  PhaseFiles p;
  p.dir = (fs::path(scratch) / name).string();
  fs::remove_all(p.dir);
  fs::create_directories(p.dir);
  p.journal = (fs::path(p.dir) / "journal.jsonl").string();
  p.flight = (fs::path(p.dir) / "flight.jsonl").string();
  return p;
}

dpnet::serve::ServerConfig server_config(const PhaseFiles& files) {
  dpnet::serve::ServerConfig cfg;  // defaults match dpnet_cli serve's
  cfg.threads = kThreads;
  cfg.dataset_budget = kDatasetBudget;
  cfg.analyst_cap = kAnalystCap;
  cfg.journal_path = files.journal;
  cfg.flight_path = files.flight;
  return cfg;
}

QueryServer::ResponseSink make_sink(Slot* slot, const PhaseFiles* observe,
                                    ClosedSync* sync, int analyst) {
  return [slot, observe, sync, analyst](const std::string& line) {
    slot->answered = Clock::now();
    slot->ok = line.find("\"status\":\"ok\"") != std::string::npos;
    slot->answered_flag = true;
    if (!slot->ok) std::fprintf(stderr, "not ok: %s\n", line.c_str());
    if (observe != nullptr) {
      // The sink runs after the journal flush and flight dump, so these
      // are the sizes the response paid to make durable.
      slot->journal_bytes = file_size(observe->journal.c_str());
      slot->flight_bytes = file_size(observe->flight.c_str());
    }
    if (sync != nullptr) {
      sync->ready[static_cast<std::size_t>(analyst)].store(
          true, std::memory_order_release);
      sync->completions.fetch_add(1, std::memory_order_release);
      sync->completions.notify_one();
    }
  };
}

/// The `audit verify` invariant after a drained phase: the journal
/// verifies with nothing dropped, and journal == budget == ledger for
/// every analyst, exactly.
void verify_phase(QueryServer& server, const PhaseFiles& files,
                  std::uint64_t ok_responses) {
  server.flush_journal();
  const auto v = dpnet::core::obs::verify_journal_file(files.journal);
  check(v.ok, "journal.verify", v.error);
  check(v.dropped == 0, "journal.dropped",
        std::to_string(v.dropped) + " events dropped");
  const dpnet::core::JsonValue ledger =
      dpnet::core::parse_json(server.ledger_json());
  const dpnet::core::JsonValue& totals = ledger.at("totals_by_label");
  for (int a = 0; a < kAnalysts; ++a) {
    const std::string name = analyst_name(a);
    const auto j = v.charged_eps_by_label.find(name);
    const double journal_eps =
        j != v.charged_eps_by_label.end() ? j->second : 0.0;
    const dpnet::core::JsonValue* l = totals.find(name);
    const double ledger_eps = l != nullptr ? l->number : 0.0;
    const double budget_eps = server.analyst_spent(name);
    check(journal_eps == budget_eps && budget_eps == ledger_eps,
          "audit.reconcile",
          name + ": journal " + std::to_string(journal_eps) + ", budget " +
              std::to_string(budget_eps) + ", ledger " +
              std::to_string(ledger_eps));
  }
  check(ledger.at("spent").number == server.dataset_spent(),
        "audit.reconcile", "ledger spent differs from the dataset budget");
  check(v.charged_eps == static_cast<double>(ok_responses) * kEps,
        "audit.charges_match_responses",
        std::to_string(v.charges) + " charges for " +
            std::to_string(ok_responses) + " ok responses");
}

/// Everything one phase measured.
struct PhaseResult {
  std::vector<Slot> slots;  // the first `sent` are used
  std::size_t sent = 0;
  std::size_t ok = 0;
  Clock::time_point start;
  Clock::time_point end;  // sending stopped (closed loop: deadline)
  EngineCounters counters;
  std::size_t sessions = 0;
  // Traced runs only.
  std::uint64_t rows_materialized = 0;
  std::uint64_t trace_spans = 0;
  std::uint64_t ledger_entries = 0;
  double core_busy_ms = 0.0;  // request root spans on pool workers
  std::vector<double> flush_ms;
  std::vector<double> dump_ms;
  double recover_s = 0.0;
};

/// Opens every analyst's session before a phase's clock starts: one
/// request per analyst, sent back to back into slots [0, kAnalysts), then
/// waits until all are answered.  Each opening copies the whole trace
/// inside submit_frame, a one-off cost per analyst that the
/// serve.session_open_ms layer metric and peak_rss_mb show; keeping it
/// out of the measured schedule keeps the latency tail on the queries.
template <typename FrameFor>
void open_sessions(QueryServer& server, PhaseResult& r,
                   const PhaseFiles* observe, ClosedSync& sync,
                   FrameFor frame_for) {
  for (int a = 0; a < kAnalysts; ++a) {
    Slot& slot = r.slots[static_cast<std::size_t>(a)];
    sync.ready[static_cast<std::size_t>(a)].store(false);
    slot.sent = Clock::now();
    server.submit_frame(frame_for(a), make_sink(&slot, observe, &sync, a));
    slot.submitted = Clock::now();
  }
  for (std::uint32_t done = 0; done < kAnalysts;
       done = sync.completions.load(std::memory_order_acquire)) {
    sync.completions.wait(done, std::memory_order_acquire);
  }
}

void walk_spans(const dpnet::core::JsonValue& span, PhaseResult& r) {
  ++r.trace_spans;
  const dpnet::core::JsonValue* mech = span.find("mechanism");
  const double out = span.at("output_rows").number;
  if (mech == nullptr && out > 0) {
    r.rows_materialized += static_cast<std::uint64_t>(out);
  }
  for (const auto& child : span.at("children").array) walk_spans(child, r);
}

/// Traced-run probes on the drained server: the program's own trace and
/// ledger, and the cost of one more journal flush / flight dump of the
/// end-of-phase rings.
void probe_server(QueryServer& server, const PhaseFiles& files,
                  PhaseResult& r, SpanLog& log, int parent,
                  const std::string& out_dir, const std::string& phase) {
  {
    const SpanScope span(&log, "core.trace_walk", parent);
    const std::string trace = server.trace_json();
    write_file((fs::path(out_dir) / ("program_trace_" + phase + ".json"))
                   .string(),
               trace);
    const dpnet::core::JsonValue doc = dpnet::core::parse_json(trace);
    for (const auto& root : doc.at("spans").array) {
      walk_spans(root, r);
      if (root.at("worker").number >= 0) {
        r.core_busy_ms += root.at("dur_us").number / 1000.0;
      }
    }
    const dpnet::core::JsonValue ledger =
        dpnet::core::parse_json(server.ledger_json());
    r.ledger_entries = ledger.at("entries").array.size();
  }
  const std::string probe = (fs::path(files.dir) / "probe.jsonl").string();
  for (int rep = 0; rep < 3; ++rep) {
    const SpanScope flush(&log, "obs.journal.flush", parent);
    const auto t0 = Clock::now();
    dpnet::core::obs::EventJournal::global().flush_to_file(probe);
    r.flush_ms.push_back(ms_between(t0, Clock::now()));
  }
  for (int rep = 0; rep < 3; ++rep) {
    const SpanScope dump(&log, "obs.flight.dump", parent);
    const auto t0 = Clock::now();
    dpnet::core::obs::FlightRecorder::global().dump_to_file(probe);
    r.dump_ms.push_back(ms_between(t0, Clock::now()));
  }
}

/// Every set-up time the run took: net::read_trace_file plus QueryServer
/// construction, as in dpnet_cli serve.
struct SetupTimes {
  std::vector<double> setup_s;
  std::vector<double> load_s;
};

/// Reads the trace and builds a server on it, as dpnet_cli serve does;
/// the server holds the only copy of the trace the run keeps.  Every
/// server the run measures is built here, and each is one setup_s sample.
std::unique_ptr<QueryServer> set_up_server(const std::string& trace_file,
                                           const PhaseFiles& files,
                                           SetupTimes& times, SpanLog* log,
                                           int parent) {
  const SpanScope setup(log, "setup", parent);
  const auto t0 = Clock::now();
  std::vector<Packet> records;
  {
    const SpanScope read(log, "net.read_trace", setup.id());
    records = dpnet::net::read_trace_file(trace_file);
  }
  const auto t1 = Clock::now();
  std::unique_ptr<QueryServer> server;
  {
    const SpanScope construct(log, "serve.construct", setup.id());
    server = std::make_unique<QueryServer>(std::move(records),
                                           server_config(files));
  }
  times.setup_s.push_back(seconds_between(t0, Clock::now()));
  times.load_s.push_back(seconds_between(t0, t1));
  return server;
}

/// Restarts a server on the phase's journal: the set-up time of a
/// recovered server.  The recovered spends must match the journal.
void probe_recovery(const std::string& trace_file, const PhaseFiles& files,
                    PhaseResult& r, SpanLog& log, int parent) {
  const auto v = dpnet::core::obs::verify_journal_file(files.journal);
  std::vector<Packet> records = dpnet::net::read_trace_file(trace_file);
  dpnet::serve::ServerConfig cfg = server_config(files);
  cfg.flight_path = (fs::path(files.dir) / "flight_recovered.jsonl").string();
  const SpanScope span(&log, "obs.journal.recover", parent);
  const auto t0 = Clock::now();
  QueryServer recovered(std::move(records), cfg);
  r.recover_s = seconds_between(t0, Clock::now());
  double sum = 0.0;
  for (const auto& rb : recovered.recovered()) {
    check(v.charged_eps_by_label.count(rb.analyst) == 1 &&
              v.charged_eps_by_label.at(rb.analyst) == rb.eps,
          "journal.recover", rb.analyst + " recovered a different spend");
    sum += rb.eps;
  }
  check(sum == v.charged_eps, "journal.recover",
        "recovered spend differs from the journal's");
}

struct PhaseContext {
  const RunOptions& opt;
  SetupTimes& setup;
  SpanLog* log;  // null: untraced
  int parent = -1;
};

/// Shared tail of both phases: drain, verify, read deltas, probe.
void finish_phase(const PhaseContext& ctx, QueryServer& server,
                  const PhaseFiles& files, const EngineCounters& before,
                  PhaseResult& r, const std::string& phase) {
  server.drain();
  for (std::size_t i = 0; i < r.sent; ++i) {
    check(r.slots[i].answered_flag, "serve.responses",
          "request " + std::to_string(i + 1) + " got no response");
    if (r.slots[i].ok) ++r.ok;
  }
  {
    const SpanScope span(ctx.log, "check.audit", ctx.parent);
    verify_phase(server, files, r.ok);
  }
  r.counters = EngineCounters::read().since(before);
  r.sessions = server.sessions();
  if (ctx.log != nullptr) {
    probe_server(server, files, r, *ctx.log, ctx.parent, ctx.opt.out_dir,
                 phase);
  }
}

PhaseResult run_open_loop(const PhaseContext& ctx, double seconds,
                          int window) {
  const auto n = static_cast<std::size_t>(
      std::max(1.0, std::round(kOpenRateQps * seconds)));
  const std::vector<Planned> plan =
      plan_open_loop(substream(ctx.opt.seed, 1 + window), n);
  const std::string phase = "open" + std::to_string(window);
  const PhaseFiles files = fresh_phase_dir(ctx.opt.scratch, phase);
  PhaseResult r;
  r.slots.resize(plan.size());
  ClosedSync sync;
  const EngineCounters before = EngineCounters::read();
  {
    const std::unique_ptr<QueryServer> server = set_up_server(
        ctx.opt.trace_file, files, ctx.setup, ctx.log, ctx.parent);
    const PhaseFiles* observe = ctx.log != nullptr ? &files : nullptr;
    open_sessions(*server, r, observe, sync, [&plan](int a) {
      return plan[static_cast<std::size_t>(a)].frame;
    });
    const auto period = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(1.0 / kOpenRateQps));
    r.start = Clock::now() + std::chrono::milliseconds(5);
    for (std::size_t i = kAnalysts; i < plan.size(); ++i) {
      Slot& slot = r.slots[i];
      slot.due = r.start + period * static_cast<std::int64_t>(i - kAnalysts);
      std::this_thread::sleep_until(slot.due);
      slot.sent = Clock::now();
      server->submit_frame(plan[i].frame,
                           make_sink(&slot, observe, nullptr, 0));
      slot.submitted = Clock::now();
    }
    r.sent = plan.size();
    r.end = Clock::now();
    finish_phase(ctx, *server, files, before, r, phase);
  }
  if (ctx.log != nullptr) {
    probe_recovery(ctx.opt.trace_file, files, r, *ctx.log, ctx.parent);
  }
  return r;
}

PhaseResult run_closed_loop(const PhaseContext& ctx, double seconds,
                            int window, const std::string& name) {
  const std::string phase = name + std::to_string(window);
  const PhaseFiles files = fresh_phase_dir(ctx.opt.scratch, phase);
  PhaseResult r;
  r.slots.resize(static_cast<std::size_t>(
      std::ceil(kClosedSlotsPerSecond * seconds)));
  std::vector<FrameSource> sources;
  for (int a = 0; a < kAnalysts; ++a) {
    sources.emplace_back(substream(ctx.opt.seed, 100 + 16 * window + a));
  }
  ClosedSync sync;
  const EngineCounters before = EngineCounters::read();
  {
    const std::unique_ptr<QueryServer> server = set_up_server(
        ctx.opt.trace_file, files, ctx.setup, ctx.log, ctx.parent);
    const PhaseFiles* observe = ctx.log != nullptr ? &files : nullptr;
    open_sessions(*server, r, observe, sync, [&sources](int a) {
      return sources[static_cast<std::size_t>(a)].frame(a + 1, a);
    });
    std::size_t next = kAnalysts;
    r.start = Clock::now();
    const auto deadline =
        r.start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(seconds));
    bool stop = false;
    while (!stop) {
      const std::uint32_t seen =
          sync.completions.load(std::memory_order_acquire);
      bool sent_any = false;
      for (int a = 0; a < kAnalysts && !stop; ++a) {
        if (Clock::now() >= deadline || next == r.slots.size()) {
          stop = true;
          break;
        }
        if (!sync.ready[static_cast<std::size_t>(a)].exchange(
                false, std::memory_order_acq_rel)) {
          continue;
        }
        Slot& slot = r.slots[next];
        std::string frame =
            sources[static_cast<std::size_t>(a)].frame(next + 1, a);
        slot.sent = Clock::now();
        server->submit_frame(frame, make_sink(&slot, observe, &sync, a));
        slot.submitted = Clock::now();
        ++next;
        sent_any = true;
      }
      if (!stop && !sent_any) {
        sync.completions.wait(seen, std::memory_order_acquire);
      }
    }
    r.sent = next;
    r.end = std::min(Clock::now(), deadline);
    finish_phase(ctx, *server, files, before, r, phase);
  }
  return r;
}

/// ok responses to requests sent from the phase's start and answered
/// before its end, per second up to the last of them.
double capacity_qps(const PhaseResult& r) {
  std::size_t done = 0;
  Clock::time_point last = r.start;
  for (std::size_t i = 0; i < r.sent; ++i) {
    const Slot& s = r.slots[i];
    if (s.ok && s.sent >= r.start && s.answered <= r.end) {
      ++done;
      last = std::max(last, s.answered);
    }
  }
  return done == 0 ? 0.0
                   : static_cast<double>(done) / seconds_between(r.start, last);
}

/// A per-phase figure for each phase.
template <typename F>
std::vector<double> per_phase(const std::vector<PhaseResult>& phases,
                              F figure) {
  std::vector<double> v;
  for (const PhaseResult& r : phases) v.push_back(figure(r));
  return v;
}

/// Latencies of one open-loop phase's ok scheduled responses, from
/// scheduled send.
std::vector<double> open_latencies_ms(const PhaseResult& r) {
  std::vector<double> ms;
  for (std::size_t i = kAnalysts; i < r.sent; ++i) {
    if (r.slots[i].ok) ms.push_back(ms_between(r.slots[i].due,
                                               r.slots[i].answered));
  }
  return ms;
}

/// Request spans for the traced run: scheduled send to response, with
/// the submit_frame call as a child.
void record_request_spans(const PhaseResult& r, SpanLog& log, int parent,
                          bool open_loop) {
  for (std::size_t i = 0; i < r.sent; ++i) {
    const Slot& s = r.slots[i];
    const bool scheduled = open_loop && i >= kAnalysts;
    const int req = log.add("request", scheduled ? s.due : s.sent,
                            s.answered, parent, i + 1, 1);
    log.add("serve.submit", s.sent, s.submitted, req, i + 1, 1);
  }
}

}  // namespace

bool is_serve_workload(const std::string& name) { return name == "serve_scan"; }

std::vector<Packet> generate_serve_trace() {
  // The trace `dpnet_cli gen --full` writes, with its default seed: the
  // dataset is fixed, --seed draws the traffic.
  return dpnet::tracegen::HotspotGenerator(dpnet::tracegen::HotspotConfig{})
      .generate();
}

void zipf_selftest(std::uint64_t seed) {
  const auto a = plan_open_loop(substream(seed, 1), 512);
  const auto b = plan_open_loop(substream(seed, 1), 512);
  const auto c = plan_open_loop(substream(seed + 1, 1), 512);
  bool same = true;
  bool differs = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    same = same && a[i].frame == b[i].frame && a[i].analyst == b[i].analyst;
    differs = differs || a[i].frame != c[i].frame;
  }
  check(same, "zipf.same_seed_same_frames",
        "two plans from one seed differ");
  check(differs, "zipf.seed_changes_frames",
        "seeds " + std::to_string(seed) + " and " +
            std::to_string(seed + 1) + " give the same frames");
  // The query distribution the frames draw from.  Item 0 is drawn iff
  // u * zeta(n) < 1, so its share converges to 1 / zeta(n); 200k draws
  // put 5 standard errors at about 0.0056.
  const Zipfian zipf(std::size(kQueries));
  Rng rng(substream(seed, 7));
  constexpr int kDraws = 200000;
  int top = 0;
  for (int i = 0; i < kDraws; ++i) top += zipf.next(rng) == 0 ? 1 : 0;
  const double share = static_cast<double>(top) / kDraws;
  check(std::abs(share - zipf.top_mass()) < 0.0056, "zipf.top_share",
        "top query share " + std::to_string(share) + " vs Zipf mass " +
            std::to_string(zipf.top_mass()));
}

void run_serve(const RunOptions& opt, Report& report) {
  // The operator's ops log, as dpnet_cli serve configures it.
  dpnet::core::obs::OpsLog::global().set_min_level(
      dpnet::core::obs::LogLevel::kInfo);
  dpnet::core::obs::OpsLog::global().use_stderr();

  std::unique_ptr<SpanLog> log =
      opt.traced ? std::make_unique<SpanLog>() : nullptr;
  const int root = log ? log->open("run") : -1;

  SetupTimes setup;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const PhaseFiles files =
        fresh_phase_dir(opt.scratch, "setup" + std::to_string(rep));
    std::unique_ptr<QueryServer> server =
        set_up_server(opt.trace_file, files, setup, log.get(), root);
    const SpanScope shutdown(log.get(), "serve.shutdown", root);
    server.reset();
  }

  // Each window: open loop for 3/4 of its time (samples for p99), closed
  // loop for 1/4.  Traced: the same phases with probes, plus an untraced
  // closed-loop phase per window whose capacity against the traced one
  // is the tracing overhead.
  const double open_s = opt.seconds * 3.0 / 4.0 / kWindows;
  const double closed_s = opt.seconds / 4.0 / kWindows;
  std::vector<PhaseResult> open;
  std::vector<PhaseResult> closed;
  std::vector<PhaseResult> reference;
  std::vector<int> open_spans;
  std::vector<int> closed_spans;
  for (int w = 0; w < kWindows; ++w) {
    const SpanScope window(log.get(), "window", root);
    PhaseContext ctx{opt, setup, log.get(), -1};
    {
      const SpanScope span(log.get(), "phase.open", window.id());
      ctx.parent = span.id();
      open_spans.push_back(span.id());
      open.push_back(run_open_loop(ctx, open_s, w));
    }
    {
      const SpanScope span(log.get(), "phase.closed", window.id());
      ctx.parent = span.id();
      closed_spans.push_back(span.id());
      closed.push_back(run_closed_loop(ctx, closed_s, w, "closed"));
    }
    if (log) {
      SetupTimes untimed;
      const PhaseContext plain{opt, untimed, nullptr, -1};
      const SpanScope span(log.get(), "phase.closed_untraced", window.id());
      reference.push_back(run_closed_loop(plain, closed_s, w, "reference"));
    }
  }

  // End-to-end metrics: shares over all requests, and each timing from
  // its best window.  Host interference (CPU time the hypervisor gives
  // other guests, I/O stalls) only ever slows a window, and its episodes
  // outlast a window, so a median over windows still moves with it; a
  // slower program slows every window, the best one included.
  std::size_t sent_open = 0;
  std::size_t within_slo = 0;
  std::size_t ok_latencies = 0;
  for (const PhaseResult& r : open) {
    sent_open += r.sent;
    for (std::size_t i = 0; i < kAnalysts; ++i) {
      const Slot& s = r.slots[i];
      if (s.ok && ms_between(s.sent, s.answered) <= kSloMs) ++within_slo;
    }
    for (const double ms : open_latencies_ms(r)) {
      ++ok_latencies;
      if (ms <= kSloMs) ++within_slo;
    }
  }
  std::size_t sent_closed = 0;
  std::uint64_t ok = 0;
  for (const auto* phases : {&open, &closed}) {
    for (const PhaseResult& r : *phases) ok += r.ok;
  }
  for (const PhaseResult& r : closed) sent_closed += r.sent;
  const double capacity = std::ranges::max(per_phase(closed, capacity_qps));
  report.attempted = sent_open + sent_closed;
  report.failed = report.attempted - ok;
  report.set("setup_s", median(setup.setup_s), "s");
  report.set("latency_p50_ms",
             std::ranges::min(per_phase(open, [](const PhaseResult& r) {
               return quantile(open_latencies_ms(r), 0.50);
             })),
             "ms");
  report.set("latency_p99_ms",
             std::ranges::min(per_phase(open, [](const PhaseResult& r) {
               return quantile(open_latencies_ms(r), 0.99);
             })),
             "ms");
  report.set("slo_share",
             static_cast<double>(within_slo) / static_cast<double>(sent_open),
             "share");
  report.set("ok_share",
             1.0 - static_cast<double>(report.failed) /
                       static_cast<double>(report.attempted),
             "share");
  report.set("capacity_qps", capacity, "1/s");
  // One request per analyst at closed-loop capacity.
  report.set("batch_s", kAnalysts / capacity, "s");
  report.set("peak_rss_mb",
             static_cast<double>(dpnet::core::obs::peak_rss_kb()) / 1024.0,
             "MB");
  std::fprintf(stderr,
               "serve_scan: %d windows; open loop %zu sent at %.1f/s (%zu ok "
               "latencies), closed loop %zu sent; %zu set-ups\n",
               kWindows, sent_open, kOpenRateQps, ok_latencies, sent_closed,
               setup.setup_s.size());
  for (int w = 0; w < kWindows; ++w) {
    const std::vector<double> ms = open_latencies_ms(open[w]);
    std::fprintf(stderr,
                 "  window %d: p50 %.2f ms, p99 %.2f ms, capacity %.2f/s\n", w,
                 quantile(ms, 0.50), quantile(ms, 0.99),
                 capacity_qps(closed[w]));
  }
  if (!log) return;

  // Per-layer metrics (traced run).
  for (int w = 0; w < kWindows; ++w) {
    record_request_spans(open[w], *log, open_spans[w], true);
    record_request_spans(closed[w], *log, closed_spans[w], false);
  }
  log->close(root);

  std::vector<double> submit_us;
  std::vector<double> lag_ms;
  std::vector<double> session_open_ms;
  for (const PhaseResult& r : open) {
    for (std::size_t i = 0; i < r.sent; ++i) {
      const Slot& s = r.slots[i];
      submit_us.push_back(ms_between(s.sent, s.submitted) * 1000.0);
      if (i >= kAnalysts) lag_ms.push_back(ms_between(s.due, s.sent));
    }
  }
  for (const auto* phases : {&open, &closed}) {
    for (const PhaseResult& r : *phases) {
      for (std::size_t i = 0; i < kAnalysts; ++i) {
        session_open_ms.push_back(
            ms_between(r.slots[i].sent, r.slots[i].submitted));
      }
    }
  }
  std::vector<double> parse_us;
  {
    const auto plan = plan_open_loop(substream(opt.seed, 1), 256);
    constexpr int kReps = 16;
    for (const Planned& p : plan) {
      const auto t0 = Clock::now();
      for (int k = 0; k < kReps; ++k) {
        const auto req = dpnet::serve::protocol::parse_request(p.frame);
        check(req.eps == kEps, "serve.parse", "frame eps did not parse");
      }
      parse_us.push_back(ms_between(t0, Clock::now()) * 1000.0 / kReps);
    }
  }
  // Counts per request come from the open loop, whose requests the seed
  // fixes, so they repeat exactly; times and sizes cover every phase.
  EngineCounters total;
  EngineCounters open_total;
  std::uint64_t sessions = 0;
  std::uint64_t rows_materialized = 0;
  std::uint64_t ledger_entries = 0;
  std::uint64_t trace_spans = 0;
  double journal_bytes = 0.0;
  double flight_bytes = 0.0;
  std::vector<double> flush_ms;
  std::vector<double> dump_ms;
  double closed_busy_ms = 0.0;
  double closed_wall_ms = 0.0;
  for (const auto* phases : {&open, &closed}) {
    for (const PhaseResult& r : *phases) {
      total += r.counters;
      sessions += r.sessions;
      for (std::size_t i = 0; i < r.sent; ++i) {
        journal_bytes += static_cast<double>(r.slots[i].journal_bytes);
        flight_bytes += static_cast<double>(r.slots[i].flight_bytes);
      }
      flush_ms.insert(flush_ms.end(), r.flush_ms.begin(), r.flush_ms.end());
      dump_ms.insert(dump_ms.end(), r.dump_ms.begin(), r.dump_ms.end());
    }
  }
  for (const PhaseResult& r : open) {
    open_total += r.counters;
    rows_materialized += r.rows_materialized;
    ledger_entries += r.ledger_entries;
    trace_spans += r.trace_spans;
  }
  for (const PhaseResult& r : closed) {
    closed_busy_ms += r.core_busy_ms;
    closed_wall_ms += ms_between(r.start, r.end);
  }
  const double requests = static_cast<double>(report.attempted);
  const double open_requests = static_cast<double>(sent_open);
  const double traced_capacity = capacity;
  const double untraced_capacity =
      std::ranges::max(per_phase(reference, capacity_qps));

  report.set("serve.submit_us.p50", quantile(submit_us, 0.50), "us");
  report.set("serve.submit_us.p99", quantile(submit_us, 0.99), "us");
  report.set("serve.parse_us.p50", median(parse_us), "us");
  report.set("serve.session_open_ms", median(session_open_ms), "ms");
  report.set("serve.rejected", static_cast<double>(total.rejected), "count");
  report.set("serve.shed", static_cast<double>(total.shed), "count");
  report.set("serve.deadline_aborts",
             static_cast<double>(total.deadline_aborts), "count");
  report.set("serve.sessions", static_cast<double>(sessions), "count");
  report.set("load.lag_ms.p99", quantile(lag_ms, 0.99), "ms");
  report.set("core.query_ms.mean", total.query_ms_mean(), "ms");
  for (const auto& [kind, ms] : total.op_ms) {
    report.set("core.op_ms." + kind, ms / requests, "ms");
  }
  report.set("core.rows_materialized",
             static_cast<double>(rows_materialized) / open_requests, "count");
  report.set("core.releases",
             static_cast<double>(open_total.releases) / open_requests,
             "count");
  report.set("core.noise_draws",
             static_cast<double>(open_total.noise_draws) / open_requests,
             "count");
  report.set("core.ledger_entries",
             static_cast<double>(ledger_entries) / open_requests, "count");
  report.set("core.trace_spans",
             static_cast<double>(trace_spans) / open_requests, "count");
  report.set("exec.worker_busy_share",
             closed_busy_ms / (kThreads * closed_wall_ms), "share");
  report.set("obs.journal.bytes_per_response", journal_bytes / requests, "B");
  report.set("obs.flight.bytes_per_response", flight_bytes / requests, "B");
  report.set("obs.journal.flush_ms", median(flush_ms), "ms");
  report.set("obs.flight.dump_ms", median(dump_ms), "ms");
  report.set("obs.journal.events",
             static_cast<double>(open_total.journal_events) / open_requests,
             "count");
  report.set("obs.journal.dropped", static_cast<double>(total.journal_dropped),
             "count");
  report.set("obs.journal.recover_s",
             median(per_phase(
                 open, [](const PhaseResult& r) { return r.recover_s; })),
             "s");
  report.set("net.trace_load_s", median(setup.load_s), "s");
  report.set("trace.overhead_share", untraced_capacity / traced_capacity - 1.0,
             "share");

  // Where a closed-loop response's time goes.  By Little's law a
  // response takes 8 / capacity (8 outstanding) and occupies a worker for
  // 4 / capacity (4 workers); the core query is part of the latter.
  EngineCounters closed_total;
  for (const PhaseResult& r : closed) closed_total += r.counters;
  const double response_ms = 1000.0 * kAnalysts / capacity;
  const double worker_ms = 1000.0 * static_cast<double>(kThreads) / capacity;
  const double query_ms = closed_total.query_ms_mean();
  std::fprintf(stderr,
               "closed loop: response %.3f ms, worker time %.3f ms, of which "
               "core query %.3f ms (%.1f%%); end-of-phase journal flush "
               "%.3f ms, flight dump %.3f ms\n",
               response_ms, worker_ms, query_ms, 100.0 * query_ms / worker_ms,
               median(flush_ms), median(dump_ms));
  write_file((fs::path(opt.out_dir) / "bench_spans.json").string(),
             log->chrome_json());
  for (const auto& [name, ms] : log->self_ms()) {
    std::fprintf(stderr, "  self %-24s %12.3f ms\n", name.c_str(), ms);
  }
}

}  // namespace perfbench
