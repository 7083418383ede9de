// dpnet_perfbench: the benchmark's program.  perfbench/run.py builds it
// and runs it twice per measurement: once to generate the input trace,
// once to run the workload in a process of its own.
//
//   dpnet_perfbench gen --workload W --out TRACE.dpnt
//   dpnet_perfbench run --workload W --seed N --seconds S --trace 0|1
//                       --trace-file TRACE.dpnt --scratch DIR --out-dir DIR
//
// `run` prints one JSON line: {"correct","attempted","failed","metrics"},
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1).  A failed correctness check exits with code 3 and names
// the check on stderr, before any result is printed.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "core/json.hpp"
#include "net/trace_io.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Report;

const std::vector<std::string> kEndToEnd = {
    "setup_s",  "latency_p50_ms", "latency_p99_ms", "slo_share",
    "ok_share", "capacity_qps",   "batch_s",        "peak_rss_mb"};

/// Per-layer metrics with their units.
const std::vector<std::pair<std::string, std::string>>& per_layer() {
  static const std::vector<std::pair<std::string, std::string>> names = [] {
    std::vector<std::pair<std::string, std::string>> v = {
        {"serve.submit_us.p50", "us"},
        {"serve.submit_us.p99", "us"},
        {"serve.parse_us.p50", "us"},
        {"serve.session_open_ms", "ms"},
        {"serve.rejected", "count"},
        {"serve.shed", "count"},
        {"serve.deadline_aborts", "count"},
        {"serve.sessions", "count"},
        {"load.lag_ms.p99", "ms"},
        {"core.query_ms.mean", "ms"}};
    for (const std::string& kind : perfbench::op_kinds()) {
      v.emplace_back("core.op_ms." + kind, "ms");
    }
    const std::pair<const char*, const char*> rest[] = {
        {"core.rows_materialized", "count"},
        {"core.releases", "count"},
        {"core.noise_draws", "count"},
        {"core.ledger_entries", "count"},
        {"core.trace_spans", "count"},
        {"exec.worker_busy_share", "share"},
        {"exec.speedup_4v1", "x"},
        {"grouping.rows_per_s", "1/s"},
        {"obs.journal.bytes_per_response", "B"},
        {"obs.flight.bytes_per_response", "B"},
        {"obs.journal.flush_ms", "ms"},
        {"obs.flight.dump_ms", "ms"},
        {"obs.journal.events", "count"},
        {"obs.journal.dropped", "count"},
        {"obs.journal.recover_s", "s"},
        {"net.trace_load_s", "s"},
        {"analysis.packet_cdf_s", "s"},
        {"analysis.port_cdf_s", "s"},
        {"analysis.rtt_cdf_s", "s"},
        {"analysis.loss_cdf_s", "s"},
        {"analysis.worm_s", "s"},
        {"toolkit.worm_candidates", "count"},
        {"trace.overhead_share", "share"}};
    for (const auto& [name, unit] : rest) v.emplace_back(name, unit);
    return v;
  }();
  return names;
}

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: dpnet_perfbench gen --workload W --out PATH\n"
               "       dpnet_perfbench run --workload W --seed N --seconds S "
               "--trace 0|1\n"
               "                           --trace-file PATH --scratch DIR "
               "--out-dir DIR\n");
  std::exit(2);
}

std::string flag(const std::vector<std::string>& args, const char* name) {
  for (std::size_t i = 0; i + 1 < args.size(); ++i) {
    if (args[i] == name) return args[i + 1];
  }
  std::fprintf(stderr, "missing %s\n", name);
  usage();
}

std::uint64_t parse_u64(const std::string& text) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (text.empty() || *end != '\0') usage();
  return v;
}

/// The result line.  A missing end-to-end metric is a benchmark bug;
/// per-layer metrics of layers a workload does not run report 0.
std::string result_line(const Report& report, bool traced) {
  dpnet::core::JsonWriter w;
  w.begin_object();
  w.key("correct").value(true);
  w.key("attempted").value(report.attempted);
  w.key("failed").value(report.failed);
  w.key("metrics").begin_object();
  const auto emit = [&](const std::string& name, double value,
                        const std::string& unit) {
    w.key(name).begin_object();
    w.key("value").value(value);
    w.key("unit").value(unit);
    w.end_object();
  };
  if (traced) {
    for (const auto& [name, unit] : per_layer()) {
      const auto it = report.metrics.find(name);
      emit(name, it != report.metrics.end() ? it->second.value : 0.0, unit);
    }
  } else {
    for (const std::string& name : kEndToEnd) {
      const auto it = report.metrics.find(name);
      if (it == report.metrics.end()) {
        perfbench::fail_check("report.complete", "no value for " + name);
      }
      emit(name, it->second.value, it->second.unit);
    }
  }
  w.end_object();
  w.end_object();
  return w.str();
}

int run(const std::vector<std::string>& args) {
  perfbench::RunOptions opt;
  opt.workload = flag(args, "--workload");
  opt.seed = parse_u64(flag(args, "--seed"));
  opt.seconds = static_cast<double>(parse_u64(flag(args, "--seconds")));
  opt.traced = flag(args, "--trace") == "1";
  opt.trace_file = flag(args, "--trace-file");
  opt.scratch = flag(args, "--scratch");
  opt.out_dir = flag(args, "--out-dir");
  std::filesystem::create_directories(opt.scratch);
  std::filesystem::create_directories(opt.out_dir);

  perfbench::zipf_selftest(opt.seed);
  Report report;
  if (perfbench::is_serve_workload(opt.workload)) {
    perfbench::run_serve(opt, report);
  } else if (perfbench::is_batch_workload(opt.workload)) {
    perfbench::run_batch(opt, report);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", opt.workload.c_str());
    return 2;
  }
  const std::string line = result_line(report, opt.traced);
  std::printf("%s\n", line.c_str());
  return 0;
}

int gen(const std::vector<std::string>& args) {
  const std::string workload = flag(args, "--workload");
  const std::string out = flag(args, "--out");
  if (perfbench::is_serve_workload(workload)) {
    dpnet::net::write_trace_file(out, perfbench::generate_serve_trace());
  } else if (perfbench::is_batch_workload(workload)) {
    dpnet::net::write_trace_file(out, perfbench::generate_batch_trace());
  } else {
    std::fprintf(stderr, "unknown workload %s\n", workload.c_str());
    return 2;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) usage();
  try {
    if (args[0] == "gen") return gen(args);
    if (args[0] == "run") return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  usage();
}
