// The benchmark's workloads.  Each runs in its own process: the event
// journal, flight recorder and metrics registry are process-wide, and
// peak RSS must belong to one workload.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "net/packet.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;      // per-layer run (spans, probes) vs end-to-end
  std::string trace_file;   // the generated input trace (.dpnt)
  std::string scratch;      // journal/flight directories, probe files
  std::string out_dir;      // span and program-trace artifacts (traced)
};

/// True for the names run_serve / run_batch accept.
[[nodiscard]] bool is_serve_workload(const std::string& name);
[[nodiscard]] bool is_batch_workload(const std::string& name);

/// The workload's fixed dataset; --seed draws the traffic (serve) and the
/// noise seeds (batch).  Written by `dpnet_perfbench gen` in a process of
/// its own, so generation never shows in the measured process's peak RSS.
[[nodiscard]] std::vector<dpnet::net::Packet> generate_serve_trace();
[[nodiscard]] std::vector<dpnet::net::Packet> generate_batch_trace();

/// serve_scan: the mediated query server, driven through
/// QueryServer::submit_frame with journal and flight recorder on.
void run_serve(const RunOptions& opt, Report& report);

/// analyses_batch: the paper's section 5 pipelines over one Queryable.
void run_batch(const RunOptions& opt, Report& report);

/// Zipfian self-test: the same seed gives the same frame sequence, a
/// different seed a different one, and the top query's share matches
/// the Zipf mass.  Exits through fail_check on a mismatch.
void zipf_selftest(std::uint64_t seed);

}  // namespace perfbench
