// The diagnostics switch: one process-wide gate over the five telemetry
// channels that describe how a query ran — operator spans (trace.hpp),
// per-operator wall-time histograms (metrics.hpp), flight-recorder
// moments (recorder.hpp), ops-log lines (log.hpp) and ops snapshots
// (snapshot.hpp).  Armed by default; disarmed, each of those sites costs
// one relaxed atomic load.  bench_micro_engine measures all five against
// the switch off as the single "diagnostics overhead pct" row, which
// bench_schema_check holds under 2%.
//
// The privacy event journal (journal.hpp) has no switch: it witnesses
// every charge and refusal, like the ledger it reconciles with, so it
// always records (docs/observability.md).
#pragma once

#include <atomic>

namespace dpnet::core::obs {

namespace diagnostics_detail {
inline std::atomic<bool> armed{true};
}  // namespace diagnostics_detail

[[nodiscard]] inline bool diagnostics_armed() {
  return diagnostics_detail::armed.load(std::memory_order_relaxed);
}
inline void set_diagnostics_armed(bool on) {
  diagnostics_detail::armed.store(on, std::memory_order_relaxed);
}

}  // namespace dpnet::core::obs
