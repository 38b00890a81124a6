// Per-layer view of a workload: unit costs from standalone calls into each
// src/ module, work counts from the workload's own pass, the flight
// recorder's spans, and the ledger that multiplies the two.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Unit costs, timed single-threaded on the workload's own kernels, schemes
/// and DL1 size. Each is a median over repeated calls.
struct UnitCosts {
  double encode_ns = 0.0;  ///< per word, encode_line, mean over codecs
  double decode_ns = 0.0;  ///< per word, decode_line over clean + faulty
  double read_hit_ns = 0.0;  ///< SetAssocCache::read on a resident word
  double fill_ns = 0.0;      ///< SetAssocCache::fill with a clean eviction
  double run_program_ms = 0.0;  ///< core::run_program, mean over probes
  double system_build_us = 0.0;  ///< constructing the probe's sim::System
  /// The run_program probes per simulated cycle, system builds excluded.
  double ns_per_cycle = 0.0;
  double ns_per_trace_cycle = 0.0;  ///< core::run_trace (trace points only)
  double golden_run_ms = 0.0;   ///< run_golden_point + recorder + snapshots
  double resume_ms = 0.0;       ///< run_program_resume from a snapshot
  double save_us = 0.0;         ///< sim::save_system_state
  double restore_us = 0.0;      ///< sim::restore_system_state
  double schedule_draw_us = 0.0;  ///< reliability::draw_trial_schedule
  double checkpoint_write_us = 0.0;  ///< service::save_checkpoint
  double checkpoint_bytes = 0.0;
  double build_ms = 0.0;  ///< all 16 kernels assembled
  /// Per-simulated-cycle rates of the probe runs (campaign count estimates).
  double loads_per_cycle = 0.0, hits_per_load = 0.0, instr_per_cycle = 0.0,
         bus_tx_per_cycle = 0.0, bus_wait_per_cycle = 0.0,
         fill_words_per_cycle = 0.0;
};

/// Median of v (0 when empty).
[[nodiscard]] double median(std::vector<double> v);

[[nodiscard]] UnitCosts time_layers(const Workload& w, u64 seed,
                                    const std::string& scratch_dir);

/// Self time and totals of the recorded spans of one traced pass.
struct SpanStat {
  std::string name;
  u64 count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};

struct TraceSummary {
  std::vector<SpanStat> spans;  ///< by descending self time
  u64 threads = 0;              ///< distinct recording thread ids
  u64 dropped = 0;
  [[nodiscard]] double total(const std::string& name) const;
};

[[nodiscard]] TraceSummary summarize_trace(
    const std::vector<laec::obs::TraceEvent>& events, u64 dropped);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct LayerReport {
  std::vector<Metric> metrics;  ///< the per_layer catalog, in order
  std::string table;            ///< human-readable layer table + ledger
};

/// Everything the traced run measured, folded into the catalog.
struct LayerInputs {
  const Workload* workload = nullptr;
  UnitCosts costs;
  const Pass* untraced = nullptr;  ///< the pass the counts come from
  laec::obs::MetricsSnapshot registry;  ///< after that pass
  double cpu_s = 0.0;                   ///< median over untraced passes
  double untraced_wall_s = 0.0;         ///< median
  double traced_wall_s = 0.0;           ///< median
  TraceSummary trace;
  double laec_overhead_pct = 0.0;
};

[[nodiscard]] LayerReport report_layers(const LayerInputs& in);

}  // namespace perfbench
