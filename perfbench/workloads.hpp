// The benchmark's three workloads, built only from public src/ APIs.
//
//   campaign-wide   run_campaign, 16 kernels x {laec, sec-daec-39-32,
//                   dec-bch-45-32} x 28nm, accel 1e15, 24 trials/cell;
//                   passes cycle through 4 base seeds
//   campaign-deep   run_campaign, {puwmod, iirflt} x {laec, sec-daec-39-32}
//                   x 28nm, accel 1e16, 384 trials/cell, a checkpoint per
//                   round
//   sweep-fig8      run_sweep over the Fig. 8 grid: program mode at DL1
//                   2/4/8/16 KB under both hazard rules, plus seed-derived
//                   calibrated traces under both hazard rules
//
// Every workload runs at kThreads worker threads, with a 2 KB DL1 for the
// campaigns. A "smoke" build of each shrinks the grid to seconds for the
// self-test.
#pragma once

#include <string>
#include <vector>

#include "reliability/campaign.hpp"
#include "runner/sweep_runner.hpp"

namespace perfbench {

using laec::u64;

inline constexpr unsigned kThreads = 4;

struct Workload {
  std::string name;
  bool campaign = false;
  // Campaign workloads.
  std::vector<laec::reliability::CampaignCell> cells;
  laec::reliability::CampaignSpec spec;
  bool checkpoint_each_round = false;
  // The passes of one run cycle through this many base seeds derived from
  // the run's seed (pass_seed). campaign-wide's pass cost depends on which
  // of its few trials per cell survive pruning, so a run's median should
  // cover more than one draw.
  unsigned pass_seeds = 1;
  // sweep-fig8.
  std::vector<laec::runner::SweepPoint> points;
  // The kernels and scheme keys the workload deploys, and its DL1 size
  // (sweep-fig8: the paper's 16 KB) — what the layer micro-timers probe.
  std::vector<std::string> kernels;
  std::vector<std::string> schemes;
  unsigned dl1_bytes = 16 * 1024;
};

/// Set-up: codec registry + LUT builds for every deployed codec, assembly of
/// every kernel the workload runs, and grid expansion. Throws
/// std::invalid_argument for an unknown name.
[[nodiscard]] Workload setup_workload(const std::string& name, bool smoke);

/// One timed pass of a workload and everything the checks need.
struct Pass {
  double wall_s = 0.0;
  double cpu_s = 0.0;     ///< user + system time of the whole process
  u64 ops = 0;            ///< trials classified (campaigns) or points run
  u64 sim_cycles = 0;     ///< simulated cycles the pass's results cover
  u64 checkpoints = 0;    ///< per-round checkpoints written
  std::vector<std::string> rows;  ///< one CSV row per cell / point
  std::vector<bool> invalid;      ///< row failed an invariant check
  laec::reliability::CampaignSummary campaign;
  laec::runner::SweepSummary sweep;
};

/// Base seed of the passes in `slot` (0 <= slot < Workload::pass_seeds) of a
/// run seeded `seed`; slot 0 runs `seed` itself.
[[nodiscard]] u64 pass_seed(u64 seed, unsigned slot);

/// Run the workload once. `reference` selects the simulate-everything path
/// (campaigns: prune and fast-forward off; sweep-fig8: one thread).
/// `scratch_dir` receives the per-round checkpoint of campaign-deep.
[[nodiscard]] Pass run_pass(const Workload& w, u64 seed, bool reference,
                            const std::string& scratch_dir);

/// 64-bit FNV-1a of a row, as 16 hex digits.
[[nodiscard]] std::string row_digest(const std::string& row);

/// One of the paper points: every kernel under no-ecc and laec, 16 KB DL1,
/// exact hazard rule, program mode. sweep-fig8 contains them; the campaigns
/// run them outside the timed region.
struct PaperPoint {
  std::string kernel;
  bool laec = false;  ///< laec, else the no-ecc baseline
  u64 cycles = 0;
  double hit_pct = 0.0, dep_pct = 0.0, load_pct = 0.0;
};

[[nodiscard]] std::vector<PaperPoint> paper_points(const Pass& pass,
                                                   const Workload& w);

/// Mean absolute error, in percentage points, of the no-ecc paper points'
/// %hit / %dep / %load against the paper's Table II.
[[nodiscard]] double table2_mae_pp(const std::vector<PaperPoint>& paper);

/// Mean LAEC execution-time overhead over no-ecc across the paper points,
/// in percent (the Fig. 8 headline).
[[nodiscard]] double laec_overhead_pct(const std::vector<PaperPoint>& paper);

}  // namespace perfbench
