// Campaign-throughput benchmark: the two-pass accelerators vs
// simulate-everything, at both operating points that matter.
//
// Scenario 1 ("pruning point", --accel, default 1e15): golden-run pruning
// vs the full-simulation floor, fast-forward off in both passes so the
// number isolates pruning. At the 28nm raw rate this is the regime where
// most storms land entirely on dead exposure windows (roughly 90% of
// trials classified without simulation).
//
// Scenario 2 ("saturated point", --accel-saturated, default 1e16): the
// windows saturate and pruning classifies almost nothing, so snapshot
// fast-forward carries the load. Three passes — the full-simulation floor
// (prune and ff both off), prune-only (ff off), and the default
// accelerator stack (prune + ff) — yield ff_speedup (ff's marginal win
// over prune-only) and total_speedup (the whole stack vs the floor).
//
// Every pass of a scenario must produce byte-identical CSV rows first (the
// equivalence contract), so the numbers measure acceleration, not
// divergence. CI runs this with the --min-* floors as a perf-smoke
// regression gate; measured numbers are tracked in
// BENCH_campaign_speed.json.
//
// Flags: --threads=N (default 1), --trials=N per cell (default 48),
// --accel=A (scenario 1 point, default 1e15), --accel-saturated=A
// (scenario 2 point, default 1e16), --min-speedup=S (scenario 1 floor),
// --min-ff-speedup=S / --min-total-speedup=S (scenario 2 floors; all
// floors default 0 = report only, exit 1 below), --json.
//
// --trace=FILE re-runs the scenario-2 full stack with the flight recorder
// armed (and a per-round checkpoint write, so checkpoint spans appear),
// asserts the rows stay byte-identical to the untraced pass, writes the
// Chrome trace document, and reports the tracing overhead. The untraced
// passes above ARE the instrumented-but-off baseline — the perf-smoke
// floors gate the disabled-path cost.
#include <chrono>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "obs/trace.hpp"
#include "reliability/campaign.hpp"
#include "report/sink.hpp"
#include "service/checkpoint.hpp"

namespace {

using namespace laec;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct Pass {
  reliability::CampaignSummary sum;
  double secs = 0.0;
  std::string csv;
};

}  // namespace

int main(int argc, char** argv) {
  runner::SweepOptions popts;
  popts.threads = 1;
  u64 trials = 48;
  double accel = 1e15;
  double accel_saturated = 1e16;
  double min_speedup = 0.0;
  double min_ff_speedup = 0.0;
  double min_total_speedup = 0.0;
  std::string trace_path;
  bool json = false;
  if (!bench::parse_bench_args(
          argc, argv, popts,
          "usage: campaign_speed [--threads=N] [--trials=N] [--accel=A]\n"
          "                      [--accel-saturated=A] [--min-speedup=S]\n"
          "                      [--min-ff-speedup=S] "
          "[--min-total-speedup=S]\n"
          "                      [--trace=FILE] [--json]\n",
          [&](const std::string& arg) {
            if (arg.rfind("--trace=", 0) == 0) {
              trace_path = arg.substr(8);
              return true;
            }
            if (arg == "--json") return json = true;
            return bench::take_number(arg, "--trials=", trials) ||
                   bench::take_number(arg, "--accel-saturated=",
                                      accel_saturated) ||
                   bench::take_number(arg, "--accel=", accel) ||
                   bench::take_number(arg, "--min-speedup=", min_speedup) ||
                   bench::take_number(arg, "--min-ff-speedup=",
                                      min_ff_speedup) ||
                   bench::take_number(arg, "--min-total-speedup=",
                                      min_total_speedup);
          })) {
    return 2;
  }

  // Scenario 1 keeps the PR-8 grid so its speedup series stays comparable.
  // Scenario 2 swaps rspeed for iirflt: rspeed's windows stay ~96% dead
  // even at 1e16 (pruning still wins), while puwmod and iirflt saturate —
  // ~50-80% of their trials carry live storms, which is the regime the
  // fast-forward path exists for.
  reliability::CampaignGrid grid1;
  grid1.workloads({"puwmod", "rspeed"})
      .schemes({"laec", "sec-daec-39-32"})
      .rates({*reliability::tech_preset("28nm")});
  reliability::CampaignGrid grid2;
  grid2.workloads({"puwmod", "iirflt"})
      .schemes({"laec", "sec-daec-39-32"})
      .rates({*reliability::tech_preset("28nm")});

  reliability::CampaignSpec base;
  base.trials = static_cast<unsigned>(trials);
  base.base.dl1_size_bytes = 2 * 1024;

  const auto run = [&](const reliability::CampaignGrid& grid, double a,
                       bool prune, bool ff) {
    reliability::CampaignSpec s = base;
    s.accel = a;
    s.prune = prune;
    s.fast_forward = ff;
    std::ostringstream out;
    report::CsvWriter sink(out);
    reliability::CampaignOptions opts;
    opts.threads = popts.threads;
    opts.sink = &sink;
    const auto t0 = std::chrono::steady_clock::now();
    Pass p;
    p.sum = run_campaign(grid, s, opts);
    p.secs = seconds_since(t0);
    p.csv = out.str();
    return p;
  };

  // Warm-up golden runs / code paths once so the timed passes are fair.
  {
    reliability::CampaignSpec warm = base;
    warm.trials = 1;
    (void)run_campaign(grid1, warm);
    (void)run_campaign(grid2, warm);
  }

  bool rows_identical = true;

  // Scenario 1: pruning point, fast-forward off in both passes.
  const Pass p1_full = run(grid1, accel, /*prune=*/false, /*ff=*/false);
  const Pass p1_pruned = run(grid1, accel, /*prune=*/true, /*ff=*/false);
  if (p1_pruned.csv != p1_full.csv) {
    std::fprintf(
        stderr,
        "campaign_speed: FAIL — pruned and full CSV rows differ (S1)\n");
    rows_identical = false;
  }

  // Scenario 2: saturated point, floor / prune-only / full stack.
  const Pass p2_floor =
      run(grid2, accel_saturated, /*prune=*/false, /*ff=*/false);
  const Pass p2_noff = run(grid2, accel_saturated, /*prune=*/true, /*ff=*/false);
  const Pass p2_ff = run(grid2, accel_saturated, /*prune=*/true, /*ff=*/true);
  if (p2_ff.csv != p2_noff.csv || p2_ff.csv != p2_floor.csv) {
    std::fprintf(stderr,
                 "campaign_speed: FAIL — ff / no-ff / floor CSV rows "
                 "differ (S2)\n");
    rows_identical = false;
  }
  if (!rows_identical) return 1;

  // Traced pass: scenario-2 full stack again with the flight recorder on
  // and a per-round checkpoint write. The contract is twofold: the rows
  // must stay byte-identical to the untraced pass, and the wall-clock
  // delta IS the tracing overhead (reported, not gated — the gated floors
  // above already price the instrumented-but-off path).
  if (!trace_path.empty()) {
    obs::Tracer::global().enable();
    reliability::CampaignSpec s = base;
    s.accel = accel_saturated;
    s.prune = true;
    s.fast_forward = true;
    std::ostringstream out;
    report::CsvWriter sink(out);
    reliability::CampaignOptions opts;
    opts.threads = popts.threads;
    opts.sink = &sink;
    const std::string ckpt = trace_path + ".ckpt";
    opts.on_round = [&](const std::vector<reliability::CellProgress>& p) {
      service::save_checkpoint(ckpt, /*identity=*/0x1aec, p);
    };
    const auto t0 = std::chrono::steady_clock::now();
    (void)run_campaign(grid2, s, opts);
    const double traced_secs = seconds_since(t0);
    std::remove(ckpt.c_str());
    if (out.str() != p2_ff.csv) {
      std::fprintf(stderr,
                   "campaign_speed: FAIL — traced rows differ from "
                   "untraced\n");
      return 1;
    }
    const auto& tracer = obs::Tracer::global();
    const u64 recorded = tracer.total_recorded();
    const u64 dropped = tracer.dropped();
    if (!obs::write_trace_file(trace_path)) {
      std::fprintf(stderr, "campaign_speed: cannot write trace file %s\n",
                   trace_path.c_str());
      return 1;
    }
    obs::Tracer::global().disable();
    std::fprintf(stderr,
                 "campaign_speed: traced pass %.3f s vs %.3f s untraced "
                 "(%+.1f%%), %llu events (%llu dropped), rows identical — "
                 "wrote %s\n",
                 traced_secs, p2_ff.secs,
                 p2_ff.secs > 0.0
                     ? (traced_secs / p2_ff.secs - 1.0) * 100.0
                     : 0.0,
                 static_cast<unsigned long long>(recorded),
                 static_cast<unsigned long long>(dropped),
                 trace_path.c_str());
  }

  const auto totals = [](const reliability::CampaignSummary& s) {
    u64 trials_total = 0, pruned = 0, ff = 0;
    for (const auto& c : s.cells) {
      trials_total += c.trials;
      pruned += c.pruned;
      ff += c.fast_forwarded;
    }
    return std::tuple{trials_total, pruned, ff};
  };
  const auto frac = [](u64 num, u64 den) {
    return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
  };
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };

  const auto [s1_total, s1_pruned, s1_ff] = totals(p1_pruned.sum);
  const double s1_speedup = ratio(p1_full.secs, p1_pruned.secs);

  const auto [s2_total, s2_pruned, s2_ffwd] = totals(p2_ff.sum);
  const double ff_speedup = ratio(p2_noff.secs, p2_ff.secs);
  const double total_speedup = ratio(p2_floor.secs, p2_ff.secs);

  if (json) {
    std::printf("{\n");
    std::printf("  \"threads\": %u,\n", popts.threads);
    std::printf("  \"trials_per_cell\": %llu,\n",
                static_cast<unsigned long long>(trials));
    std::printf("  \"rows_identical\": true,\n");
    std::printf("  \"pruning_point\": {\n");
    std::printf("    \"accel\": %g,\n", accel);
    std::printf("    \"trials_total\": %llu,\n",
                static_cast<unsigned long long>(s1_total));
    std::printf("    \"pruned_fraction\": %.4f,\n", frac(s1_pruned, s1_total));
    std::printf("    \"pruned_trials_per_s\": %.1f,\n",
                frac(s1_total, 1) / p1_pruned.secs);
    std::printf("    \"full_trials_per_s\": %.1f,\n",
                frac(s1_total, 1) / p1_full.secs);
    std::printf("    \"speedup\": %.2f\n", s1_speedup);
    std::printf("  },\n");
    std::printf("  \"saturated_point\": {\n");
    std::printf("    \"accel\": %g,\n", accel_saturated);
    std::printf("    \"trials_total\": %llu,\n",
                static_cast<unsigned long long>(s2_total));
    std::printf("    \"pruned_fraction\": %.4f,\n", frac(s2_pruned, s2_total));
    std::printf("    \"fast_forwarded_fraction\": %.4f,\n",
                frac(s2_ffwd, s2_total));
    std::printf("    \"floor_trials_per_s\": %.1f,\n",
                frac(s2_total, 1) / p2_floor.secs);
    std::printf("    \"no_ff_trials_per_s\": %.1f,\n",
                frac(s2_total, 1) / p2_noff.secs);
    std::printf("    \"ff_trials_per_s\": %.1f,\n",
                frac(s2_total, 1) / p2_ff.secs);
    std::printf("    \"ff_speedup\": %.2f,\n", ff_speedup);
    std::printf("    \"total_speedup\": %.2f\n", total_speedup);
    std::printf("  },\n");
    std::printf("  \"cells\": [\n");
    for (std::size_t i = 0; i < p2_ff.sum.cells.size(); ++i) {
      const auto& c = p2_ff.sum.cells[i];
      std::printf("    {\"workload\": \"%s\", \"ecc\": \"%s\", "
                  "\"pruned\": %llu, \"fast_forwarded\": %llu, "
                  "\"trials\": %llu}%s\n",
                  c.cell.workload.c_str(), c.cell.scheme.c_str(),
                  static_cast<unsigned long long>(c.pruned),
                  static_cast<unsigned long long>(c.fast_forwarded),
                  static_cast<unsigned long long>(c.trials),
                  i + 1 < p2_ff.sum.cells.size() ? "," : "");
    }
    std::printf("  ]\n}\n");
  } else {
    std::printf("campaign_speed: %llu trials/cell-pass, 28nm, %u thread(s)\n",
                static_cast<unsigned long long>(s1_total), popts.threads);
    std::printf("scenario 1 — pruning point (accel=%g):\n", accel);
    std::printf("  pruned:  %8.1f trials/s (%.3f s, %.0f%% pruned)\n",
                frac(s1_total, 1) / p1_pruned.secs, p1_pruned.secs,
                frac(s1_pruned, s1_total) * 100.0);
    std::printf("  full:    %8.1f trials/s (%.3f s)\n",
                frac(s1_total, 1) / p1_full.secs, p1_full.secs);
    std::printf("  speedup: %.2fx, rows identical\n", s1_speedup);
    std::printf("scenario 2 — saturated point (accel=%g):\n", accel_saturated);
    for (const auto& c : p2_ff.sum.cells) {
      std::printf("  %-8s %-18s pruned %llu, fast-forwarded %llu / %llu\n",
                  c.cell.workload.c_str(), c.cell.scheme.c_str(),
                  static_cast<unsigned long long>(c.pruned),
                  static_cast<unsigned long long>(c.fast_forwarded),
                  static_cast<unsigned long long>(c.trials));
    }
    std::printf("  stack:   %8.1f trials/s (%.3f s, prune + ff)\n",
                frac(s2_total, 1) / p2_ff.secs, p2_ff.secs);
    std::printf("  no-ff:   %8.1f trials/s (%.3f s, prune only)\n",
                frac(s2_total, 1) / p2_noff.secs, p2_noff.secs);
    std::printf("  floor:   %8.1f trials/s (%.3f s, simulate everything)\n",
                frac(s2_total, 1) / p2_floor.secs, p2_floor.secs);
    std::printf("  ff speedup: %.2fx, total speedup: %.2fx, rows identical\n",
                ff_speedup, total_speedup);
  }

  bool fail = false;
  if (min_speedup > 0.0 && s1_speedup < min_speedup) {
    std::fprintf(
        stderr,
        "campaign_speed: FAIL — pruning speedup %.2fx below floor %.2fx\n",
        s1_speedup, min_speedup);
    fail = true;
  }
  if (min_ff_speedup > 0.0 && ff_speedup < min_ff_speedup) {
    std::fprintf(stderr,
                 "campaign_speed: FAIL — ff speedup %.2fx below floor %.2fx\n",
                 ff_speedup, min_ff_speedup);
    fail = true;
  }
  if (min_total_speedup > 0.0 && total_speedup < min_total_speedup) {
    std::fprintf(
        stderr,
        "campaign_speed: FAIL — total speedup %.2fx below floor %.2fx\n",
        total_speedup, min_total_speedup);
    fail = true;
  }
  return fail ? 1 : 0;
}
