// Headline extension (fig9): per-cache ECC deployment as a swept axis —
// SEC-DAEC at the SHARED L2 under adjacent double-bit upsets striking the
// L2 array.
//
// The paper deploys its codes in the DL1 only; the hierarchy axis asks
// what the right code is for the other arrays. The L2 is where dirty DL1
// writebacks live as the ONLY copy of completed stores, so an L2 word that
// SECDED can merely *detect* as corrupted is a DUE data-loss event: the
// recovery refetch restores the stale memory image and the program's
// stores are gone. SEC-DAEC corrects the same adjacent pairs in place.
//
// Per kernel, ONE batched sweep runs four points:
//
//   laec                       clean     (timing denominator)
//   laec+l2:sec-daec-39-32     clean     (must match: L2 codec choice is
//                                         timing-neutral for the DL1 figure)
//   laec                       L2 storm  (SECDED L2: DUEs, data loss)
//   laec+l2:sec-daec-39-32     L2 storm  (SEC-DAEC L2: corrected in place)
//
// A deliberately small DL1 (1 KB) keeps dirty evictions and refills
// flowing through the L2. The per-level counters land in the sweep CSV
// (codec_l2, l2_corrected_adjacent, l2_due, l2_refetches, l2_data_loss).
//
// Pass --threads=N to pin the pool size, --rate=P to change the per-access
// adjacent-double probability (default 1e-3), --csv to stream raw rows.
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "report/sink.hpp"
#include "report/table.hpp"
#include "runner/sweep_runner.hpp"

namespace {

using namespace laec;

const std::string kSecdedL2 = "laec";  // canonical L2 is secded-39-32
const std::string kDaecL2 = "laec+l2:sec-daec-39-32";

core::SimConfig small_dl1_config() {
  core::SimConfig cfg;
  cfg.dl1_size_bytes = 1024;  // stress the writeback path through the L2
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  runner::SweepOptions opts;
  double rate = 1e-3;
  bool csv = false;
  if (!bench::parse_bench_args(
          argc, argv, opts,
          "usage: fig9_hierarchy [--threads=N] [--rate=P] [--csv]\n",
          [&](const std::string& arg) {
            if (arg == "--csv") return csv = true;
            return bench::take_number(arg, "--rate=", rate);
          })) {
    return 2;
  }
  report::CsvWriter csv_sink(std::cout);
  if (csv) opts.sink = &csv_sink;
  std::FILE* txt = csv ? stderr : stdout;

  std::fprintf(
      txt,
      "fig9 — hierarchy deployment axis: SEC-DAEC vs SECDED at the shared\n"
      "L2 under adjacent double-bit upsets striking the L2 array\n"
      "(p=%g per L2 word access; DL1 1 KB to stress the writeback path).\n\n",
      rate);

  core::SimConfig clean = small_dl1_config();
  core::SimConfig stormy = small_dl1_config();
  ecc::InjectorConfig inj;
  inj.double_flip_prob = rate;
  inj.adjacent_doubles = true;
  stormy.faults = inj;
  stormy.inject_target = core::InjectTarget::kL2;

  const std::vector<std::string> schemes = {kSecdedL2, kDaecL2};
  runner::SweepGrid clean_grid;
  clean_grid.all_workloads().schemes(schemes).base_config(clean).mode(
      runner::RunMode::kProgram);
  runner::SweepGrid storm_grid;
  storm_grid.all_workloads().schemes(schemes).base_config(stormy).mode(
      runner::RunMode::kProgram);

  auto points = clean_grid.points();
  const std::size_t split = bench::append_points(points, storm_grid);
  const auto summary = runner::run_sweep(points, opts);
  const auto& rs = summary.results;

  report::Table t({"benchmark", "cycles =", "L2 DUE", "data loss", "SECDED",
                   "DAEC fixed", "data loss", "SEC-DAEC"});
  std::fprintf(
      txt,
      "(cycles =: clean-run DL1 timing identical across L2 codecs;\n"
      " SECDED block: detected-uncorrectable L2 words / dirty-line data\n"
      " losses / self-check under the storm; SEC-DAEC block: adjacent\n"
      " pairs corrected in place / data losses / self-check)\n\n");
  u64 due = 0, lost = 0, fixed = 0, daec_lost = 0;
  bool timing_neutral = true, daec_all_ok = true;
  std::size_t secded_failures = 0, kernels = 0;
  for (std::size_t k = 0; split + 2 * k + 1 < rs.size(); ++k) {
    const auto& clean_secded = rs[2 * k];
    const auto& clean_daec = rs[2 * k + 1];
    const auto& storm_secded = rs[split + 2 * k];
    const auto& storm_daec = rs[split + 2 * k + 1];
    const bool same_cycles =
        clean_secded.stats.cycles == clean_daec.stats.cycles;
    timing_neutral = timing_neutral && same_cycles;
    const bool secded_ok = storm_secded.self_check_ok;
    daec_all_ok = daec_all_ok && storm_daec.self_check_ok;
    secded_failures += secded_ok ? 0 : 1;
    t.add_row({clean_secded.point.workload, same_cycles ? "yes" : "NO",
               std::to_string(storm_secded.stats.l2_detected_uncorrectable),
               std::to_string(storm_secded.stats.l2_data_loss_events),
               secded_ok ? "ok" : "DATA LOSS",
               std::to_string(storm_daec.stats.l2_corrected_adjacent),
               std::to_string(storm_daec.stats.l2_data_loss_events),
               storm_daec.self_check_ok ? "ok" : "FAIL"});
    due += storm_secded.stats.l2_detected_uncorrectable;
    lost += storm_secded.stats.l2_data_loss_events;
    fixed += storm_daec.stats.l2_corrected_adjacent;
    daec_lost += storm_daec.stats.l2_data_loss_events;
    ++kernels;
  }
  std::fprintf(txt, "%s\n", t.to_text().c_str());
  std::fprintf(
      txt,
      "Across %zu kernels: SECDED-at-L2 flagged %llu adjacent pairs as DUE\n"
      "(%llu on dirty writeback lines -> data lost, %zu kernel self-checks\n"
      "failed). SEC-DAEC-at-L2 under the identical storm: %llu pairs\n"
      "corrected in place, %llu data-loss events, clean-run DL1 timing\n"
      "%s.\n",
      kernels, static_cast<unsigned long long>(due),
      static_cast<unsigned long long>(lost), secded_failures,
      static_cast<unsigned long long>(fixed),
      static_cast<unsigned long long>(daec_lost),
      timing_neutral ? "unchanged" : "CHANGED (unexpected)");

  // The experiment's claim: the L2 codec upgrade is timing-neutral for the
  // DL1 results, eliminates the storm's data loss, and rides it out with
  // every self-check green. SECDED data loss is the expected result, not
  // an error — but the storm must actually land DUEs for the comparison to
  // mean anything.
  const bool demonstrated =
      timing_neutral && daec_all_ok && daec_lost == 0 && due > 0 && lost > 0;
  return demonstrated ? 0 : 1;
}
