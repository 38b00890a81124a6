// laecbench — the measuring half of the repo benchmark (run.py drives it).
//
//   laecbench setup     --workload W [--smoke]
//       Set the workload up and report the seconds from entering main() to
//       the point the first workload call would be made.
//   laecbench run       --workload W --seed N --seconds S --trace 0|1
//                       [--smoke] [--scratch DIR]
//       --trace 0: repeat the workload until S seconds have passed and
//       report every pass (wall, CPU, work, row digests), the process's
//       peak RSS and the Table II error. --trace 1: time the layer calls,
//       then alternate untraced and traced passes for the per-layer table,
//       span self times and ledger.
//   laecbench reference --workload W --seed N [--all-points] [--smoke]
//                       [--scratch DIR]
//       Row digests of the reference path for every pass seed slot:
//       campaigns with pruning and fast-forward off; sweep-fig8 on one
//       thread, only its seed-derived trace points unless --all-points.
//
// Pass k of a run uses the base seed of slot k % Workload::pass_seeds.
//
// The last stdout line is one JSON object; with --trace 1 the human-readable
// layer table precedes it.
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "layers.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
using Clock = std::chrono::steady_clock;

struct Args {
  std::string mode;
  std::string workload;
  u64 seed = 6892;
  double seconds = -1.0;  ///< required by run mode
  int trace = 0;
  bool smoke = false;
  bool all_points = false;
  std::string scratch = ".";
};

bool parse(int argc, char** argv, Args& a) {
  if (argc < 2) return false;
  a.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke" || flag == "--all-points") {
      (flag == "--smoke" ? a.smoke : a.all_points) = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::stoull(v);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(v);
    } else if (flag == "--trace") {
      a.trace = std::stoi(v);
    } else if (flag == "--scratch") {
      a.scratch = v;
    } else {
      return false;
    }
  }
  if (a.mode == "run") return !a.workload.empty() && a.seconds >= 0.0;
  return !a.workload.empty() && (a.mode == "setup" || a.mode == "reference");
}

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) { return "\"" + s + "\""; }

/// One pass as a JSON object: its seed slot, timing, work and its row
/// digests plus the indices of rows that failed an invariant check.
std::string pass_json(const Pass& p, unsigned slot, bool traced) {
  std::string out = "{\"slot\":" + std::to_string(slot) +
                    ",\"wall_s\":" + num(p.wall_s) +
                    ",\"cpu_s\":" + num(p.cpu_s) +
                    ",\"ops\":" + std::to_string(p.ops) +
                    ",\"sim_cycles\":" + std::to_string(p.sim_cycles) +
                    ",\"traced\":" + (traced ? "true" : "false") +
                    ",\"rows\":[";
  for (std::size_t i = 0; i < p.rows.size(); ++i) {
    out += (i ? "," : "") + quoted(row_digest(p.rows[i]));
  }
  out += "],\"invalid\":[";
  bool first = true;
  for (std::size_t i = 0; i < p.invalid.size(); ++i) {
    if (!p.invalid[i]) continue;
    out += (first ? "" : ",") + std::to_string(i);
    first = false;
  }
  return out + "]}";
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

int reference(const Args& a, Workload w) {
  std::size_t program_points = 0;
  if (!w.campaign) {
    std::vector<laec::runner::SweepPoint> kept;
    for (const auto& p : w.points) {
      const bool trace = p.mode == laec::runner::RunMode::kTrace;
      program_points += trace ? 0 : 1;
      if (trace || a.all_points) kept.push_back(p);
    }
    w.points = std::move(kept);
  }
  std::string rows;
  for (unsigned slot = 0; slot < w.pass_seeds; ++slot) {
    const Pass p = run_pass(w, pass_seed(a.seed, slot), /*reference=*/true,
                            a.scratch);
    for (std::size_t i = 0; i < p.rows.size(); ++i) {
      const std::size_t index =
          w.campaign ? i : p.sweep.results[i].point.index;
      rows += rows.empty() ? "[" : ",[";
      rows += std::to_string(slot) + "," + std::to_string(index) + "," +
              quoted(row_digest(p.rows[i])) + "]";
    }
  }
  std::printf("{\"program_points\":%zu,\"rows\":[%s]}\n", program_points,
              rows.c_str());
  return 0;
}

int run_untraced(const Args& a, const Workload& w) {
  const auto t0 = Clock::now();
  std::string reps;
  Pass first;
  unsigned k = 0;
  do {
    const unsigned slot = k++ % w.pass_seeds;
    Pass p = run_pass(w, pass_seed(a.seed, slot), /*reference=*/false,
                      a.scratch);
    reps += (reps.empty() ? "" : ",") + pass_json(p, slot, false);
    if (first.rows.empty()) first = std::move(p);
  } while (since(t0) < a.seconds);
  const double rss = peak_rss_mb();
  const double mae = table2_mae_pp(paper_points(first, w));
  std::printf("{\"reps\":[%s],\"peak_rss_mb\":%s,\"table2_mae_pp\":%s}\n",
              reps.c_str(), num(rss).c_str(), num(mae).c_str());
  return 0;
}

int run_traced(const Args& a, const Workload& w) {
  const auto t0 = Clock::now();
  LayerInputs in;
  in.workload = &w;
  in.costs = time_layers(w, a.seed, a.scratch);

  auto& tracer = laec::obs::Tracer::global();
  auto& registry = laec::obs::Registry::global();
  std::string reps;
  Pass first;
  std::vector<double> untraced_wall, traced_wall, cpu;
  unsigned k = 0;
  do {
    const unsigned slot = k++ % w.pass_seeds;
    const u64 seed = pass_seed(a.seed, slot);
    registry.reset();
    Pass u = run_pass(w, seed, /*reference=*/false, a.scratch);
    untraced_wall.push_back(u.wall_s);
    cpu.push_back(u.cpu_s);
    reps += (reps.empty() ? "" : ",") + pass_json(u, slot, false);
    if (first.rows.empty()) {
      in.registry = registry.snapshot();
      first = std::move(u);
    }

    tracer.enable();
    Pass t;
    {
      laec::obs::Span span("bench." + w.name);
      t = run_pass(w, seed, /*reference=*/false, a.scratch);
    }
    const auto events = tracer.events();
    const u64 dropped = tracer.dropped();
    tracer.disable();
    traced_wall.push_back(t.wall_s);
    reps += "," + pass_json(t, slot, true);
    if (in.trace.spans.empty()) in.trace = summarize_trace(events, dropped);
  } while (since(t0) < a.seconds);

  in.untraced = &first;
  in.cpu_s = median(cpu);
  in.untraced_wall_s = median(untraced_wall);
  in.traced_wall_s = median(traced_wall);
  in.laec_overhead_pct = laec_overhead_pct(paper_points(first, w));
  const LayerReport rep = report_layers(in);

  std::fputs(rep.table.c_str(), stdout);
  std::string metrics;
  for (const auto& m : rep.metrics) {
    metrics += (metrics.empty() ? "" : ",") + quoted(m.name) +
               ":{\"value\":" + num(m.value) +
               ",\"unit\":" + quoted(m.unit) + "}";
  }
  std::printf("{\"reps\":[%s],\"per_layer\":{%s}}\n", reps.c_str(),
              metrics.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto start = Clock::now();
  Args a;
  try {
    if (!parse(argc, argv, a)) {
      std::fprintf(stderr,
                   "usage: laecbench setup|run|reference --workload W "
                   "[--seed N] [--seconds S (run)] [--trace 0|1] [--smoke] "
                   "[--scratch DIR]\n");
      return 2;
    }
    const Workload w = setup_workload(a.workload, a.smoke);
    if (a.mode == "setup") {
      std::printf("{\"setup_s\":%s}\n", num(since(start)).c_str());
      return 0;
    }
    if (a.mode == "reference") return reference(a, w);
    return a.trace == 0 ? run_untraced(a, w) : run_traced(a, w);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "laecbench: %s\n", e.what());
    return 1;
  }
}
