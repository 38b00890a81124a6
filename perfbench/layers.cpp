#include "layers.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <set>

#include "common/rng.hpp"
#include "core/deployment.hpp"
#include "core/simulator.hpp"
#include "ecc/registry.hpp"
#include "mem/cache.hpp"
#include "mem/residency.hpp"
#include "reliability/schedule.hpp"
#include "service/checkpoint.hpp"
#include "sim/snapshot.hpp"
#include "sim/system.hpp"
#include "workloads/eembc.hpp"
#include "workloads/synthetic.hpp"

namespace perfbench {

using namespace laec;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Median wall seconds of `reps` calls of f.
template <typename F>
double median_secs(int reps, F&& f) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    f();
    t.push_back(seconds_since(t0));
  }
  return median(std::move(t));
}

volatile u64 g_sink = 0;  // keeps timed results observable

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::vector<std::string> deployed_codecs(const Workload& w) {
  std::set<std::string> names;
  for (const auto& s : w.schemes) {
    const std::string c = core::HierarchyDeployment::parse(s).codec;
    if (c != "none") names.insert(c);
  }
  return {names.begin(), names.end()};
}

/// ecc: encode_line over clean words, decode_line over a third each of
/// clean, 1-bit and adjacent 2-bit faulty codewords; mean over codecs.
void time_ecc(const Workload& w, u64 seed, UnitCosts& uc) {
  constexpr std::size_t kWords = 4096;
  constexpr int kLoops = 8;
  const double ns_per_word = 1e9 / (kLoops * static_cast<double>(kWords));
  Rng rng(seed);
  std::vector<u32> data(kWords), fdata(kWords), out(kWords);
  std::vector<u16> check(kWords), fcheck(kWords);
  for (auto& d : data) d = rng.next_u32();
  const auto codecs = deployed_codecs(w);
  for (const auto& name : codecs) {
    const auto codec = ecc::make_codec(name);
    codec->encode_line(data.data(), check.data(), kWords);
    const unsigned bits = codec->codeword_bits();
    fdata = data;
    fcheck = check;
    for (std::size_t i = 0; i < kWords; ++i) {
      const unsigned b = static_cast<unsigned>(rng.below(bits - 1));
      for (unsigned bit = b; bit < b + i % 3; ++bit) {
        if (bit < 32) {
          fdata[i] ^= u32{1} << bit;
        } else {
          fcheck[i] = static_cast<u16>(fcheck[i] ^ (1u << (bit - 32)));
        }
      }
    }
    uc.encode_ns += ns_per_word * median_secs(15, [&] {
      for (int l = 0; l < kLoops; ++l) {
        codec->encode_line(data.data(), check.data(), kWords);
      }
      g_sink = g_sink + check[kWords - 1];
    });
    uc.decode_ns += ns_per_word * median_secs(15, [&] {
      for (int l = 0; l < kLoops; ++l) {
        codec->decode_line(fdata.data(), fcheck.data(), out.data(), kWords);
      }
      g_sink = g_sink + out[kWords - 1];
    });
  }
  if (!codecs.empty()) {
    uc.encode_ns /= static_cast<double>(codecs.size());
    uc.decode_ns /= static_cast<double>(codecs.size());
  }
}

/// mem: a standalone DL1-shaped SetAssocCache with the workload's first
/// deployed codec. Hits read resident words; fills stream new lines, each
/// evicting a clean victim.
void time_mem(const Workload& w, UnitCosts& uc) {
  const auto codecs = deployed_codecs(w);
  mem::CacheConfig cfg;
  cfg.size_bytes = w.dl1_bytes;
  cfg.codec = ecc::make_codec(codecs.empty() ? "none" : codecs.front());
  mem::SetAssocCache cache(cfg);
  const u32 lines = cfg.size_bytes / cfg.line_bytes;
  std::vector<u8> line(cfg.line_bytes, 0x5a);
  for (u32 i = 0; i < lines; ++i) {
    (void)cache.fill(static_cast<Addr>(i) * cfg.line_bytes, line.data(), false);
  }
  const u32 words = cfg.size_bytes / 4;
  constexpr int kLoops = 16;
  uc.read_hit_ns = 1e9 / (kLoops * static_cast<double>(words)) *
                   median_secs(9, [&] {
                     u64 sum = 0;
                     for (int l = 0; l < kLoops; ++l) {
                       for (u32 i = 0; i < words; ++i) {
                         sum += cache.read(static_cast<Addr>(i) * 4, 4).value;
                       }
                     }
                     g_sink = g_sink + sum;
                   });
  Addr next = static_cast<Addr>(lines) * cfg.line_bytes;
  constexpr u32 kFills = 1u << 14;
  uc.fill_ns = 1e9 / kFills * median_secs(9, [&] {
                 for (u32 i = 0; i < kFills; ++i) {
                   (void)cache.fill(next, line.data(), false);
                   next += cfg.line_bytes;
                 }
               });
}

/// The (kernel, scheme) configurations the core/runner/sim/reliability
/// timers probe: every cell of the workload when there are at most 16,
/// otherwise every kernel under laec.
struct Probe {
  std::string kernel;
  core::SimConfig cfg;  ///< faults armed with the 28nm pattern table
  isa::Program program;
};

std::vector<Probe> make_probes(const Workload& w) {
  std::vector<std::string> schemes = w.schemes;
  if (w.kernels.size() * schemes.size() > 16) schemes = {"laec"};
  std::vector<Probe> probes;
  for (const auto& k : w.kernels) {
    for (const auto& s : schemes) {
      Probe p;
      p.kernel = k;
      p.cfg = w.spec.base;
      p.cfg.dl1_size_bytes = w.dl1_bytes;
      p.cfg.set_scheme(s);
      ecc::InjectorConfig inj;
      inj.patterns = reliability::tech_preset("28nm")->patterns;
      p.cfg.faults = inj;
      p.program = workloads::kernel_by_name(k).build().program;
      probes.push_back(std::move(p));
    }
  }
  return probes;
}

runner::SweepPoint probe_point(const Probe& p, u64 replicate) {
  runner::SweepPoint pt;
  pt.workload = p.kernel;
  pt.config = p.cfg;
  pt.mode = runner::RunMode::kProgram;
  pt.replicate = replicate;
  return pt;
}

void time_core_and_campaign(const Workload& w, u64 seed, UnitCosts& uc) {
  const auto probes = make_probes(w);
  const reliability::CampaignSpec& spec = w.spec;
  const double fit = reliability::tech_preset("28nm")->fit_per_mbit;

  double run_s = 0.0, golden_s = 0.0, draw_s = 0.0;
  u64 cycles = 0, draws = 0;
  double loads = 0, hits = 0, instr = 0, bus_tx = 0, bus_wait = 0, fills = 0;
  for (const Probe& p : probes) {
    core::SimConfig clean = p.cfg;
    clean.faults.reset();
    core::RunStats st;
    run_s += median_secs(3, [&] { st = core::run_program(clean, p.program); });
    cycles += st.cycles;
    loads += static_cast<double>(st.loads);
    hits += static_cast<double>(st.load_hits);
    instr += static_cast<double>(st.instructions);
    bus_tx += static_cast<double>(st.bus_transactions);
    bus_wait += static_cast<double>(st.bus_wait_cycles);
    fills += static_cast<double>(st.dl1_fill_words);

    sim::SnapshotStore store(spec.snapshot_every,
                             u64{spec.snapshot_mem_mb} << 20);
    mem::ResidencyRecorder rec;
    const auto t0 = Clock::now();
    (void)runner::run_golden_point(probe_point(p, 0), seed, &rec, &store);
    golden_s += seconds_since(t0);

    const auto& windows = rec.windows();
    const unsigned word_bits = reliability::target_codeword_bits(p.cfg);
    const double lambda =
        reliability::window_lambda_scale(spec, fit, word_bits);
    constexpr int kDraws = 16;
    std::shared_ptr<const ecc::TrialSchedule> live;
    const auto t1 = Clock::now();
    for (int r = 0; r < kDraws; ++r) {
      auto sched = std::make_shared<ecc::TrialSchedule>(
          reliability::draw_trial_schedule(
              windows, lambda, p.cfg.faults->patterns, word_bits,
              runner::fault_seed(seed, probe_point(p, r))));
      if (live == nullptr && sched->has_live() &&
          store.best_at_or_before(sched->deliveries.front().first)) {
        live = std::move(sched);
      }
    }
    draw_s += seconds_since(t1);
    draws += kDraws;
    if (uc.resume_ms == 0.0 && live != nullptr) {
      // Resume: restore the snapshot at-or-before the first live delivery
      // and simulate the suffix under the replayed storm.
      core::SimConfig cfg = p.cfg;
      cfg.faults->schedule = live;
      const auto entry =
          store.best_at_or_before(live->deliveries.front().first);
      uc.resume_ms = 1e3 * median_secs(3, [&] {
                       g_sink = g_sink + core::run_program_resume(
                                             cfg, *entry->blob, entry->ordinal)
                                             .stats.cycles;
                     });
    }
  }
  // sim: build a system; save/restore the final state of the first probe's.
  core::SimConfig clean = probes.front().cfg;
  clean.faults.reset();
  const double build_s = median_secs(15, [&] {
    sim::System system(core::make_system_config(clean));
    g_sink = g_sink + system.now();
  });
  const double n = static_cast<double>(probes.size());
  uc.run_program_ms = 1e3 * run_s / n;
  uc.system_build_us = 1e6 * build_s;
  uc.ns_per_cycle = 1e9 * ratio(std::max(0.0, run_s - n * build_s),
                                static_cast<double>(cycles));
  uc.golden_run_ms = 1e3 * golden_s / n;
  uc.schedule_draw_us = 1e6 * ratio(draw_s, static_cast<double>(draws));
  const double c = static_cast<double>(cycles);
  uc.loads_per_cycle = ratio(loads, c);
  uc.hits_per_load = ratio(hits, loads);
  uc.instr_per_cycle = ratio(instr, c);
  uc.bus_tx_per_cycle = ratio(bus_tx, c);
  uc.bus_wait_per_cycle = ratio(bus_wait, c);
  uc.fill_words_per_cycle = ratio(fills, c);

  const auto run = core::run_program_keep_system(clean, probes.front().program);
  std::string blob;
  uc.save_us = 1e6 * median_secs(15, [&] {
                 blob = sim::save_system_state(*run.system);
               });
  sim::System fresh(core::make_system_config(clean));
  uc.restore_us = 1e6 * median_secs(15, [&] {
                    sim::restore_system_state(fresh, blob);
                  });
}

void time_service(const Workload& w, u64 seed, const std::string& scratch_dir,
                  UnitCosts& uc) {
  std::vector<reliability::CellProgress> cells(
      std::max<std::size_t>(1, w.cells.size()));
  for (std::size_t i = 0; i < cells.size(); ++i) {
    cells[i].index = i;
    cells[i].done = w.spec.trials / 2;
    cells[i].trials = cells[i].done;
    cells[i].total_cycles = 1'000'000 + i;
    cells[i].device_hours = 1.5 * static_cast<double>(i + 1);
  }
  const std::string path = scratch_dir + "/layer-timer.ckpt";
  uc.checkpoint_write_us = 1e6 * median_secs(21, [&] {
                             service::save_checkpoint(path, seed, cells);
                           });
  uc.checkpoint_bytes = static_cast<double>(std::filesystem::file_size(path));
  std::filesystem::remove(path);
}

void time_trace_mode(const Workload& w, u64 seed, UnitCosts& uc) {
  double secs = 0.0;
  u64 cycles = 0;
  for (const auto& p : w.points) {
    if (p.mode != runner::RunMode::kTrace || p.config.hazard_rule !=
                                                 cpu::HazardRule::kExact) {
      continue;
    }
    if (p.config.effective_deployment().canonical_key() !=
        core::HierarchyDeployment::parse("laec").canonical_key()) {
      continue;
    }
    auto params = workloads::SyntheticParams::from_kernel(
        workloads::kernel_by_name(p.workload), p.trace_ops);
    params.seed = runner::point_seed(seed, p);
    workloads::SyntheticTrace trace(params);
    const auto t0 = Clock::now();
    cycles += core::run_trace(p.config, trace).cycles;
    secs += seconds_since(t0);
  }
  uc.ns_per_trace_cycle = 1e9 * ratio(secs, static_cast<double>(cycles));
}

}  // namespace

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

UnitCosts time_layers(const Workload& w, u64 seed,
                      const std::string& scratch_dir) {
  UnitCosts uc;
  time_ecc(w, seed, uc);
  time_mem(w, uc);
  time_core_and_campaign(w, seed, uc);
  time_service(w, seed, scratch_dir, uc);
  time_trace_mode(w, seed, uc);
  uc.build_ms = 1e3 * median_secs(5, [] {
                  for (const auto& k : workloads::eembc_kernels()) {
                    g_sink = g_sink + k.build().program.num_instructions();
                  }
                });
  return uc;
}

double TraceSummary::total(const std::string& name) const {
  for (const auto& s : spans) {
    if (s.name == name) return s.total_s;
  }
  return 0.0;
}

TraceSummary summarize_trace(const std::vector<obs::TraceEvent>& events,
                             u64 dropped) {
  TraceSummary out;
  out.dropped = dropped;
  std::map<u32, std::vector<const obs::TraceEvent*>> by_tid;
  for (const auto& ev : events) {
    if (ev.phase == 'X') by_tid[ev.tid].push_back(&ev);
  }
  out.threads = by_tid.size();
  std::map<std::string, SpanStat> stats;
  for (auto& [tid, evs] : by_tid) {
    // Parents start no later and last no shorter than their children.
    std::sort(evs.begin(), evs.end(), [](const auto* a, const auto* b) {
      return a->ts_us != b->ts_us ? a->ts_us < b->ts_us : a->dur_us > b->dur_us;
    });
    std::vector<const obs::TraceEvent*> stack;
    for (const auto* ev : evs) {
      while (!stack.empty() &&
             stack.back()->ts_us + stack.back()->dur_us <= ev->ts_us) {
        stack.pop_back();
      }
      SpanStat& s = stats[ev->name];
      s.count += 1;
      s.total_s += 1e-6 * static_cast<double>(ev->dur_us);
      s.self_s += 1e-6 * static_cast<double>(ev->dur_us);
      if (!stack.empty()) {
        stats[stack.back()->name].self_s -=
            1e-6 * static_cast<double>(ev->dur_us);
      }
      stack.push_back(ev);
    }
  }
  for (auto& [name, s] : stats) {
    s.name = name;
    out.spans.push_back(s);
  }
  std::sort(out.spans.begin(), out.spans.end(),
            [](const SpanStat& a, const SpanStat& b) {
              return a.self_s > b.self_s;
            });
  return out;
}

namespace {

/// Work counts of one untraced pass. Campaign counts the engine does not
/// report per trial (cycles simulated on the host, loads, fills) are
/// estimated from per-cell mean trial cycles and the probes' per-cycle rates.
struct WorkCounts {
  double program_cycles = 0;  ///< simulated on the host, golden runs excluded
  double golden_cycles = 0;
  double trace_cycles = 0;
  double points = 0;  ///< program-mode sweep points (one assembly each)
  double trials = 0, pruned = 0, fast_forwarded = 0, cycles_skipped = 0,
         total_cycles = 0;
  double instructions = 0, loads = 0, load_hits = 0, bus_tx = 0,
         bus_wait = 0, fill_words = 0;
};

WorkCounts count_work(const LayerInputs& in) {
  WorkCounts wc;
  const Pass& pass = *in.untraced;
  const UnitCosts& uc = in.costs;
  if (in.workload->campaign) {
    std::set<std::pair<std::string, std::string>> golden;
    for (const auto& c : pass.campaign.cells) {
      const double per_trial = ratio(static_cast<double>(c.total_cycles),
                                     static_cast<double>(c.trials));
      if (golden.insert({c.cell.workload, c.cell.scheme}).second) {
        wc.golden_cycles += per_trial;
      }
      wc.program_cycles +=
          static_cast<double>(c.trials - c.pruned) * per_trial -
          static_cast<double>(c.cycles_skipped);
      wc.trials += static_cast<double>(c.trials);
      wc.pruned += static_cast<double>(c.pruned);
      wc.fast_forwarded += static_cast<double>(c.fast_forwarded);
      wc.cycles_skipped += static_cast<double>(c.cycles_skipped);
      wc.total_cycles += static_cast<double>(c.total_cycles);
    }
    const auto* hist = in.registry.find("sweep.point_us");
    wc.points = hist == nullptr ? 0.0 : static_cast<double>(hist->hist.count);
    const double host = wc.program_cycles + wc.golden_cycles;
    wc.instructions = host * uc.instr_per_cycle;
    wc.loads = host * uc.loads_per_cycle;
    wc.load_hits = wc.loads * uc.hits_per_load;
    wc.bus_tx = host * uc.bus_tx_per_cycle;
    wc.bus_wait = host * uc.bus_wait_per_cycle;
    wc.fill_words = host * uc.fill_words_per_cycle;
    return wc;
  }
  for (const auto& r : pass.sweep.results) {
    const auto& s = r.stats;
    const double cyc = static_cast<double>(s.cycles);
    if (r.point.mode == runner::RunMode::kTrace) {
      wc.trace_cycles += cyc;
    } else {
      wc.program_cycles += cyc;
      wc.points += 1;
    }
    wc.instructions += static_cast<double>(s.instructions);
    wc.loads += static_cast<double>(s.loads);
    wc.load_hits += static_cast<double>(s.load_hits);
    wc.bus_tx += static_cast<double>(s.bus_transactions);
    wc.bus_wait += static_cast<double>(s.bus_wait_cycles);
    wc.fill_words += static_cast<double>(s.dl1_fill_words);
  }
  wc.total_cycles = wc.program_cycles + wc.trace_cycles;
  return wc;
}

template <typename... Args>
void appendf(std::string& out, const char* f, Args... args) {
  char buf[256];
  std::snprintf(buf, sizeof buf, f, args...);
  out += buf;
}

}  // namespace

LayerReport report_layers(const LayerInputs& in) {
  const UnitCosts& uc = in.costs;
  const WorkCounts wc = count_work(in);
  const auto& reg = in.registry;
  const auto reg_value = [&](const char* name) {
    return static_cast<double>(reg.value(name));
  };
  obs::HistogramData point_us;
  if (const auto* h = reg.find("sweep.point_us")) point_us = h->hist;

  // The ledger: disjoint count x unit-cost terms of the untraced pass.
  struct Term {
    const char* layer;
    const char* what;
    double count;
    double unit_s;
  };
  const std::vector<Term> terms = {
      {"cpu", "program cycles simulated", wc.program_cycles,
       uc.ns_per_cycle * 1e-9},
      {"cpu", "trace cycles simulated", wc.trace_cycles,
       uc.ns_per_trace_cycle * 1e-9},
      {"runner", "golden runs", reg_value("campaign.golden_runs"),
       uc.golden_run_ms * 1e-3},
      {"core", "system builds", wc.points, uc.system_build_us * 1e-6},
      {"workloads", "kernel assemblies", wc.points, uc.build_ms * 1e-3 / 16},
      {"sim", "snapshot restores", reg_value("snapshot.restores"),
       uc.restore_us * 1e-6},
      {"reliability", "schedule draws",
       in.workload->campaign ? wc.trials : 0.0, uc.schedule_draw_us * 1e-6},
      {"service", "checkpoint writes",
       static_cast<double>(in.untraced->checkpoints),
       uc.checkpoint_write_us * 1e-6},
  };
  double explained = 0.0;
  for (const auto& t : terms) explained += t.count * t.unit_s;

  const double serial =
      ratio(in.trace.total("prune-plan"), in.traced_wall_s);
  LayerReport rep;
  rep.metrics = {
      {"ecc.encode_ns", uc.encode_ns, "ns"},
      {"ecc.decode_ns", uc.decode_ns, "ns"},
      {"ecc.fill_words", wc.fill_words, "count"},
      {"mem.dl1_loads", wc.loads, "count"},
      {"mem.dl1_hit_ratio", ratio(wc.load_hits, wc.loads), "ratio"},
      {"mem.bus_transactions", wc.bus_tx, "count"},
      {"mem.bus_wait_cycles", wc.bus_wait, "cycles"},
      {"mem.read_hit_ns", uc.read_hit_ns, "ns"},
      {"mem.fill_ns", uc.fill_ns, "ns"},
      {"cpu.sim_cycles",
       wc.program_cycles + wc.golden_cycles + wc.trace_cycles, "cycles"},
      {"cpu.instructions", wc.instructions, "count"},
      {"cpu.host_ns_per_sim_cycle", uc.ns_per_cycle, "ns"},
      {"cpu.laec_overhead_pct", in.laec_overhead_pct, "%"},
      {"core.run_program_ms", uc.run_program_ms, "ms"},
      {"core.resume_ms", uc.resume_ms, "ms"},
      {"core.system_build_us", uc.system_build_us, "us"},
      {"sim.captures", reg_value("snapshot.captures"), "count"},
      {"sim.restores", reg_value("snapshot.restores"), "count"},
      {"sim.snapshot_bytes", reg_value("snapshot.bytes_in_use"), "bytes"},
      {"sim.save_us", uc.save_us, "us"},
      {"sim.restore_us", uc.restore_us, "us"},
      {"sim.capture_s", in.trace.total("snapshot-capture"), "s"},
      {"sim.restore_s", in.trace.total("snapshot-restore"), "s"},
      {"reliability.schedule_draw_us", uc.schedule_draw_us, "us"},
      {"reliability.pruned_fraction", ratio(wc.pruned, wc.trials), "ratio"},
      {"reliability.ff_fraction", ratio(wc.fast_forwarded, wc.trials),
       "ratio"},
      {"reliability.cycles_skipped_share",
       ratio(wc.cycles_skipped, wc.total_cycles), "ratio"},
      {"reliability.golden_runs", reg_value("campaign.golden_runs"), "count"},
      {"reliability.golden_cache_hits", reg_value("campaign.golden_cache_hits"),
       "count"},
      {"runner.golden_run_ms", uc.golden_run_ms, "ms"},
      {"runner.golden_s", in.trace.total("golden-run"), "s"},
      {"runner.point_us_p50", static_cast<double>(point_us.percentile(0.5)),
       "us"},
      {"runner.point_us_p99", static_cast<double>(point_us.percentile(0.99)),
       "us"},
      {"runner.point_samples", static_cast<double>(point_us.count), "count"},
      {"runner.serial_share", serial, "ratio"},
      {"runner.threads_spawned", static_cast<double>(in.trace.threads),
       "count"},
      {"service.checkpoint_write_us", uc.checkpoint_write_us, "us"},
      {"service.checkpoint_bytes", uc.checkpoint_bytes, "bytes"},
      {"workloads.build_ms", uc.build_ms, "ms"},
      {"obs.trace_overhead_pct",
       100.0 * (ratio(in.traced_wall_s, in.untraced_wall_s) - 1.0), "%"},
      {"obs.trace_dropped", static_cast<double>(in.trace.dropped), "count"},
      {"ledger.explained_cpu_s", explained, "s"},
      {"ledger.unexplained_cpu_s", in.cpu_s - explained, "s"},
  };

  std::string& t = rep.table;
  const char* name = in.workload->name.c_str();
  appendf(t, "== %s: per-layer metrics ==\n", name);
  for (const auto& m : rep.metrics) {
    appendf(t, "  %-34s %16.6g %s\n", m.name.c_str(), m.value,
            m.unit.c_str());
  }
  appendf(t, "== %s: traced pass, span time ==\n", name);
  appendf(t, "  wall %.3f s traced vs %.3f s untraced; serial share %.3f\n",
          in.traced_wall_s, in.untraced_wall_s, serial);
  appendf(t, "  %-20s %8s %11s %11s\n", "span", "count", "total_s", "self_s");
  for (const auto& sp : in.trace.spans) {
    appendf(t, "  %-20s %8llu %11.4f %11.4f\n", sp.name.c_str(),
            static_cast<unsigned long long>(sp.count), sp.total_s, sp.self_s);
  }
  appendf(t, "== %s: ledger (count x unit cost) ==\n", name);
  appendf(t, "  %-12s %-26s %14s %12s %10s\n", "layer", "work", "count",
          "unit_s", "cpu_s");
  for (const auto& term : terms) {
    appendf(t, "  %-12s %-26s %14.0f %12.4g %10.4f\n", term.layer, term.what,
            term.count, term.unit_s, term.count * term.unit_s);
  }
  appendf(t, "  explained %.4f s of %.4f s cpu; unexplained %.4f s\n",
          explained, in.cpu_s, in.cpu_s - explained);
  appendf(t, "  within cpu: ecc fill encodes %.4f s, dl1 load hits %.4f s\n",
          wc.fill_words * uc.encode_ns * 1e-9,
          wc.load_hits * uc.read_hit_ns * 1e-9);
  return rep;
}

}  // namespace perfbench
