#include "workloads.hpp"

#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <tuple>

#include "core/deployment.hpp"
#include "ecc/registry.hpp"
#include "service/checkpoint.hpp"
#include "workloads/eembc.hpp"

namespace perfbench {

using namespace laec;

namespace {

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

std::string join(const std::vector<std::string>& fields) {
  std::string out;
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i != 0) out += ',';
    out += fields[i];
  }
  return out;
}

std::vector<std::string> all_kernels() {
  std::vector<std::string> names;
  for (const auto& k : workloads::eembc_kernels()) names.emplace_back(k.name);
  return names;
}

std::string canonical(const std::string& scheme_key) {
  return core::HierarchyDeployment::parse(scheme_key).canonical_key();
}

/// Mark every row of a (mode, kernel, DL1 size, hazard) block whose cycle
/// counts break LAEC <= Extra Stage <= Extra Cycle. Extra Stage may exceed
/// Extra Cycle by the one cycle its eighth stage adds to the pipeline fill:
/// on kernels where every load hit stalls under both schemes (canrdr,
/// puwmod, rspeed) that cycle is all that separates them.
void check_scheme_order(const std::vector<runner::PointResult>& results,
                        std::vector<bool>& invalid) {
  using Key = std::tuple<int, std::string, std::string, int>;
  std::map<Key, std::map<std::string, std::pair<u64, std::size_t>>> blocks;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& p = results[i].point;
    blocks[Key{static_cast<int>(p.mode), p.workload, p.variant,
               static_cast<int>(p.config.hazard_rule)}]
          [p.config.effective_deployment().canonical_key()] = {
              results[i].stats.cycles, i};
  }
  const std::string ec = canonical("extra-cycle");
  const std::string es = canonical("extra-stage");
  const std::string la = canonical("laec");
  for (const auto& [key, by_scheme] : blocks) {
    const auto c = [&](const std::string& s) {
      const auto it = by_scheme.find(s);
      return it == by_scheme.end() ? u64{0} : it->second.first;
    };
    if (c(la) > 0 && c(la) <= c(es) && c(es) <= c(ec) + 1) continue;
    for (const auto& [scheme, entry] : by_scheme) invalid[entry.second] = true;
  }
}

std::vector<runner::SweepPoint> fig8_points(
    const std::vector<std::string>& kernels, bool smoke) {
  const std::vector<cpu::HazardRule> hazards = {cpu::HazardRule::kExact,
                                                cpu::HazardRule::kPaperLiteral};
  std::vector<runner::ConfigVariant> sizes;
  for (const unsigned kb : smoke ? std::vector<unsigned>{2, 16}
                                 : std::vector<unsigned>{2, 4, 8, 16}) {
    sizes.push_back({"dl1-" + std::to_string(kb) + "k",
                     [kb](core::SimConfig& c) {
                       c.dl1_size_bytes = kb * 1024;
                     }});
  }
  runner::SweepGrid program;
  program.workloads(kernels)
      .schemes(runner::fig8_scheme_keys())
      .hazards(hazards)
      .variants(sizes)
      .mode(runner::RunMode::kProgram);
  runner::SweepGrid trace;
  trace.workloads(kernels)
      .schemes(runner::fig8_scheme_keys())
      .hazards(hazards)
      .mode(runner::RunMode::kTrace)
      .trace_ops(smoke ? 20'000 : 120'000);
  auto points = program.points();
  for (auto p : trace.points()) {
    p.index = points.size();
    points.push_back(std::move(p));
  }
  return points;
}

}  // namespace

Workload setup_workload(const std::string& name, bool smoke) {
  Workload w;
  w.name = name;
  if (name == "campaign-wide") {
    w.campaign = true;
    w.kernels = smoke ? std::vector<std::string>{"puwmod", "rspeed"}
                      : all_kernels();
    w.schemes = {"laec", "sec-daec-39-32", "dec-bch-45-32"};
    w.spec.accel = 1e15;
    w.spec.trials = smoke ? 4 : 24;
    w.pass_seeds = 4;
  } else if (name == "campaign-deep") {
    w.campaign = true;
    w.checkpoint_each_round = true;
    w.kernels = smoke ? std::vector<std::string>{"puwmod"}
                      : std::vector<std::string>{"puwmod", "iirflt"};
    w.schemes = smoke ? std::vector<std::string>{"laec"}
                      : std::vector<std::string>{"laec", "sec-daec-39-32"};
    w.spec.accel = 1e16;
    w.spec.trials = smoke ? 16 : 384;
  } else if (name == "sweep-fig8") {
    w.kernels = smoke ? std::vector<std::string>{"puwmod", "iirflt"}
                      : all_kernels();
    w.schemes = runner::fig8_scheme_keys();
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  if (w.campaign) {
    w.dl1_bytes = 2 * 1024;
    w.spec.batch = smoke ? w.spec.trials / 2 : 24;
    w.spec.min_trials = w.spec.batch;
    w.spec.base.dl1_size_bytes = w.dl1_bytes;
  }

  // Codec registry + LUT builds for every level of every deployed scheme.
  for (const auto& s : w.schemes) {
    const auto d = core::HierarchyDeployment::parse(s);
    for (const auto& codec : {d.codec, d.l1i.codec, d.l2.codec}) {
      (void)ecc::make_codec(codec);
    }
  }
  // Kernel assembly.
  for (const auto& k : w.kernels) (void)workloads::kernel_by_name(k).build();
  // Grid expansion.
  if (w.campaign) {
    reliability::CampaignGrid grid;
    grid.workloads(w.kernels)
        .schemes(w.schemes)
        .rates({*reliability::tech_preset("28nm")});
    w.cells = grid.cells();
  } else {
    w.points = fig8_points(w.kernels, smoke);
  }
  return w;
}

u64 pass_seed(u64 seed, unsigned slot) {
  return seed + slot * 0x9e3779b97f4a7c15ull;
}

Pass run_pass(const Workload& w, u64 seed, bool reference,
              const std::string& scratch_dir) {
  Pass pass;
  const double cpu0 = cpu_seconds();
  const auto t0 = std::chrono::steady_clock::now();
  if (w.campaign) {
    reliability::CampaignSpec spec = w.spec;
    if (reference) {
      spec.prune = false;
      spec.fast_forward = false;
    }
    reliability::CampaignOptions opts;
    opts.threads = kThreads;
    opts.base_seed = seed;
    const std::string ckpt = scratch_dir + "/" + w.name + ".ckpt";
    if (w.checkpoint_each_round) {
      opts.on_round = [&](const std::vector<reliability::CellProgress>& p) {
        service::save_checkpoint(ckpt, seed, p);
        ++pass.checkpoints;
      };
    }
    pass.campaign = reliability::run_campaign(w.cells, spec, opts);
    if (w.checkpoint_each_round) std::remove(ckpt.c_str());
  } else {
    runner::SweepOptions opts;
    opts.threads = reference ? 1 : kThreads;
    opts.base_seed = seed;
    pass.sweep = runner::run_sweep(w.points, opts);
  }
  pass.wall_s = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
  pass.cpu_s = cpu_seconds() - cpu0;

  if (w.campaign) {
    for (const auto& c : pass.campaign.cells) {
      pass.rows.push_back(join(reliability::campaign_to_row(c)));
      pass.ops += c.trials;
      pass.sim_cycles += c.total_cycles;
    }
    pass.invalid.assign(pass.rows.size(), false);
  } else {
    for (const auto& r : pass.sweep.results) {
      pass.rows.push_back(join(runner::to_row(r)));
      pass.invalid.push_back(!r.self_check_ok || !r.stats.completed);
      pass.sim_cycles += r.stats.cycles;
    }
    pass.ops = pass.sweep.points_run;
    check_scheme_order(pass.sweep.results, pass.invalid);
  }
  return pass;
}

std::string row_digest(const std::string& row) {
  u64 h = 0xcbf29ce484222325ull;
  for (const unsigned char c : row) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

std::vector<PaperPoint> paper_points(const Pass& pass, const Workload& w) {
  const std::string none = canonical("no-ecc");
  const std::string la = canonical("laec");
  std::vector<PaperPoint> out;
  const auto add = [&](const runner::PointResult& r) {
    const auto& p = r.point;
    const std::string s = p.config.effective_deployment().canonical_key();
    if (p.mode != runner::RunMode::kProgram ||
        p.config.dl1_size_bytes != 16 * 1024 ||
        p.config.hazard_rule != cpu::HazardRule::kExact ||
        (s != none && s != la)) {
      return;
    }
    out.push_back({p.workload, s == la, r.stats.cycles,
                   100.0 * r.stats.hit_fraction(),
                   100.0 * r.stats.dep_fraction(),
                   100.0 * r.stats.load_fraction()});
  };
  if (!w.campaign) {
    for (const auto& r : pass.sweep.results) add(r);
    return out;
  }
  runner::SweepGrid grid;
  grid.all_workloads().schemes({"no-ecc", "laec"});
  runner::SweepOptions opts;
  opts.threads = kThreads;
  for (const auto& r : runner::run_sweep(grid, opts).results) add(r);
  return out;
}

double table2_mae_pp(const std::vector<PaperPoint>& paper) {
  double err = 0.0;
  unsigned n = 0;
  for (const auto& p : paper) {
    if (p.laec) continue;
    const auto& ref = workloads::kernel_by_name(p.kernel).paper;
    err += std::abs(p.hit_pct - ref.hit_pct) +
           std::abs(p.dep_pct - ref.dep_pct) +
           std::abs(p.load_pct - ref.load_pct);
    n += 3;
  }
  return n == 0 ? 0.0 : err / n;
}

double laec_overhead_pct(const std::vector<PaperPoint>& paper) {
  std::map<std::string, std::pair<u64, u64>> by_kernel;  // (no-ecc, laec)
  for (const auto& p : paper) {
    (p.laec ? by_kernel[p.kernel].second : by_kernel[p.kernel].first) =
        p.cycles;
  }
  double sum = 0.0;
  unsigned n = 0;
  for (const auto& [kernel, c] : by_kernel) {
    if (c.first == 0 || c.second == 0) continue;
    sum += static_cast<double>(c.second) / static_cast<double>(c.first) - 1.0;
    ++n;
  }
  return n == 0 ? 0.0 : 100.0 * sum / n;
}

}  // namespace perfbench
