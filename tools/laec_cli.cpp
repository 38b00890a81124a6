// laec_cli — command-line driver for the simulator.
//
//   laec_cli list
//       List the built-in EEMBC-like kernels.
//   laec_cli schemes
//       List the ECC deployment keys and every registered codec.
//   laec_cli run <kernel> [options]
//       Run a kernel and print statistics (and verify its self-checks).
//   laec_cli trace <kernel|custom> [options]
//       Run the benchmark's calibrated synthetic trace.
//   laec_cli compare <kernel> [options]
//       Run all four schemes and print the Fig. 8-style comparison row.
//   laec_cli sweep [kernel] [options]
//       Run the full (workload x scheme) experiment grid N-way parallel
//       through runner::run_sweep and stream one row per point. Without a
//       kernel argument this is the Fig. 8 grid (16 kernels x 4 schemes).
//       Rows are byte-identical at any --threads.
//   laec_cli campaign [kernel] [options]
//       Monte Carlo reliability campaign: run N fault-injection trials per
//       (workload x scheme x rate) cell and emit one row per cell with
//       FIT / MTTF / AVF estimates and Wilson confidence intervals.
//       Golden runs and trials share one --threads pool; rows are
//       byte-identical at any --threads, and --shard slices union to the
//       whole campaign. With --checkpoint=FILE the campaign persists
//       per-cell trial cursors every round; an interrupted run
//       (SIGINT/SIGTERM, exit code 3) resumes with --resume and emits rows
//       byte-identical to an uninterrupted run.
//   laec_cli serve --socket=PATH [--workers=N]
//       Campaign work-queue daemon over a Unix-domain socket: worker
//       threads pull cells from an MPMC queue; each connection submits a
//       job and streams its rows back in grid order.
//   laec_cli submit [kernel] --socket=PATH [options]
//       Submit a campaign to a daemon and stream the rows here. Accepts
//       the campaign grid flags plus --shard (complementary clients shard
//       one campaign); rows are byte-identical to a local run.
//   laec_cli status --socket=PATH
//       Probe a running daemon: uptime, queue depth, in-flight cells,
//       per-worker trial rates and the daemon's metrics digest. Purely
//       observational — never perturbs scheduling or row bytes.
//   laec_cli stop --socket=PATH
//       Ask a daemon to shut down cleanly.
//   laec_cli cat FILE [--format=csv|jsonl] [--out=FILE]
//       Decode a --format=col columnar result file back to text;
//       bit-identical to having written CSV directly.
//
// Every flag is declared once, in kFlags below, with the commands it
// applies to, its bounds and one help line; `laec_cli` with no arguments
// prints that table. A flag given to a command outside its set exits 2.
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/parse.hpp"
#include "core/deployment.hpp"
#include "core/simulator.hpp"
#include "ecc/registry.hpp"
#include "ecc/xor_tree.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "reliability/campaign.hpp"
#include "report/sink.hpp"
#include "report/table.hpp"
#include "runner/sweep_runner.hpp"
#include "service/checkpoint.hpp"
#include "service/columnar.hpp"
#include "service/daemon.hpp"
#include "service/job.hpp"
#include "workloads/eembc.hpp"
#include "workloads/synthetic.hpp"

namespace {

using namespace laec;

struct CliOptions {
  std::string kernel;  ///< the kernel operand, or the input file of `cat`
  core::SimConfig cfg;
  u64 trace_ops = 120'000;
  bool csv = false;

  // Grid commands (sweep / campaign / submit).
  std::vector<std::string> ecc_schemes;  ///< --ecc keys; empty: default axis
  bool sweep_trace = false;              ///< bare --trace: calibrated traces
  unsigned threads = 0;
  unsigned shard_index = 0;
  unsigned shard_count = 1;
  u64 base_seed = 0x1aec;
  std::string format = "csv";
  std::string out_path;
  std::string trace_path;  ///< --trace=FILE: Chrome trace-event JSON

  // Campaign grid (campaign / submit).
  reliability::CampaignSpec campaign;
  std::vector<std::string> rate_tokens;
  std::optional<ecc::MbuPatternTable> mbu;  ///< overrides every rate's mix

  // Local campaign runs.
  std::string checkpoint_path;
  bool resume = false;
  unsigned stop_after_rounds = 0;
  bool progress = false;
  unsigned progress_secs = 5;

  // Service (serve / submit / status / stop).
  std::string socket_path;
  unsigned serve_workers = 0;
};

/// Split a comma list into its non-empty items.
std::vector<std::string> split_csv(const std::string& v) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= v.size()) {
    const auto comma = v.find(',', start);
    const std::string item =
        v.substr(start, comma == std::string::npos ? v.size() - start
                                                   : comma - start);
    if (!item.empty()) out.push_back(item);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

/// Parse `v` strictly as an unsigned T of at most `max` into `out`, or
/// print why not.
template <typename T>
bool take_uint(const char* flag, const std::string& v, T& out,
               T max = std::numeric_limits<T>::max()) {
  const auto parsed = parse_uint_strict<T>(v);
  if (!parsed.has_value() || *parsed > max) {
    std::fprintf(stderr, "%s wants a whole number from 0 to %llu, not %s\n",
                 flag, static_cast<unsigned long long>(max), v.c_str());
    return false;
  }
  out = *parsed;
  return true;
}

bool take_double(const char* flag, const std::string& v, double& out) {
  const auto parsed = parse_double_strict(v);
  if (!parsed.has_value()) {
    std::fprintf(stderr, "%s wants a number, not %s\n", flag, v.c_str());
    return false;
  }
  out = *parsed;
  return true;
}

/// The setter of a flag that stores into the field reached from
/// CliOptions through the member pointers `Path`: a switch sets a bool
/// field, a value is copied into a string field or parsed strictly into a
/// number field.
template <auto... Path>
bool store(CliOptions& o, const char* flag, const std::string& v) {
  auto& field = (o .* ... .* Path);
  using T = std::remove_reference_t<decltype(field)>;
  if constexpr (std::is_same_v<T, bool>) {
    field = true;
    return true;
  } else if constexpr (std::is_same_v<T, std::string>) {
    field = v;
    return true;
  } else if constexpr (std::is_floating_point_v<T>) {
    return take_double(flag, v, field);
  } else {
    return take_uint(flag, v, field);
  }
}

using Cfg = core::SimConfig;
using Spec = reliability::CampaignSpec;

/// Split a comma-separated --ecc value into scheme keys and validate each
/// against HierarchyDeployment::parse. The first key also configures the
/// single-run config (run/trace use exactly one scheme).
bool parse_ecc(const char* flag, const std::string& v, CliOptions& o) {
  for (const std::string& key : split_csv(v)) {
    try {
      (void)core::HierarchyDeployment::parse(key);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: %s\n", flag, e.what());
      return false;
    }
    o.ecc_schemes.push_back(key);
  }
  if (o.ecc_schemes.empty()) {
    std::fprintf(stderr, "%s wants at least one scheme key\n", flag);
    return false;
  }
  o.cfg.set_scheme(o.ecc_schemes.front());
  return true;
}

/// Parse an --mbu pattern table: comma list of key:weight pairs with keys
/// single|s, adj2, adj3, cluster|clustered. Returns false on a bad entry.
bool parse_mbu(const std::string& v, ecc::MbuPatternTable& t) {
  t = {0.0, 0.0, 0.0, 0.0};
  for (const std::string& item : split_csv(v)) {
    const auto colon = item.find(':');
    if (colon == std::string::npos) return false;
    const std::string key = item.substr(0, colon);
    const auto w = parse_double_strict(item.substr(colon + 1));
    if (!w.has_value() || *w < 0.0) return false;
    if (key == "single" || key == "s") {
      t.single = *w;
    } else if (key == "adj2") {
      t.adjacent_double = *w;
    } else if (key == "adj3") {
      t.adjacent_triple = *w;
    } else if (key == "cluster" || key == "clustered") {
      t.clustered = *w;
    } else {
      return false;
    }
  }
  return t.total() > 0.0;
}

/// The Bernoulli storm the --inject-* flags configure, made on first use.
ecc::InjectorConfig& storm(CliOptions& o) {
  if (!o.cfg.faults.has_value()) o.cfg.faults.emplace();
  return *o.cfg.faults;
}

/// --shard=I/N: shard I of N, with N >= 1 and I < N.
bool parse_shard(const char* flag, const std::string& v, CliOptions& o) {
  const auto slash = v.find('/');
  const auto index = parse_uint_strict<unsigned>(v.substr(0, slash));
  const auto count = slash == std::string::npos
                         ? std::nullopt
                         : parse_uint_strict<unsigned>(v.substr(slash + 1));
  if (!index.has_value() || !count.has_value() || *index >= *count) {
    std::fprintf(stderr, "%s wants I/N with I < N, not %s\n", flag,
                 v.c_str());
    return false;
  }
  o.shard_index = *index;
  o.shard_count = *count;
  return true;
}

// The commands, one bit each, and the sets of them that flags apply to.
enum : unsigned {
  kList = 1u << 0,
  kSchemes = 1u << 1,
  kRun = 1u << 2,
  kTrace = 1u << 3,
  kCompare = 1u << 4,
  kSweep = 1u << 5,
  kCampaign = 1u << 6,
  kServe = 1u << 7,
  kSubmit = 1u << 8,
  kStatus = 1u << 9,
  kStop = 1u << 10,
  kCat = 1u << 11,
  kCampaigns = kCampaign | kSubmit,  ///< the campaign grid
  kGrids = kSweep | kCampaigns,      ///< row-streaming grid runs
  kInject = kRun | kTrace | kCompare | kSweep,  ///< Bernoulli --inject-*
  kMachine = kInject | kCampaigns,              ///< simulate a machine
};

/// How a flag takes its value.
enum class Arg {
  kSwitch,    ///< --flag
  kValue,     ///< --flag=VALUE
  kOptional,  ///< --flag or --flag=VALUE
};

struct Flag {
  const char* name;
  Arg arg;
  const char* value;  ///< the value's name in the usage text
  unsigned commands;  ///< the commands the flag applies to
  const char* help;
  /// Store the value (empty for a switch or a bare optional flag); false
  /// after printing why it is refused.
  bool (*set)(CliOptions& o, const char* flag, const std::string& v);
};

// Grouped by command set: usage() prints a heading wherever it changes.
const Flag kFlags[] = {
    {"--ecc", Arg::kValue, "SCHEME[,SCHEME...]", kRun | kTrace | kGrids,
     "policy, codec, placement:codec or compound hierarchy key (see "
     "`laec_cli schemes`; default laec); a comma list is a grid's scheme "
     "axis (default: the four Fig. 8 schemes for sweep, laec, "
     "sec-daec-39-32 and sec-daec-taec-45-32 for campaigns)",
     [](auto& o, auto f, auto& v) { return parse_ecc(f, v, o); }},
    {"--hazard", Arg::kValue, "exact|paper", kMachine, "LAEC hazard rule",
     [](auto& o, auto f, auto& v) {
       const auto rule = cpu::hazard_rule_from_string(v);
       if (!rule.has_value()) {
         std::fprintf(stderr, "%s wants exact or paper, not %s\n", f,
                      v.c_str());
         return false;
       }
       o.cfg.hazard_rule = *rule;
       return true;
     }},
    {"--stride-predictor", Arg::kSwitch, "", kMachine,
     "enable the stride load-address predictor (A4 extension)",
     store<&CliOptions::cfg, &Cfg::stride_predictor>},
    {"--dl1-kb", Arg::kValue, "N", kMachine,
     "DL1 size in KB: a power of two up to 1024",
     [](auto& o, auto f, auto& v) {
       u32 kb = 0;
       if (!take_uint(f, v, kb, std::numeric_limits<u32>::max() / 1024)) {
         return false;
       }
       o.cfg.dl1_size_bytes = kb * 1024;
       return true;
     }},
    {"--dl1-ways", Arg::kValue, "N", kMachine,
     "DL1 ways: a power of two from 1 to 64 leaving at least one set (the "
     "4-way L1I shares the 32 B line)",
     store<&CliOptions::cfg, &Cfg::dl1_ways>},
    {"--wbuf", Arg::kValue, "N", kMachine, "write-buffer entries: 1 to 1024",
     store<&CliOptions::cfg, &Cfg::write_buffer_depth>},
    {"--div", Arg::kValue, "N", kMachine, "divide latency: 1 to 4096 cycles",
     store<&CliOptions::cfg, &Cfg::div_latency>},
    {"--mem", Arg::kValue, "N", kMachine, "main-memory latency: 0 to 4096 cycles",
     store<&CliOptions::cfg, &Cfg::memory_cycles>},
    {"--inject-target", Arg::kValue, "dl1|l1i|l2", kMachine,
     "which cache array the storm strikes (outside campaigns it needs an "
     "--inject-single or --inject-double rate)",
     [](auto& o, auto f, auto& v) {
       const auto target = core::inject_target_from_string(v);
       if (!target.has_value()) {
         std::fprintf(stderr, "%s wants dl1, l1i or l2, not %s\n", f,
                      v.c_str());
         return false;
       }
       o.cfg.inject_target = *target;
       return true;
     }},
    {"--inject-single", Arg::kValue, "P", kInject,
     "per-access single-bit-flip probability in [0, 1]",
     [](auto& o, auto f, auto& v) {
       return take_double(f, v, storm(o).single_flip_prob);
     }},
    {"--inject-double", Arg::kValue, "P", kInject,
     "per-access double-bit-flip probability in [0, 1]",
     [](auto& o, auto f, auto& v) {
       return take_double(f, v, storm(o).double_flip_prob);
     }},
    {"--inject-adjacent", Arg::kSwitch, "", kInject,
     "make double flips strike adjacent bits",
     [](auto& o, auto, auto&) {
       storm(o).adjacent_doubles = true;
       return true;
     }},
    {"--ops", Arg::kValue, "N", kTrace | kSweep,
     "calibrated-trace length in operations (default 120000)",
     store<&CliOptions::trace_ops>},
    {"--csv", Arg::kSwitch, "", kRun | kTrace,
     "print one machine-readable line",
     store<&CliOptions::csv>},
    {"--threads", Arg::kValue, "N", kSweep | kCampaign,
     "worker threads (0 = hardware concurrency); rows are byte-identical "
     "at any count",
     store<&CliOptions::threads>},
    {"--trace", Arg::kOptional, "FILE", kSweep | kCampaign | kServe,
     "bare: calibrated-trace sweep; =FILE: write a Chrome trace-event JSON "
     "of the run (rows stay byte-identical)",
     [](auto& o, auto, auto& v) {
       if (v.empty()) {
         o.sweep_trace = true;
       } else {
         o.trace_path = v;
       }
       return true;
     }},
    {"--shard", Arg::kValue, "I/N", kGrids,
     "run shard I of N (the shards' rows union to the whole grid)",
     [](auto& o, auto f, auto& v) { return parse_shard(f, v, o); }},
    {"--seed", Arg::kValue, "N", kGrids,
     "base seed of the per-point deterministic RNG",
     store<&CliOptions::base_seed>},
    {"--format", Arg::kValue, "csv|jsonl|col", kGrids | kCat,
     "row format (default csv; cat decodes col to csv or jsonl)",
     [](auto& o, auto f, auto& v) {
       if (v != "csv" && v != "jsonl" && v != "col") {
         std::fprintf(stderr, "%s wants csv, jsonl or col, not %s\n", f,
                      v.c_str());
         return false;
       }
       o.format = v;
       return true;
     }},
    {"--out", Arg::kValue, "FILE", kGrids | kCat,
     "write rows to FILE instead of stdout",
     store<&CliOptions::out_path>},
    {"--rates", Arg::kValue, "R[,R...]", kCampaigns,
     "rate axis: tech presets 65nm, 40nm, 28nm or positive FIT/Mbit numbers "
     "(default 40nm)",
     [](auto& o, auto f, auto& v) {
       o.rate_tokens = split_csv(v);
       if (o.rate_tokens.empty()) {
         std::fprintf(stderr, "%s wants at least one preset or number\n", f);
       }
       return !o.rate_tokens.empty();
     }},
    {"--trials", Arg::kValue, "N", kCampaigns,
     "Monte Carlo trials per cell, at least 1 (default 96)",
     store<&CliOptions::campaign, &Spec::trials>},
    {"--min-trials", Arg::kValue, "N", kCampaigns,
     "trials before --ci-width may stop a cell (default 24)",
     store<&CliOptions::campaign, &Spec::min_trials>},
    {"--batch", Arg::kValue, "N", kCampaigns,
     "stopping-rule check granularity in trials (default 24)",
     store<&CliOptions::campaign, &Spec::batch>},
    {"--confidence", Arg::kValue, "C", kCampaigns,
     "CI level in (0, 1) (default 0.95)",
     store<&CliOptions::campaign, &Spec::confidence>},
    {"--ci-width", Arg::kValue, "W", kCampaigns,
     "stop a cell once the Wilson CI half-width on p_fail drops to W >= 0 "
     "(default 0: never)",
     store<&CliOptions::campaign, &Spec::target_half_width>},
    {"--accel", Arg::kValue, "A", kCampaigns,
     "fault-process time acceleration, > 0 (default 1e16)",
     store<&CliOptions::campaign, &Spec::accel>},
    {"--mbu", Arg::kValue, "single:W,adj2:W,adj3:W,cluster:W", kCampaigns,
     "MBU pattern table; overrides every rate's shape mix (numeric rates "
     "default to the 40nm mix)",
     [](auto& o, auto f, auto& v) {
       if (!parse_mbu(v, o.mbu.emplace())) {
         std::fprintf(stderr,
                      "%s wants key:weight pairs (single/adj2/adj3/cluster) "
                      "with a positive total, not %s\n",
                      f, v.c_str());
         return false;
       }
       return true;
     }},
    {"--no-prune", Arg::kSwitch, "", kCampaigns,
     "simulate every trial instead of classifying provably masked ones "
     "from the golden run (reference path; rows are byte-identical)",
     [](auto& o, auto, auto&) {
       o.campaign.prune = false;
       return true;
     }},
    {"--no-ff", Arg::kSwitch, "", kCampaigns,
     "simulate every trial's fault-free prefix instead of restoring a "
     "golden snapshot (reference path; rows are byte-identical)",
     [](auto& o, auto, auto&) {
       o.campaign.fast_forward = false;
       return true;
     }},
    {"--snapshot-every", Arg::kValue, "N", kCampaigns,
     "golden snapshot cadence in injector consultations (default 256, 0 "
     "disables)",
     store<&CliOptions::campaign, &Spec::snapshot_every>},
    {"--snapshot-mem", Arg::kValue, "MB", kCampaigns,
     "snapshot budget per golden run, keep-every-k thinned (default 256)",
     store<&CliOptions::campaign, &Spec::snapshot_mem_mb>},
    {"--checkpoint", Arg::kValue, "FILE", kCampaign,
     "persist per-cell trial cursors every round",
     store<&CliOptions::checkpoint_path>},
    {"--resume", Arg::kSwitch, "", kCampaign,
     "continue the campaign saved in --checkpoint",
     store<&CliOptions::resume>},
    {"--stop-after-rounds", Arg::kValue, "N", kCampaign,
     "stop (exit 3) after N >= 1 rounds, as an interrupt would",
     [](auto& o, auto f, auto& v) {
       if (!take_uint(f, v, o.stop_after_rounds)) return false;
       if (o.stop_after_rounds == 0) {
         std::fprintf(stderr, "%s wants at least 1 round\n", f);
       }
       return o.stop_after_rounds != 0;
     }},
    {"--progress", Arg::kOptional, "SECS", kCampaign,
     "stderr heartbeat every SECS seconds (default 5)",
     [](auto& o, auto f, auto& v) {
       o.progress = true;
       return v.empty() || take_uint(f, v, o.progress_secs);
     }},
    {"--socket", Arg::kValue, "PATH", kServe | kSubmit | kStatus | kStop,
     "the daemon's Unix-domain socket",
     store<&CliOptions::socket_path>},
    {"--workers", Arg::kValue, "N", kServe,
     "daemon worker threads (0 = hardware concurrency)",
     store<&CliOptions::serve_workers>},
};

/// Parse the flags after the command (and its operand, when `operand`)
/// against kFlags for `cmd` (the command's bit), then apply the rules that
/// tie flags together. nullopt after printing why the line is refused.
std::optional<CliOptions> parse(int argc, char** argv, unsigned cmd,
                                bool operand) {
  CliOptions o;
  int i = 2;
  if (operand && i < argc && argv[i][0] != '-') o.kernel = argv[i++];
  bool target_given = false;
  for (; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    const Flag* f = nullptr;
    for (const Flag& row : kFlags) {
      if (arg.compare(0, eq, row.name) == 0) f = &row;
    }
    if (f == nullptr) {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      return std::nullopt;
    }
    if ((f->commands & cmd) == 0) {
      std::fprintf(stderr, "%s does not apply to %s\n", f->name, argv[1]);
      return std::nullopt;
    }
    const std::string v = eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (eq == std::string::npos ? f->arg == Arg::kValue
                                : f->arg == Arg::kSwitch || v.empty()) {
      std::fprintf(stderr,
                   f->arg == Arg::kSwitch ? "%s takes no value\n"
                                          : "%s wants =%s\n",
                   f->name, f->value);
      return std::nullopt;
    }
    if (!f->set(o, f->name, v)) return std::nullopt;
    target_given =
        target_given || std::string_view(f->name) == "--inject-target";
  }
  const char* refusal = nullptr;
  if (o.ecc_schemes.size() > 1 && (cmd & kGrids) == 0) {
    refusal = "--ecc takes one scheme here; a comma list is the scheme axis "
              "of sweep, campaign and submit";
  } else if (o.sweep_trace && cmd != kSweep) {
    refusal = "bare --trace (calibrated-trace mode) only applies to sweep; "
              "--trace=FILE records a flight trace";
  } else if (target_given && (cmd & kCampaigns) == 0 &&
             !o.cfg.faults.has_value()) {
    refusal = "--inject-target needs an injection rate (--inject-single=P "
              "or --inject-double=P)";
  } else if (cmd == kCat && o.format == "col") {
    refusal = "cat decodes columnar files; --format wants csv or jsonl";
  } else if (o.resume && o.checkpoint_path.empty()) {
    refusal = "--resume needs --checkpoint=FILE";
  }
  if (refusal != nullptr) {
    std::fprintf(stderr, "%s\n", refusal);
    return std::nullopt;
  }
  return o;
}

// --- service / checkpoint helpers -------------------------------------------

/// SIGINT/SIGTERM request a graceful stop: the campaign loop finishes its
/// round (checkpoint saved by on_round) and exits 3; the daemon's accept
/// loop drains and shuts down.
std::atomic<bool> g_stop_requested{false};

void handle_stop_signal(int) {
  g_stop_requested.store(true, std::memory_order_release);
}

void install_stop_handlers() {
  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);
}

/// Where rows go: a --format writer on stdout or on --out=FILE. Commands
/// open it only after every other check, so a refused run never truncates
/// an existing --out file.
struct OutputTarget {
  std::ofstream file;
  std::ostream* stream = &std::cout;
  std::string label = "<stdout>";
  std::unique_ptr<report::RowWriter> writer;

  bool open(const CliOptions& o) {
    if (!o.out_path.empty()) {
      file.open(o.out_path, std::ios::trunc | std::ios::binary);
      if (!file) {
        std::fprintf(stderr, "cannot open %s\n", o.out_path.c_str());
        return false;
      }
      stream = &file;
      label = o.out_path;
    }
    if (o.format == "col") {
      writer = std::make_unique<service::ColumnarWriter>(*stream);
    } else {
      writer = report::make_row_writer(o.format, *stream);
    }
    return true;
  }

  /// ENOSPC/EIO leave a sticky badbit; surface it as a hard error instead
  /// of pretending a truncated result file is complete.
  int finish() {
    writer->end();
    stream->flush();
    if (!stream->good()) {
      std::fprintf(stderr,
                   "error: writing rows to %s failed (disk full or I/O "
                   "error); the output is incomplete\n",
                   label.c_str());
      return 2;
    }
    return 0;
  }
};

/// Render one --progress heartbeat from the metrics registry. run_campaign
/// publishes its cursor totals as gauges every round (so a resumed run's
/// restored counts are included), making the heartbeat a pure VIEW over
/// the registry — the same numbers any other observer reads. The ETA uses
/// the completed-trials/s rate of the LAST heartbeat window (done -
/// prev_done over window_secs), not the cumulative average: under pruning,
/// a burst of analytically-classified trials would make the since-start
/// average wildly unrepresentative of the simulated trials still to come.
/// Returns the budget-done count for the caller to carry as the next
/// window's prev_done.
u64 print_heartbeat(double elapsed, double window_secs, u64 prev_done) {
  const obs::MetricsSnapshot snap = obs::Registry::global().snapshot();
  const auto ull = [](u64 v) { return static_cast<unsigned long long>(v); };
  const u64 done_trials = snap.value("campaign.trials_budget_done");
  const u64 target_trials = snap.value("campaign.trials_target");
  double eta = -1.0;
  if (done_trials > prev_done && window_secs > 0.0 &&
      target_trials >= done_trials) {
    const double rate =
        static_cast<double>(done_trials - prev_done) / window_secs;
    eta = static_cast<double>(target_trials - done_trials) / rate;
  }
  char eta_buf[48] = "";
  if (eta >= 0.0) {
    std::snprintf(eta_buf, sizeof eta_buf, ", ETA %.0fs", eta);
  }
  std::fprintf(stderr,
               "campaign: %llu/%llu cells, %llu trials (%llu pruned, %llu "
               "fast-forwarded, ~%llu cycles skipped), %llu "
               "faults injected, %.0fs elapsed%s\n",
               ull(snap.value("campaign.cells_finished")),
               ull(snap.value("campaign.cells_total")),
               ull(snap.value("campaign.trials_done")),
               ull(snap.value("campaign.trials_pruned")),
               ull(snap.value("campaign.trials_fast_forwarded")),
               ull(snap.value("campaign.cycles_skipped")),
               ull(snap.value("campaign.fault_events")), elapsed, eta_buf);
  // Second line: golden-run amortization, snapshot-store memory, and the
  // live trial-latency digest (sweep.point_us records every simulated
  // trial unconditionally — tracer on or off).
  char lat_buf[64] = "";
  if (const obs::MetricValue* lat = snap.find("sweep.point_us");
      lat != nullptr && lat->hist.count > 0) {
    std::snprintf(lat_buf, sizeof lat_buf,
                  ", trial p50 %lluus p99 %lluus",
                  ull(lat->hist.percentile(0.50)),
                  ull(lat->hist.percentile(0.99)));
  }
  std::fprintf(
      stderr,
      "campaign: %llu golden runs (%llu cache hits), snapshots %.1f MB%s\n",
      ull(snap.value("campaign.golden_runs")),
      ull(snap.value("campaign.golden_cache_hits")),
      static_cast<double>(snap.value("snapshot.bytes_in_use")) /
          (1024.0 * 1024.0),
      lat_buf);
  return done_trials;
}

/// --trace=FILE: arm the flight recorder before a run ...
void start_trace(const CliOptions& o) {
  if (!o.trace_path.empty()) obs::Tracer::global().enable();
}

/// ... and write what it recorded after.
void write_trace(const CliOptions& o) {
  if (!o.trace_path.empty() && !obs::write_trace_file(o.trace_path)) {
    std::fprintf(stderr, "cannot write trace file %s\n",
                 o.trace_path.c_str());
  }
}

void print_stats(const CliOptions& o, const core::RunStats& s,
                 int check_failures) {
  const core::HierarchyDeployment& dep = o.cfg.deployment;
  if (o.csv) {
    std::printf(
        "%s,%s,%llu,%llu,%.4f,%llu,%llu,%llu,%llu,%llu,%d\n",
        o.kernel.c_str(), dep.name.c_str(),
        static_cast<unsigned long long>(s.cycles),
        static_cast<unsigned long long>(s.instructions), s.cpi,
        static_cast<unsigned long long>(s.loads),
        static_cast<unsigned long long>(s.load_hits),
        static_cast<unsigned long long>(s.laec_anticipated),
        static_cast<unsigned long long>(s.ecc_corrected),
        static_cast<unsigned long long>(s.ecc_detected_uncorrectable),
        check_failures);
    return;
  }
  std::printf("scheme            : %s   (codec %s)\n", dep.name.c_str(),
              dep.codec.c_str());
  std::printf("cycles            : %llu\n",
              static_cast<unsigned long long>(s.cycles));
  std::printf("instructions      : %llu   (CPI %.3f)\n",
              static_cast<unsigned long long>(s.instructions), s.cpi);
  std::printf("loads             : %llu   (%.1f%% hit, %.1f%% dependent)\n",
              static_cast<unsigned long long>(s.loads),
              100.0 * s.hit_fraction(), 100.0 * s.dep_fraction());
  if (dep.timing == cpu::EccPolicy::kLaec) {
    std::printf("LAEC anticipated  : %llu   (data hz %llu, resource hz %llu)\n",
                static_cast<unsigned long long>(s.laec_anticipated),
                static_cast<unsigned long long>(s.laec_data_hazard),
                static_cast<unsigned long long>(s.laec_resource_hazard));
    if (o.cfg.stride_predictor) {
      std::printf("stride predictor  : used %llu, mispredicted %llu\n",
                  static_cast<unsigned long long>(
                      s.pipeline_stats.value("pred_used")),
                  static_cast<unsigned long long>(
                      s.pipeline_stats.value("pred_mispredict")));
    }
  }
  std::printf(
      "ECC events (DL1)  : %llu corrected (%llu adjacent-double), "
      "%llu detected-uncorrectable\n",
      static_cast<unsigned long long>(s.ecc_corrected),
      static_cast<unsigned long long>(s.ecc_corrected_adjacent),
      static_cast<unsigned long long>(s.ecc_detected_uncorrectable));
  std::printf(
      "ECC events (L1I)  : %llu corrected, %llu DUE, %llu refetches "
      "(codec %s)\n",
      static_cast<unsigned long long>(s.l1i_corrected),
      static_cast<unsigned long long>(s.l1i_detected_uncorrectable),
      static_cast<unsigned long long>(s.l1i_refetches),
      dep.l1i.codec.c_str());
  std::printf(
      "ECC events (L2)   : %llu corrected (%llu adjacent-double), %llu DUE, "
      "%llu refetches, %llu data-loss (codec %s)\n",
      static_cast<unsigned long long>(s.l2_corrected),
      static_cast<unsigned long long>(s.l2_corrected_adjacent),
      static_cast<unsigned long long>(s.l2_detected_uncorrectable),
      static_cast<unsigned long long>(s.l2_refetches),
      static_cast<unsigned long long>(s.l2_data_loss_events),
      dep.l2.codec.c_str());
  if (check_failures >= 0) {
    std::printf("self-check        : %s\n",
                check_failures == 0
                    ? "PASS"
                    : ("FAIL (" + std::to_string(check_failures) + " words)")
                          .c_str());
  }
}

int cmd_list(const CliOptions&) {
  report::Table t({"kernel", "description", "paper %hit/%dep/%load"});
  for (const auto& k : workloads::eembc_kernels()) {
    t.add_row({k.name, k.description,
               std::to_string(k.paper.hit_pct) + "/" +
                   std::to_string(k.paper.dep_pct) + "/" +
                   std::to_string(k.paper.load_pct)});
  }
  std::printf("%s", t.to_text().c_str());
  return 0;
}

int cmd_schemes(const CliOptions&) {
  std::printf("Deployment keys (policy names):\n");
  report::Table d({"key", "codec", "write policy", "check placement"});
  for (const auto& key : core::HierarchyDeployment::policy_keys()) {
    const auto dep = core::HierarchyDeployment::parse(key);
    d.add_row({dep.name, dep.codec,
               dep.write_policy == mem::WritePolicy::kWriteBack
                   ? "write-back"
                   : "write-through",
               std::string(to_string(dep.timing))});
  }
  std::printf("%s\n", d.to_text().c_str());

  std::printf(
      "Hierarchy deployments: join per-cache segments with '+'. The first\n"
      "segment is the DL1 scheme (any key above, a codec name, or\n"
      "placement:codec); l1i:<codec> and l2:<codec> override the other\n"
      "levels (defaults: l1i parity-32, l2 secded-39-32). Segments accept\n"
      ":scrub/:no-scrub and :correct/:refetch recovery flags.\n"
      "  e.g. --ecc=laec+l1i:parity-i2-32+l2:sec-daec-39-32\n\n");

  std::printf(
      "Registered codecs (32-bit-word codecs are deployable in any cache\n"
      "level as --ecc segments; 64-bit geometries are library-only for\n"
      "now):\n");
  report::Table t({"name", "k", "r", "corrects", "adj-corr", "adj3-corr",
                   "2-corr", "adj-DED", "DED", "deployable"});
  for (const auto& name : ecc::registered_codecs()) {
    const auto c = ecc::make_codec(name);
    t.add_row({name, std::to_string(c->data_bits()),
               std::to_string(c->check_bits()),
               c->corrects_single() ? "yes" : "no",
               c->corrects_adjacent_double() ? "yes" : "no",
               c->corrects_adjacent_triple() ? "yes" : "no",
               c->corrects_double() ? "yes" : "no",
               c->detects_adjacent_double() ? "yes" : "no",
               c->detects_double() ? "yes" : "no",
               c->data_bits() == 32 ? "yes" : "no"});
  }
  std::printf("%s\n", t.to_text().c_str());

  const auto chk39 = ecc::estimate_checker(ecc::secded32());
  const auto daec39 = ecc::estimate_checker(ecc::sec_daec32());
  std::printf(
      "Checker logic (gate model): secded-39-32 depth %u (%.0f ps), "
      "sec-daec-39-32 depth %u (%.0f ps)\n",
      chk39.depth_levels, ecc::estimate_delay_ps(chk39), daec39.depth_levels,
      ecc::estimate_delay_ps(daec39));
  return 0;
}

int cmd_run(const CliOptions& o) {
  const auto& entry = workloads::kernel_by_name(o.kernel);
  const auto built = entry.build();
  const auto run = core::run_program_keep_system(o.cfg, built.program);
  int bad = 0;
  for (const auto& [addr, expect] : built.expected) {
    bad += run.system->read_word_final(addr) != expect;
  }
  print_stats(o, run.stats, bad);
  return bad == 0 && run.stats.completed ? 0 : 1;
}

int cmd_trace(const CliOptions& o) {
  const auto& entry = workloads::kernel_by_name(o.kernel);
  workloads::SyntheticTrace trace(
      workloads::SyntheticParams::from_kernel(entry, o.trace_ops));
  const auto stats = core::run_trace(o.cfg, trace);
  print_stats(o, stats, -1);
  return stats.completed ? 0 : 1;
}

int cmd_compare(const CliOptions& o) {
  const auto& entry = workloads::kernel_by_name(o.kernel);
  const auto built = entry.build();
  report::Table t({"scheme", "cycles", "CPI", "vs no-ECC"});
  u64 base = 0;
  for (const auto& key : runner::fig8_scheme_keys()) {
    core::SimConfig cfg = o.cfg;
    cfg.set_scheme(key);
    const auto s = core::run_program(cfg, built.program);
    if (key == "no-ecc") base = s.cycles;
    t.add_row({key, std::to_string(s.cycles),
               report::Table::num(s.cpi, 3),
               report::Table::pct(
                   base == 0 ? 0.0
                             : static_cast<double>(s.cycles) /
                                       static_cast<double>(base) -
                                   1.0)});
  }
  std::printf("%s", t.to_text().c_str());
  return 0;
}

/// The workload axis of a grid command: every kernel, or the named one
/// (resolved here, so an unknown name is refused before --out is opened).
std::vector<std::string> workload_axis(const CliOptions& o) {
  if (o.kernel.empty() || o.kernel == "all") {
    std::vector<std::string> all;
    for (const auto& k : workloads::eembc_kernels()) all.push_back(k.name);
    return all;
  }
  return {workloads::kernel_by_name(o.kernel).name};
}

int cmd_sweep(const CliOptions& o) {
  runner::SweepGrid grid;
  grid.workloads(workload_axis(o));
  if (!o.ecc_schemes.empty()) {
    grid.schemes(o.ecc_schemes);
  } else {
    grid.schemes(runner::fig8_scheme_keys());
  }
  // The hazard axis would otherwise overwrite a --hazard choice with its
  // default; sweep exactly the requested rule.
  grid.hazards({o.cfg.hazard_rule});
  grid.base_config(o.cfg)
      .mode(o.sweep_trace ? runner::RunMode::kTrace
                          : runner::RunMode::kProgram)
      .trace_ops(o.trace_ops);
  // Refuse bad machine flags before --out truncates anything.
  core::validate_config(o.cfg);

  OutputTarget target;
  if (!target.open(o)) return 2;

  runner::SweepOptions opts;
  opts.threads = o.threads;
  opts.shard_index = o.shard_index;
  opts.shard_count = o.shard_count;
  opts.base_seed = o.base_seed;
  opts.sink = target.writer.get();
  start_trace(o);
  const auto summary = runner::run_sweep(grid, opts);
  write_trace(o);

  std::fprintf(stderr,
               "sweep: %zu points, %llu cycles simulated, "
               "%zu self-check failures\n",
               summary.points_run,
               static_cast<unsigned long long>(
                   summary.totals.value("cycles")),
               summary.self_check_failures);
  if (const int rc = target.finish(); rc != 0) return rc;
  return summary.self_check_failures == 0 ? 0 : 1;
}

/// The campaign the CLI flags describe, as the job the daemon client
/// sends. The local campaign driver and the submit client share it, so both
/// run THE SAME campaign for the same flags (the byte-identity contract
/// depends on it), and it feeds the checkpoint identity hash, so a
/// checkpoint refuses to resume under any changed grid / spec / seed /
/// shard. nullopt after printing a diagnostic; throws
/// std::invalid_argument for a spec reliability::validate_spec refuses.
std::optional<service::CampaignJob> build_campaign_inputs(
    const CliOptions& o) {
  reliability::CampaignGrid grid;
  grid.workloads(workload_axis(o));
  if (!o.ecc_schemes.empty()) {
    grid.schemes(o.ecc_schemes);
  } else {
    grid.schemes({"laec", "sec-daec-39-32", "sec-daec-taec-45-32"});
  }

  // Rate axis: presets carry their own MBU mix, numeric rates default to
  // the 40nm mix — and an explicit --mbu table overrides BOTH (the
  // operator's storm shape always wins).
  const ecc::MbuPatternTable numeric_patterns =
      o.mbu.value_or(reliability::tech_preset("40nm")->patterns);
  std::vector<std::string> tokens = o.rate_tokens;
  if (tokens.empty()) tokens.push_back("40nm");
  std::vector<reliability::RatePoint> rates;
  for (const auto& tok : tokens) {
    auto r = reliability::parse_rate(tok, numeric_patterns);
    if (!r.has_value()) {
      std::fprintf(stderr,
                   "--rates: \"%s\" is neither a tech preset (65nm, 40nm, "
                   "28nm) nor a positive FIT/Mbit number\n",
                   tok.c_str());
      return std::nullopt;
    }
    if (o.mbu.has_value()) r->patterns = *o.mbu;
    rates.push_back(std::move(*r));
  }
  grid.rates(std::move(rates));

  service::CampaignJob job;
  job.spec = o.campaign;
  job.spec.base = o.cfg;
  job.spec.target = o.cfg.inject_target;
  reliability::validate_spec(job.spec);
  job.cells = grid.cells();
  job.base_seed = o.base_seed;
  job.shard_index = o.shard_index;
  job.shard_count = o.shard_count;
  return job;
}

int cmd_campaign(const CliOptions& o) {
  const auto job = build_campaign_inputs(o);
  if (!job.has_value()) return 2;

  const bool checkpointing = !o.checkpoint_path.empty();
  const u64 identity = service::campaign_identity(*job);
  std::vector<reliability::CellProgress> restored;
  reliability::CampaignOptions copts;
  copts.threads = o.threads;
  copts.shard_index = o.shard_index;
  copts.shard_count = o.shard_count;
  copts.base_seed = o.base_seed;

  if (checkpointing) {
    if (o.resume) {
      try {
        restored = service::load_checkpoint(o.checkpoint_path, identity);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "cannot resume from %s: %s\n",
                     o.checkpoint_path.c_str(), e.what());
        return 2;
      }
      copts.resume_from = &restored;
    } else if (std::filesystem::exists(o.checkpoint_path)) {
      std::fprintf(stderr,
                   "checkpoint %s already exists; pass --resume to "
                   "continue it or remove the file\n",
                   o.checkpoint_path.c_str());
      return 2;
    }
  }

  OutputTarget target;
  if (!target.open(o)) return 2;
  // One in-process path: run_campaign sees every round, so the
  // checkpoint cursors, heartbeat and graceful-stop hooks ride along.
  copts.sink = target.writer.get();
  install_stop_handlers();
  start_trace(o);
  unsigned rounds = 0;
  const auto start = std::chrono::steady_clock::now();
  auto last_beat = start;
  u64 last_done = 0;
  copts.on_round = [&](const std::vector<reliability::CellProgress>& p) {
    ++rounds;
    if (checkpointing) {
      service::save_checkpoint(o.checkpoint_path, identity, p);
    }
    if (o.progress) {
      const auto now = std::chrono::steady_clock::now();
      if (now - last_beat >= std::chrono::seconds(o.progress_secs) ||
          rounds == 1) {
        const double elapsed =
            std::chrono::duration<double>(now - start).count();
        // On the first beat last_beat == start, so the "window" spans
        // the whole run so far — still a measured rate, never stale.
        const double window =
            std::chrono::duration<double>(now - last_beat).count();
        last_done = print_heartbeat(elapsed, window, last_done);
        last_beat = now;
      }
    }
  };
  copts.should_stop = [&] {
    return g_stop_requested.load(std::memory_order_acquire) ||
           (o.stop_after_rounds != 0 && rounds >= o.stop_after_rounds);
  };

  const auto summary = reliability::run_campaign(job->cells, job->spec, copts);
  // Dump the flight recorder even for interrupted runs — a trace of the
  // rounds that DID happen is exactly what a post-mortem wants.
  write_trace(o);
  if (summary.interrupted) {
    if (checkpointing) {
      std::fprintf(stderr,
                   "campaign: interrupted after %u round(s); cursors "
                   "saved to %s — rerun with --resume to finish\n",
                   rounds, o.checkpoint_path.c_str());
    } else {
      std::fprintf(stderr,
                   "campaign: interrupted after %u round(s); no "
                   "--checkpoint given, progress was discarded\n",
                   rounds);
    }
    return 3;
  }
  if (const int rc = target.finish(); rc != 0) return rc;
  std::fprintf(stderr,
               "campaign: %zu cells, %llu trials, %llu failing trials "
               "(SDC + data-loss)\n",
               summary.cells_run,
               static_cast<unsigned long long>(summary.trials_run),
               static_cast<unsigned long long>(summary.failures));
  return 0;
}

int cmd_serve(const CliOptions& o) {
  if (o.socket_path.empty()) {
    std::fprintf(stderr, "serve needs --socket=PATH\n");
    return 2;
  }
  install_stop_handlers();
  start_trace(o);
  service::ServeOptions so;
  so.socket_path = o.socket_path;
  so.workers = o.serve_workers;
  so.stop = &g_stop_requested;
  const int rc = service::run_daemon(so);
  write_trace(o);
  return rc;
}

int cmd_status(const CliOptions& o) {
  if (o.socket_path.empty()) {
    std::fprintf(stderr, "status needs --socket=PATH\n");
    return 2;
  }
  const service::DaemonStatus s = service::request_status(o.socket_path);
  const auto ull = [](u64 v) { return static_cast<unsigned long long>(v); };
  const double up_secs = static_cast<double>(s.uptime_ms) / 1000.0;
  std::printf("daemon at %s: up %.1fs, %u worker thread(s)\n",
              o.socket_path.c_str(), up_secs, s.workers);
  std::printf("  queue depth %llu, in-flight cells %llu\n",
              ull(s.queue_depth), ull(s.inflight_cells));
  std::printf("  jobs: %llu accepted, %llu rejected\n",
              ull(s.jobs_accepted), ull(s.jobs_rejected));
  std::printf("  done: %llu cells, %llu trials, %llu rows streamed\n",
              ull(s.cells_done), ull(s.trials_done), ull(s.rows_streamed));
  if (!s.per_worker.empty()) {
    report::Table t({"worker", "cells", "trials", "trials/s"});
    for (std::size_t i = 0; i < s.per_worker.size(); ++i) {
      const auto& w = s.per_worker[i];
      const double rate =
          up_secs > 0.0 ? static_cast<double>(w.trials_done) / up_secs : 0.0;
      t.add_row({std::to_string(i), std::to_string(w.cells_done),
                 std::to_string(w.trials_done),
                 report::Table::num(rate, 1)});
    }
    std::printf("%s", t.to_text().c_str());
  }
  if (!s.metrics.empty()) {
    report::Table t({"metric", "kind", "value", "sum", "p50", "p99"});
    for (const auto& m : s.metrics) {
      const char* kind = m.kind == 2   ? "histogram"
                         : m.kind == 1 ? "gauge"
                                       : "counter";
      const bool hist = m.kind == 2;
      t.add_row({m.name, kind, std::to_string(m.value),
                 hist ? std::to_string(m.sum) : "-",
                 hist ? std::to_string(m.p50) : "-",
                 hist ? std::to_string(m.p99) : "-"});
    }
    std::printf("%s", t.to_text().c_str());
  }
  return 0;
}

int cmd_submit(const CliOptions& o) {
  if (o.socket_path.empty()) {
    std::fprintf(stderr, "submit needs --socket=PATH\n");
    return 2;
  }
  const auto job = build_campaign_inputs(o);
  if (!job.has_value()) return 2;

  // Reach the daemon before opening --out, so a refused connection
  // leaves an existing file as it was.
  service::DaemonConnection daemon(o.socket_path);
  OutputTarget target;
  if (!target.open(o)) return 2;
  const auto summary =
      service::submit_job(std::move(daemon), *job, *target.writer);
  if (const int rc = target.finish(); rc != 0) return rc;
  std::fprintf(stderr,
               "submit: %llu cells, %llu trials, %llu failing trials "
               "(SDC + data-loss)\n",
               static_cast<unsigned long long>(summary.cells_run),
               static_cast<unsigned long long>(summary.trials_run),
               static_cast<unsigned long long>(summary.failures));
  return 0;
}

int cmd_stop(const CliOptions& o) {
  if (o.socket_path.empty()) {
    std::fprintf(stderr, "stop needs --socket=PATH\n");
    return 2;
  }
  service::request_shutdown(o.socket_path);
  std::fprintf(stderr, "daemon at %s stopped\n", o.socket_path.c_str());
  return 0;
}

int cmd_cat(const CliOptions& o) {
  if (o.kernel.empty()) {
    std::fprintf(stderr, "cat wants a columnar file path\n");
    return 2;
  }
  std::ifstream in(o.kernel, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", o.kernel.c_str());
    return 2;
  }
  OutputTarget target;
  if (!target.open(o)) return 2;
  const u64 rows = service::read_columnar(in, *target.writer);
  if (const int rc = target.finish(); rc != 0) return rc;
  std::fprintf(stderr, "cat: %llu rows\n",
               static_cast<unsigned long long>(rows));
  return 0;
}

struct Command {
  const char* name;
  unsigned bit;
  const char* operand;  ///< positional argument in the usage text; "" = none
  int (*run)(const CliOptions&);
};

const Command kCommands[] = {
    {"list", kList, "", cmd_list},
    {"schemes", kSchemes, "", cmd_schemes},
    {"run", kRun, "KERNEL", cmd_run},
    {"trace", kTrace, "KERNEL", cmd_trace},
    {"compare", kCompare, "KERNEL", cmd_compare},
    {"sweep", kSweep, "[KERNEL]", cmd_sweep},
    {"campaign", kCampaign, "[KERNEL]", cmd_campaign},
    {"serve", kServe, "", cmd_serve},
    {"submit", kSubmit, "[KERNEL]", cmd_submit},
    {"status", kStatus, "", cmd_status},
    {"stop", kStop, "", cmd_stop},
    {"cat", kCat, "FILE", cmd_cat},
};

/// Print the commands, then every row of kFlags under a heading that names
/// the commands it applies to, with help wrapped at 80 columns.
void usage() {
  std::fprintf(stderr, "usage: laec_cli COMMAND [OPERAND] [FLAGS]\n");
  for (const Command& c : kCommands) {
    std::fprintf(stderr, "  laec_cli %s%s%s\n", c.name,
                 c.operand[0] == '\0' ? "" : " ", c.operand);
  }
  constexpr int kIndent = 27;  // help text starts one column later
  unsigned heading = 0;
  for (const Flag& f : kFlags) {
    if (f.commands != heading) {
      heading = f.commands;
      const char* sep = "\n";
      for (const Command& c : kCommands) {
        if ((c.bit & heading) == 0) continue;
        std::fprintf(stderr, "%s%s", sep, c.name);
        sep = ", ";
      }
      std::fprintf(stderr, ":\n");
    }
    std::string spelled = f.name;
    if (f.arg == Arg::kValue) spelled += std::string("=") + f.value;
    if (f.arg == Arg::kOptional) spelled += std::string("[=") + f.value + "]";
    std::fprintf(stderr, "  %-*s", kIndent - 2, spelled.c_str());
    int col = kIndent;
    const auto indent = [&] {
      std::fprintf(stderr, "\n%*s", kIndent, "");
      col = kIndent;
    };
    if (static_cast<int>(spelled.size()) > kIndent - 2) indent();
    std::istringstream words(f.help);
    for (std::string w; words >> w; col += 1 + static_cast<int>(w.size())) {
      if (col + 1 + static_cast<int>(w.size()) > 79) indent();
      std::fprintf(stderr, " %s", w.c_str());
    }
    std::fprintf(stderr, "\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Command* cmd = nullptr;
  for (const Command& c : kCommands) {
    if (argc > 1 && std::strcmp(argv[1], c.name) == 0) cmd = &c;
  }
  if (cmd == nullptr) {
    if (argc > 1) std::fprintf(stderr, "unknown command: %s\n", argv[1]);
    usage();
    return 2;
  }
  try {
    const auto o = parse(argc, argv, cmd->bit, cmd->operand[0] != '\0');
    if (!o.has_value()) {
      usage();
      return 2;
    }
    return cmd->run(*o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
