// Simulation state snapshots: the frame save_system_state/restore_system_state
// round-trips the COMPLETE deterministic state of a sim::System, and the
// budgeted SnapshotStore thins deterministically.
//
// The fast-forward contract (sim/snapshot.hpp) says a snapshot taken by the
// golden run at consultation ordinal C is bit-identical to the state of any
// trial whose first delivery is at or after C. These tests pin the two
// halves of that claim: (1) restoring a blob into a freshly-constructed
// system and re-serializing reproduces the blob byte for byte — restore
// loses nothing save captured; (2) resuming from EVERY captured snapshot
// and running the suffix fault-free lands on exactly the golden run's final
// stats and architectural memory — save captures everything the suffix
// depends on. Blobs list only the cache ways a run has filled, so restore
// must reset the rest, whatever ran before it. Corrupt, truncated,
// version-skewed, geometry-mismatched and malformed sparse blobs must be
// rejected loudly.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/simulator.hpp"
#include "ecc/injector.hpp"
#include "mem/residency.hpp"
#include "obs/metrics.hpp"
#include "runner/sweep_runner.hpp"
#include "service/wire.hpp"
#include "sim/snapshot.hpp"
#include "sim/system.hpp"
#include "workloads/eembc.hpp"
#include "workloads/synthetic.hpp"

namespace laec::sim {
namespace {

core::SimConfig config_for(const std::string& scheme) {
  core::SimConfig cfg;
  cfg.set_scheme(scheme);
  cfg.dl1_size_bytes = 2 * 1024;
  return cfg;
}

struct Golden {
  core::SimConfig cfg;
  runner::PointResult result;
  std::unique_ptr<SnapshotStore> store;
};

/// One fault-free golden run of `workload` under `scheme`, capturing
/// snapshots every `every` injector consultations into a store of
/// `budget_bytes` (0 = unlimited).
Golden make_golden(const std::string& workload, const std::string& scheme,
                   u64 every, u64 budget_bytes = 0) {
  Golden g;
  g.cfg = config_for(scheme);
  g.store = std::make_unique<SnapshotStore>(every, budget_bytes);
  runner::SweepPoint p;
  p.workload = workload;
  p.config = g.cfg;
  p.mode = runner::RunMode::kProgram;
  mem::ResidencyRecorder rec;
  g.result = runner::run_golden_point(p, 0x1aec, &rec, g.store.get());
  return g;
}

/// The fast-forward soundness claim for every surviving snapshot of `g`:
/// restore at ordinal C, attach a replay injector with an EMPTY schedule
/// (the fault-free trial), run the suffix — final stats and every
/// architecturally-final word must equal the golden run's.
void expect_every_snapshot_resumes_to_golden(const Golden& g,
                                             const std::string& workload) {
  core::SimConfig replay = g.cfg;
  ecc::InjectorConfig inj;
  inj.schedule = std::make_shared<ecc::TrialSchedule>();
  replay.faults = inj;

  const auto& built = workloads::kernel_by_name(workload).build();
  for (const auto& e : g.store->entries()) {
    auto r = core::run_program_resume(replay, *e->blob, e->ordinal);
    ASSERT_TRUE(r.stats.completed) << "ordinal " << e->ordinal;
    EXPECT_EQ(r.stats.cycles, g.result.stats.cycles) << e->ordinal;
    EXPECT_EQ(r.stats.instructions, g.result.stats.instructions) << e->ordinal;
    EXPECT_EQ(r.stats.loads, g.result.stats.loads) << e->ordinal;
    EXPECT_EQ(r.stats.load_hits, g.result.stats.load_hits) << e->ordinal;
    EXPECT_EQ(r.stats.bus_transactions, g.result.stats.bus_transactions)
        << e->ordinal;
    for (const auto& [addr, expect] : built.expected) {
      ASSERT_EQ(r.system->read_word_final(addr), expect)
          << "ordinal " << e->ordinal << " addr " << addr;
    }
  }
}

// Frame layout: 8-byte magic, u32 version, u64 checksum, payload.
constexpr std::size_t kChecksumAt = 12;
constexpr std::size_t kPayloadAt = 20;

u32 get_u32_at(const std::string& s, std::size_t pos) {
  service::ByteReader r(std::string_view(s).substr(pos, 4));
  return r.get_u32();
}

void put_le(std::string& s, std::size_t pos, u64 v, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    s[pos + i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

/// Re-seal a patched blob so it passes the frame checks.
void reseal(std::string& blob) {
  put_le(blob, kChecksumAt,
         snapshot_checksum(std::string_view(blob).substr(kPayloadAt)), 8);
}

// ------------------------------------------------------------- tier 1 ----

TEST(Snapshot, RestoreReserializesByteIdenticalPerHierarchyKey) {
  // Restore into a system that never ran a cycle, then re-save: the bytes
  // must reproduce the blob exactly. Anything restore fails to apply (or
  // save fails to capture symmetrically) shows up as a byte diff. One
  // representative key per deployment shape: the paper's policy, a plain
  // codec, a wider codec, and a compound per-level hierarchy key.
  for (const std::string scheme :
       {"laec", "secded-39-32", "sec-daec-39-32", "laec+l2:sec-daec-39-32"}) {
    const Golden g = make_golden("puwmod", scheme, 2048);
    ASSERT_TRUE(g.result.stats.completed) << scheme;
    ASSERT_GE(g.store->size(), 2u) << scheme;
    for (const auto& e : g.store->entries()) {
      System fresh(core::make_system_config(g.cfg, /*trace_mode=*/false));
      restore_system_state(fresh, *e->blob);
      EXPECT_EQ(save_system_state(fresh), *e->blob)
          << scheme << " @ ordinal " << e->ordinal;
    }
  }
}

TEST(Snapshot, GoldenCaptureIsDeterministic) {
  const Golden a = make_golden("puwmod", "laec", 2048);
  const Golden b = make_golden("puwmod", "laec", 2048);
  ASSERT_EQ(a.store->size(), b.store->size());
  ASSERT_GE(a.store->size(), 2u);
  for (std::size_t i = 0; i < a.store->size(); ++i) {
    const auto& x = *a.store->entries()[i];
    const auto& y = *b.store->entries()[i];
    EXPECT_EQ(x.ordinal, y.ordinal) << i;
    EXPECT_EQ(x.cycle, y.cycle) << i;
    EXPECT_EQ(*x.blob, *y.blob) << i;
  }
}

TEST(Snapshot, ResumeFromEverySnapshotMatchesGoldenCompletion) {
  // A single field missing from the frame diverges here.
  const Golden g = make_golden("puwmod", "laec", 2048);
  ASSERT_TRUE(g.result.stats.completed);
  ASSERT_GE(g.store->size(), 2u);
  expect_every_snapshot_resumes_to_golden(g, "puwmod");
}

TEST(Snapshot, ByteCountersAddUpTheBlobs) {
  // snapshot.bytes_captured / bytes_restored count exactly the blob bytes
  // golden runs serialize and trials read back.
  auto& reg = obs::Registry::global();
  obs::Counter& captured = reg.counter("snapshot.bytes_captured");
  obs::Counter& restored = reg.counter("snapshot.bytes_restored");
  const u64 captured0 = captured.value();
  const Golden g = make_golden("puwmod", "laec", 2048);
  ASSERT_GE(g.store->size(), 2u);
  EXPECT_EQ(captured.value() - captured0, g.store->bytes());

  const u64 restored0 = restored.value();
  const auto& e = *g.store->entries().back();
  (void)core::run_program_resume(g.cfg, *e.blob, e.ordinal);
  EXPECT_EQ(restored.value() - restored0, e.blob->size());
}

TEST(Snapshot, RestoreOverADifferentRunReserializesTheBlob) {
  // A blob lists only the ways its run filled, so restore must return
  // every other way to its constructor state. Restore over a system that
  // has run a different kernel to completion: a way that kernel filled and
  // the blob does not list would survive a missing reset and show up in
  // the re-saved bytes.
  const Golden g = make_golden("puwmod", "laec", 2048);
  ASSERT_GE(g.store->size(), 2u);
  const auto& other = workloads::kernel_by_name("rspeed").build();
  for (const auto& e : g.store->entries()) {
    auto ran = core::run_program_keep_system(g.cfg, other.program);
    ASSERT_TRUE(ran.stats.completed);
    restore_system_state(*ran.system, *e->blob);
    EXPECT_EQ(save_system_state(*ran.system), *e->blob)
        << "ordinal " << e->ordinal;
  }
}

TEST(Snapshot, BlobsHoldOnlyFilledWays) {
  // A 2 KB-DL1 kernel fills a few hundred of the L2's ways. Writing every
  // way would put the whole L2 array (words and check bits) in each blob;
  // every blob must stay under half of that array alone.
  const Golden g = make_golden("puwmod", "laec", 2048);
  ASSERT_GE(g.store->size(), 2u);
  System sys(core::make_system_config(g.cfg, /*trace_mode=*/false));
  const mem::CacheConfig& l2 = sys.memsys().l2().config();
  const u64 l2_array = u64{l2.num_sets()} * l2.ways *
                       (l2.line_bytes + l2.line_bytes / 4 * sizeof(u16));
  for (const auto& e : g.store->entries()) {
    EXPECT_LT(e->blob->size(), l2_array / 2) << "ordinal " << e->ordinal;
  }
}

TEST(Snapshot, HostileSparseWayListsAreRejected) {
  // Patch the L2's way list inside a valid blob and re-seal the checksum,
  // so restore gets past the frame checks to the structural ones. Each
  // patch must raise WireError naming the cache and the fault, never read
  // out of range.
  const Golden g = make_golden("puwmod", "laec", 4096);
  ASSERT_GE(g.store->size(), 1u);
  const std::string good = *g.store->entries().back()->blob;
  const auto fresh = [&] {
    return System(core::make_system_config(g.cfg, /*trace_mode=*/false));
  };

  // Locate the L2 section: re-save the restored L2 on its own and find
  // those bytes in the blob (they occur exactly once).
  System probe = fresh();
  restore_system_state(probe, good);
  const mem::SetAssocCache& l2 = probe.memsys().l2();
  service::ByteWriter own;
  l2.save_state(own);
  const std::size_t at = good.find(own.bytes());
  ASSERT_NE(at, std::string::npos);
  ASSERT_EQ(good.find(own.bytes(), at + 1), std::string::npos);

  // Section layout: u64 LRU clock, u32 way count, u32 listed count, then
  // per listed way: u32 index, u8 valid, u8 dirty, u32 tag, u64 stamp,
  // the words and the check bits.
  const std::size_t live_at = at + 12;
  const std::size_t first = at + 16;
  const std::size_t entry = 18 + l2.line_bytes() / 4 * (4 + 2);
  const u32 n = get_u32_at(good, at + 8);
  ASSERT_GE(get_u32_at(good, live_at), 2u);
  const u32 first_index = get_u32_at(good, first);
  const u32 second_index = get_u32_at(good, first + entry);
  ASSERT_LT(first_index, second_index);
  ASSERT_LT(second_index + 1, n);

  const auto expect_rejected = [&](const std::string& reason,
                                   std::size_t pos, u64 value, int bytes) {
    std::string bad = good;
    put_le(bad, pos, value, bytes);
    reseal(bad);
    auto s = fresh();
    try {
      restore_system_state(s, bad);
      ADD_FAILURE() << "accepted; wanted: " << reason;
    } catch (const service::WireError& err) {
      const std::string what = err.what();
      EXPECT_NE(what.find(l2.config().name), std::string::npos) << what;
      EXPECT_NE(what.find(reason), std::string::npos) << what;
    }
  };
  // Listed count above the way count.
  expect_rejected("filled ways of", live_at, n + 1, 4);
  // Index past the way count.
  expect_rejected("out of range", first, n, 4);
  // A repeated index, then a descending one.
  expect_rejected("not strictly ascending", first + entry, first_index, 4);
  expect_rejected("not strictly ascending", first, second_index + 1, 4);
  // A listed way that claims it was never filled.
  expect_rejected("stamp 0", first + 10, 0, 8);

  // The unpatched, re-sealed blob still restores: the patches alone fail.
  std::string same = good;
  reseal(same);
  auto s = fresh();
  restore_system_state(s, same);
  EXPECT_EQ(save_system_state(s), good);
}

TEST(Snapshot, BudgetThinningKeepsResumableSurvivors) {
  // Keep-every-k thinning on a real golden run. A budget of three first
  // blobs must force the stride past 1; every survivor must be the very
  // capture an unlimited store holds at its sequence number, and must
  // still resume to the golden completion.
  const Golden full = make_golden("puwmod", "laec", 512);
  ASSERT_GE(full.store->size(), 8u);
  ASSERT_EQ(full.store->stride(), 1u);
  const u64 budget = 3 * full.store->entries().front()->blob->size();
  const Golden g = make_golden("puwmod", "laec", 512, budget);
  EXPECT_GT(g.store->stride(), 1u);
  ASSERT_GE(g.store->size(), 2u);
  EXPECT_LE(g.store->bytes(), budget);
  for (const auto& e : g.store->entries()) {
    EXPECT_EQ(e->seq % g.store->stride(), 0u);
    ASSERT_LT(e->seq, full.store->size());
    const auto& same = *full.store->entries()[e->seq];
    EXPECT_EQ(e->ordinal, same.ordinal);
    EXPECT_EQ(*e->blob, *same.blob) << "seq " << e->seq;
  }
  expect_every_snapshot_resumes_to_golden(g, "puwmod");
}

TEST(Snapshot, TraceDrivenSystemRoundTrips) {
  // The synthetic-trace workload class: tick a trace-mode system mid-run,
  // save, restore into a fresh system, re-save — byte-identical. (The trace
  // source itself is external to the system and not part of the frame.)
  core::SimConfig cfg = config_for("laec");
  workloads::SyntheticParams params;
  params.num_ops = 50'000;
  workloads::SyntheticTrace trace(params);
  System sys(core::make_system_config(cfg, /*trace_mode=*/true), &trace);
  for (int i = 0; i < 5'000; ++i) sys.tick();
  const std::string blob = save_system_state(sys);

  workloads::SyntheticTrace unused(params);
  System fresh(core::make_system_config(cfg, /*trace_mode=*/true), &unused);
  restore_system_state(fresh, blob);
  EXPECT_EQ(save_system_state(fresh), blob);
}

TEST(Snapshot, CorruptAndSkewedBlobsAreRejected) {
  const Golden g = make_golden("puwmod", "laec", 4096);
  ASSERT_GE(g.store->size(), 1u);
  const std::string good = *g.store->entries().front()->blob;
  const auto fresh = [&] {
    return System(core::make_system_config(g.cfg, /*trace_mode=*/false));
  };

  {  // bad magic
    std::string bad = good;
    bad[0] ^= 0x40;
    auto s = fresh();
    EXPECT_THROW(restore_system_state(s, bad), service::WireError);
  }
  {  // version skew (version field sits right after the 8-byte magic)
    std::string bad = good;
    bad[8] ^= 0x01;
    auto s = fresh();
    try {
      restore_system_state(s, bad);
      FAIL() << "version-skewed blob accepted";
    } catch (const service::WireError& err) {
      EXPECT_NE(std::string(err.what()).find("version"), std::string::npos);
    }
  }
  {  // payload corruption caught by the checksum
    std::string bad = good;
    bad[bad.size() / 2] ^= 0x10;
    auto s = fresh();
    try {
      restore_system_state(s, bad);
      FAIL() << "corrupt blob accepted";
    } catch (const service::WireError& err) {
      EXPECT_NE(std::string(err.what()).find("checksum"), std::string::npos);
    }
  }
  {  // truncation
    auto s = fresh();
    EXPECT_THROW(restore_system_state(s, std::string_view(good).substr(0, 16)),
                 service::WireError);
  }
}

TEST(Snapshot, GeometryMismatchIsRejected) {
  const Golden g = make_golden("puwmod", "laec", 4096);
  ASSERT_GE(g.store->size(), 1u);
  core::SimConfig other = g.cfg;
  other.dl1_size_bytes = 4 * 1024;
  System sys(core::make_system_config(other, /*trace_mode=*/false));
  EXPECT_THROW(restore_system_state(sys, *g.store->entries().front()->blob),
               service::WireError);
}

TEST(Snapshot, StoreThinsDeterministicallyUnderBudget) {
  // 300-byte blobs under a 1000-byte budget: the keep stride must double
  // exactly when the budget would overflow, survivors are the on-stride
  // capture sequence, and the surviving set depends only on that sequence.
  const auto build = [] {
    SnapshotStore s(/*every=*/1, /*budget_bytes=*/1000);
    u64 ordinal = 3;
    for (int i = 0; i < 8; ++i) {
      if (s.begin_capture()) {
        s.add(ordinal, ordinal * 10, std::string(300, 'x'));
      }
      ordinal += 5;
    }
    return s;
  };
  const SnapshotStore s = build();
  EXPECT_EQ(s.size(), 2u);
  EXPECT_EQ(s.stride(), 4u);
  EXPECT_EQ(s.bytes(), 600u);
  ASSERT_EQ(s.entries().size(), 2u);
  EXPECT_EQ(s.entries()[0]->ordinal, 3u);   // capture seq 0
  EXPECT_EQ(s.entries()[1]->ordinal, 23u);  // capture seq 4

  EXPECT_EQ(s.best_at_or_before(2), nullptr);
  EXPECT_EQ(s.best_at_or_before(3)->ordinal, 3u);
  EXPECT_EQ(s.best_at_or_before(22)->ordinal, 3u);
  EXPECT_EQ(s.best_at_or_before(23)->ordinal, 23u);
  EXPECT_EQ(s.best_at_or_before(~u64{0})->ordinal, 23u);

  // Determinism: an identical capture sequence reproduces the store.
  const SnapshotStore t = build();
  ASSERT_EQ(t.size(), s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    EXPECT_EQ(t.entries()[i]->ordinal, s.entries()[i]->ordinal);
  }
}

}  // namespace
}  // namespace laec::sim
