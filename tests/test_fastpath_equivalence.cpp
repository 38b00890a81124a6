// Fast-path / slow-path equivalence suite.
//
// The hot-path refactor split every cache word read into a devirtualized
// clean-hit fast test and a cold generic decode path. The refactor's
// contract is observational invisibility: for ANY deployment and ANY fault
// pattern, routing every read through the generic path
// (SimConfig::force_generic_ecc_path) must produce bit-identical results —
// same cycles, same ECC event counts, same CSV row, same self-check
// verdict. This suite runs representative kernels under every registered
// 32-bit codec with fault injection enabled and asserts exactly that.
//
// The same contract covers HOW a cache decodes: a codec with a syndrome
// LUT decodes through the table, one without through Codec::decode(). A
// LUT-less twin of every codec, registered here, keeps that matrix branch
// under whole-simulation test.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <utility>

#include "ecc/registry.hpp"
#include "runner/sweep_runner.hpp"

namespace laec {
namespace {

/// Registry-key prefix of the LUT-less twins (kept out of the codec list).
constexpr std::string_view kTwinPrefix = "nolut-";

/// Deployable codec keys, deduplicated by canonical codec name (the legacy
/// aliases construct the same instances).
std::vector<std::string> deployable_codec_keys() {
  std::vector<std::string> keys;
  std::set<std::string> seen;
  for (const auto& key : ecc::registered_codecs()) {
    if (key.rfind(kTwinPrefix, 0) == 0) continue;
    const auto codec = ecc::make_codec(key);
    if (codec->data_bits() != 32) continue;
    if (!seen.insert(std::string(codec->name())).second) continue;
    keys.push_back(key);
  }
  return keys;
}

/// The storm every point runs under: singles and adjacent doubles at rates
/// high enough to exercise correction, scrubbing and refetch recovery.
core::SimConfig injected_config() {
  core::SimConfig cfg;
  cfg.faults.emplace();
  cfg.faults->single_flip_prob = 0.002;
  cfg.faults->double_flip_prob = 0.001;
  cfg.faults->adjacent_doubles = true;
  return cfg;
}

std::vector<runner::SweepPoint> equivalence_points(bool force_generic) {
  core::SimConfig cfg = injected_config();
  cfg.force_generic_ecc_path = force_generic;
  runner::SweepGrid grid;
  grid.workloads({"tblook", "matrix"})
      .schemes(deployable_codec_keys())
      .base_config(cfg);
  return grid.points();
}

TEST(FastPathEquivalence, EveryCodecUnderInjectionMatchesGenericPath) {
  runner::SweepOptions opts;
  opts.threads = 1;
  const auto fast = runner::run_sweep(equivalence_points(false), opts);
  const auto slow = runner::run_sweep(equivalence_points(true), opts);

  ASSERT_EQ(fast.results.size(), slow.results.size());
  ASSERT_GT(fast.results.size(), 0u);

  u64 ecc_events = 0;
  for (std::size_t i = 0; i < fast.results.size(); ++i) {
    const auto& f = fast.results[i];
    const auto& s = slow.results[i];
    // The rendered CSV row covers scheme, cycles, CPI and every retained
    // per-level ECC counter — the exact observable surface of a sweep.
    EXPECT_EQ(runner::to_row(f), runner::to_row(s))
        << "row " << i << " (" << f.point.workload << " / "
        << f.point.config.deployment.name << ")";
    EXPECT_EQ(f.self_check_ok, s.self_check_ok) << "row " << i;
    ecc_events += f.stats.ecc_corrected + f.stats.ecc_detected_uncorrectable +
                  f.stats.parity_refetches;
  }
  // The storm must actually have exercised the slow path, or this suite
  // proves nothing.
  EXPECT_GT(ecc_events, 0u);

  // Batched totals agree too (every counter, not just the row columns).
  EXPECT_EQ(fast.totals.items(), slow.totals.items());
}

/// A codec without its syndrome table: forwards encode, decode, geometry
/// and capabilities to `inner` but offers no decode_lut(), so a cache
/// deploying it decodes every word through the matrix-math decode().
class LutlessCodec final : public ecc::Codec {
 public:
  LutlessCodec(std::shared_ptr<const ecc::Codec> inner, std::string name)
      : inner_(std::move(inner)), name_(std::move(name)) {}
  [[nodiscard]] std::string_view name() const override { return name_; }
  [[nodiscard]] unsigned data_bits() const override {
    return inner_->data_bits();
  }
  [[nodiscard]] unsigned check_bits() const override {
    return inner_->check_bits();
  }
  [[nodiscard]] u64 encode(u64 data) const override {
    return inner_->encode(data);
  }
  [[nodiscard]] Decoded decode(u64 data, u64 check) const override {
    return inner_->decode(data, check);
  }
  [[nodiscard]] bool corrects_single() const override {
    return inner_->corrects_single();
  }
  [[nodiscard]] bool detects_double() const override {
    return inner_->detects_double();
  }
  [[nodiscard]] bool corrects_adjacent_double() const override {
    return inner_->corrects_adjacent_double();
  }
  [[nodiscard]] bool detects_adjacent_double() const override {
    return inner_->detects_adjacent_double();
  }
  [[nodiscard]] bool corrects_adjacent_triple() const override {
    return inner_->corrects_adjacent_triple();
  }
  [[nodiscard]] bool corrects_double() const override {
    return inner_->corrects_double();
  }

 private:
  std::shared_ptr<const ecc::Codec> inner_;
  std::string name_;
};

/// Register "nolut-<key>" for every deployable codec (once per process) and
/// return the twin keys, in deployable_codec_keys() order.
const std::vector<std::string>& lutless_twin_keys() {
  static const std::vector<std::string> kTwins = [] {
    std::vector<std::string> twins;
    for (const auto& key : deployable_codec_keys()) {
      std::string twin = std::string(kTwinPrefix) + key;
      std::shared_ptr<const ecc::Codec> inner = ecc::make_codec(key);
      ecc::register_codec(twin, [inner, twin] {
        return std::make_shared<LutlessCodec>(inner, twin);
      });
      twins.push_back(std::move(twin));
    }
    return twins;
  }();
  return kTwins;
}

/// A row with the scheme-name columns blanked: a twin's row names its twin
/// key where the original names the codec key, and must match elsewhere.
std::vector<std::string> row_without_scheme_names(
    const runner::PointResult& r) {
  std::vector<std::string> row = runner::to_row(r);
  const auto& headers = runner::row_headers();
  for (const char* column : {"ecc", "codec_dl1"}) {
    const auto at = std::find(headers.begin(), headers.end(), column);
    row.at(static_cast<std::size_t>(at - headers.begin())).clear();
  }
  return row;
}

TEST(FastPathEquivalence, LutDecodeMatchesMatrixDecodeUnderInjection) {
  // Decoding through a codec's syndrome LUT must be observationally
  // invisible exactly like the fast/generic routing: every codec against
  // its LUT-less twin, injection on, rows and totals identical. The twins
  // run through BOTH routings, so the decode branch is proven orthogonal
  // to force_generic_ecc_path.
  const auto& twins = lutless_twin_keys();
  ASSERT_EQ(twins.size(), deployable_codec_keys().size());
  for (const auto& twin : twins) {
    ASSERT_EQ(ecc::make_codec(twin)->decode_lut(), nullptr) << twin;
  }
  const auto twin_points = [&twins](bool force_generic) {
    core::SimConfig cfg = injected_config();
    cfg.force_generic_ecc_path = force_generic;
    runner::SweepGrid grid;
    grid.workloads({"tblook", "matrix"}).schemes(twins).base_config(cfg);
    return grid.points();
  };
  runner::SweepOptions opts;
  opts.threads = 1;
  const auto lut = runner::run_sweep(equivalence_points(false), opts);
  const auto mat = runner::run_sweep(twin_points(false), opts);
  const auto mat_generic = runner::run_sweep(twin_points(true), opts);

  ASSERT_EQ(lut.results.size(), mat.results.size());
  ASSERT_EQ(lut.results.size(), mat_generic.results.size());
  ASSERT_GT(lut.results.size(), 0u);
  u64 ecc_events = 0;
  for (std::size_t i = 0; i < lut.results.size(); ++i) {
    const auto& l = lut.results[i];
    const auto row = row_without_scheme_names(l);
    EXPECT_EQ(row, row_without_scheme_names(mat.results[i]))
        << "row " << i << " (" << l.point.workload << " / "
        << l.point.config.deployment.name << ")";
    EXPECT_EQ(row, row_without_scheme_names(mat_generic.results[i]))
        << "row " << i << " (generic matrix)";
    EXPECT_EQ(l.self_check_ok, mat.results[i].self_check_ok) << "row " << i;
    ecc_events += l.stats.ecc_corrected + l.stats.ecc_detected_uncorrectable +
                  l.stats.parity_refetches;
  }
  EXPECT_GT(ecc_events, 0u);
  EXPECT_EQ(lut.totals.items(), mat.totals.items());
  EXPECT_EQ(lut.totals.items(), mat_generic.totals.items());
}

TEST(FastPathEquivalence, CleanRunMatchesGenericPath) {
  // No injector at all: the pure fast path against the pure generic path.
  runner::SweepGrid fast_grid, slow_grid;
  core::SimConfig slow_cfg;
  slow_cfg.force_generic_ecc_path = true;
  fast_grid.workloads({"matrix"}).schemes(runner::fig8_scheme_keys());
  slow_grid.workloads({"matrix"})
      .schemes(runner::fig8_scheme_keys())
      .base_config(slow_cfg);
  runner::SweepOptions opts;
  opts.threads = 1;
  const auto fast = runner::run_sweep(fast_grid.points(), opts);
  const auto slow = runner::run_sweep(slow_grid.points(), opts);
  ASSERT_EQ(fast.results.size(), slow.results.size());
  for (std::size_t i = 0; i < fast.results.size(); ++i) {
    EXPECT_EQ(runner::to_row(fast.results[i]), runner::to_row(slow.results[i]))
        << "row " << i;
  }
  EXPECT_EQ(fast.totals.items(), slow.totals.items());
}

}  // namespace
}  // namespace laec
