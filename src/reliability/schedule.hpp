// Pass 2 of the two-pass campaign accelerator: pre-draw a trial's whole
// Poisson fault storm over the golden run's recorded exposure windows,
// without simulating anything.
//
// Soundness: a campaign cell's trials all execute the identical trace (the
// replicate index mixes only into the fault seed), so the golden run's
// per-word exposure windows — and the injector-consultation ordinal of each
// live window — are exact for every trial. Walking the windows in recorded
// order with the trial's own RNG reproduces, event for event, the storm the
// trial would draw: each window suffers >= 1 upset with probability
// 1 - exp(-lambda_w), lambda_w = rate * bits * accel * gap_cycles; live
// windows (closed by a read) draw their events' MBU shapes and deliver them
// at that read; dead windows (closed by a write / eviction / end of run)
// only count their events — they are architecturally masked, no read can
// ever observe them. A trial whose storm has NO live delivery is therefore
// provably masked end to end and needs no simulation; anything else is
// replayed through the full simulator with the pre-drawn schedule, so the
// classification (and every CSV byte) is identical with pruning on or off.
#pragma once

#include <vector>

#include "ecc/injector.hpp"
#include "mem/residency.hpp"
#include "reliability/campaign.hpp"

namespace laec::reliability {

/// Accelerated Poisson mean per cycle of exposure for one codeword:
/// multiply by a window's gap_cycles to get that window's event rate.
/// FIT/Mbit -> upsets per bit-hour, scaled by the codeword width and
/// spec.accel, over spec.freq_mhz cycles per microsecond.
[[nodiscard]] double window_lambda_scale(const CampaignSpec& spec,
                                         double fit_per_mbit,
                                         unsigned codeword_bits);

/// Draw one trial's storm over `windows` (in recorded order) from a fresh
/// Rng(seed). Deterministic: depends only on the arguments.
[[nodiscard]] ecc::TrialSchedule draw_trial_schedule(
    const std::vector<mem::AccessWindow>& windows, double lambda_scale,
    const ecc::MbuPatternTable& patterns, unsigned word_bits, u64 seed);

}  // namespace laec::reliability
