#include "core/deployment.hpp"

#include <optional>
#include <stdexcept>

#include "ecc/registry.hpp"

namespace laec::core {

namespace {

using mem::RecoveryPolicy;

/// The cache arrays protect 32-bit words; a 64-bit-word codec cannot be
/// deployed in any of them (Debug builds would hit the cache's geometry
/// assert, Release builds would silently truncate check bits). Unknown
/// names throw std::invalid_argument naming the known codecs — the
/// exception type parse() documents for every malformed key.
/// Comma-join for the "known choices" error diagnostics.
std::string join_keys(const std::vector<std::string>& keys) {
  std::string out;
  for (const auto& k : keys) {
    out += out.empty() ? "" : ", ";
    out += k;
  }
  return out;
}

std::string known_codecs() { return join_keys(ecc::registered_codecs()); }

/// Split on a delimiter, keeping empty segments (they become diagnostics
/// downstream). Shared by the '+' compound-key and ':' segment grammars.
std::vector<std::string_view> split(std::string_view s, char delim) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  while (true) {
    const auto pos = s.find(delim, start);
    out.push_back(s.substr(
        start, pos == std::string_view::npos ? s.size() - start
                                             : pos - start));
    if (pos == std::string_view::npos) break;
    start = pos + 1;
  }
  return out;
}

std::shared_ptr<const ecc::Codec> level_codec(std::string_view key,
                                              std::string_view level) {
  if (!ecc::codec_registered(key)) {
    throw std::invalid_argument("unknown codec \"" + std::string(key) +
                                "\" for the " + std::string(level) +
                                " (known: " + known_codecs() + ")");
  }
  auto codec = ecc::make_codec(key);
  if (codec->data_bits() != 32) {
    throw std::invalid_argument(
        "codec \"" + std::string(key) + "\" protects " +
        std::to_string(codec->data_bits()) + "-bit words; the " +
        std::string(level) + " arrays use 32-bit word granularity");
  }
  return codec;
}

/// Scrub/recovery defaults implied by a codec's capabilities: correcting
/// codes scrub and correct in place, detect-only codes can only refetch.
void apply_derived_defaults(const ecc::Codec& codec, bool& scrub,
                            RecoveryPolicy& recovery) {
  scrub = codec.corrects_single();
  recovery = codec.corrects_single() ? RecoveryPolicy::kCorrectInPlace
                                     : RecoveryPolicy::kInvalidateRefetch;
}

/// Per-segment option flags (":scrub", ":no-scrub", ":correct", ":refetch").
struct SegmentFlags {
  std::optional<bool> scrub;
  std::optional<RecoveryPolicy> recovery;
};

bool is_flag_token(std::string_view tok) {
  return tok == "scrub" || tok == "no-scrub" || tok == "correct" ||
         tok == "refetch";
}

/// Split `segment` on ':' and peel trailing flag tokens into `flags`.
/// Returns the remaining (base) tokens.
std::vector<std::string_view> split_base_and_flags(std::string_view segment,
                                                   SegmentFlags& flags) {
  std::vector<std::string_view> tokens = split(segment, ':');
  while (tokens.size() > 1 && is_flag_token(tokens.back())) {
    const std::string_view tok = tokens.back();
    tokens.pop_back();
    // The peel runs back to front, so a slot that is already set means two
    // flags of the same kind — reject instead of silently picking one.
    if (tok == "scrub" || tok == "no-scrub") {
      if (flags.scrub.has_value()) {
        throw std::invalid_argument(
            "conflicting scrub flags in ECC scheme segment \"" +
            std::string(segment) + "\"");
      }
      flags.scrub = tok == "scrub";
    } else {
      if (flags.recovery.has_value()) {
        throw std::invalid_argument(
            "conflicting recovery flags in ECC scheme segment \"" +
            std::string(segment) + "\"");
      }
      flags.recovery = tok == "correct" ? RecoveryPolicy::kCorrectInPlace
                                        : RecoveryPolicy::kInvalidateRefetch;
    }
  }
  return tokens;
}

void apply_flags(const SegmentFlags& flags, std::string_view codec_key,
                 const ecc::Codec& codec, bool& scrub,
                 RecoveryPolicy& recovery) {
  if (flags.scrub.has_value()) scrub = *flags.scrub;
  if (flags.recovery.has_value()) recovery = *flags.recovery;
  if (recovery == RecoveryPolicy::kCorrectInPlace &&
      codec.check_bits() > 0 && !codec.corrects_single()) {
    throw std::invalid_argument(
        "recovery \"correct\" needs a correcting codec; \"" +
        std::string(codec_key) + "\" only detects");
  }
}

/// The canonical deployment behind one of the paper's five policies.
HierarchyDeployment from_policy(cpu::EccPolicy p) {
  HierarchyDeployment d;
  d.name = std::string(to_string(p));
  d.dl1_key = d.name;
  d.timing = p;
  switch (p) {
    case cpu::EccPolicy::kNoEcc:
      d.codec = "none";
      break;
    case cpu::EccPolicy::kExtraCycle:
    case cpu::EccPolicy::kExtraStage:
    case cpu::EccPolicy::kLaec:
      d.codec = "secded-39-32";
      break;
    case cpu::EccPolicy::kWtParity:
      d.codec = "parity-32";
      d.write_policy = mem::WritePolicy::kWriteThrough;
      d.alloc_policy = mem::AllocPolicy::kNoWriteAllocate;
      break;
  }
  apply_derived_defaults(*ecc::make_codec(d.codec), d.scrub_on_correct,
                         d.recovery);
  return d;
}

/// Deployment for a bare DL1 codec key: correcting codecs ride the write-
/// back DL1 under the LAEC placement (the paper's proposal, and the fair
/// apples-to-apples slot for codec-vs-codec comparisons); detect-only
/// codecs can only recover by refetch, so they get the classic write-
/// through arrangement; "none" is the unprotected baseline.
HierarchyDeployment for_codec(std::string_view key) {
  const auto codec = level_codec(key, "DL1");
  HierarchyDeployment d;
  d.name = std::string(key);
  d.dl1_key = std::string(key);
  d.codec = std::string(key);
  apply_derived_defaults(*codec, d.scrub_on_correct, d.recovery);
  if (codec->check_bits() == 0) {
    d.timing = cpu::EccPolicy::kNoEcc;
  } else if (codec->corrects_single()) {
    d.timing = cpu::EccPolicy::kLaec;
  } else {
    d.timing = cpu::EccPolicy::kWtParity;
    d.write_policy = mem::WritePolicy::kWriteThrough;
    d.alloc_policy = mem::AllocPolicy::kNoWriteAllocate;
  }
  return d;
}

/// Parse one DL1 segment: policy, codec, or placement:codec, with optional
/// trailing flags. (The full-key grammar splits '+'-separated level
/// segments before this runs.)
HierarchyDeployment parse_dl1_segment(std::string_view segment) {
  SegmentFlags flags;
  const auto tokens = split_base_and_flags(segment, flags);

  const auto finish = [&](HierarchyDeployment d) {
    apply_flags(flags, d.codec, *ecc::make_codec(d.codec), d.scrub_on_correct,
                d.recovery);
    return d;
  };

  if (tokens.size() == 1) {
    const std::string_view base = tokens[0];
    if (const auto p = cpu::ecc_policy_from_string(base); p.has_value()) {
      return finish(from_policy(*p));
    }
    if (ecc::codec_registered(base)) return finish(for_codec(base));
    throw std::invalid_argument(
        "unknown ECC scheme \"" + std::string(base) + "\" (known: " +
        join_keys(HierarchyDeployment::policy_keys()) + ", " +
        known_codecs() +
        ", or placement:codec, or a '+'-joined compound key with l1i:/l2: "
        "segments)");
  }

  if (tokens.size() == 2) {
    const std::string_view placement = tokens[0];
    const std::string_view codec_key = tokens[1];
    const auto p = cpu::ecc_policy_from_string(placement);
    if (!p.has_value()) {
      throw std::invalid_argument(
          "unknown ECC placement \"" + std::string(placement) +
          "\" (want one of: no-ecc, extra-cycle, extra-stage, laec, "
          "wt-parity)");
    }
    const auto codec = level_codec(codec_key, "DL1");
    HierarchyDeployment d = from_policy(*p);
    d.name = std::string(placement) + ":" + std::string(codec_key);
    d.dl1_key = d.name;
    d.codec = std::string(codec_key);
    apply_derived_defaults(*codec, d.scrub_on_correct, d.recovery);
    if (*p != cpu::EccPolicy::kNoEcc && *p != cpu::EccPolicy::kWtParity &&
        !codec->corrects_single()) {
      throw std::invalid_argument(
          "placement \"" + std::string(placement) +
          "\" needs a correcting codec; \"" + std::string(codec_key) +
          "\" only detects");
    }
    return finish(std::move(d));
  }

  throw std::invalid_argument("malformed ECC scheme segment \"" +
                              std::string(segment) +
                              "\" (too many ':' components)");
}

/// Parse one "l1i:..." / "l2:..." / "dl1:..." override payload (the text
/// after the level prefix) into a LevelDeployment.
LevelDeployment parse_level_segment(std::string_view level,
                                    std::string_view payload) {
  SegmentFlags flags;
  const auto tokens = split_base_and_flags(payload, flags);
  if (tokens.size() != 1 || tokens[0].empty()) {
    throw std::invalid_argument("level override \"" + std::string(level) +
                                ":" + std::string(payload) +
                                "\" wants " + std::string(level) +
                                ":<codec>[:scrub|:no-scrub|:correct|"
                                ":refetch]");
  }
  const auto codec = level_codec(tokens[0], level);
  LevelDeployment d;
  d.codec = std::string(tokens[0]);
  apply_derived_defaults(*codec, d.scrub_on_correct, d.recovery);
  apply_flags(flags, d.codec, *codec, d.scrub_on_correct, d.recovery);
  return d;
}

/// Append the ":scrub"/":no-scrub"/":correct"/":refetch" suffixes for
/// whatever differs from the codec's derived defaults — the minimal
/// spelling parse() maps back to the same (scrub, recovery) pair. Shared
/// by the DL1 and level canonicalizers so the flag grammar cannot diverge.
void append_flag_diffs(std::string& out, const std::string& codec_key,
                       bool scrub, RecoveryPolicy recovery) {
  bool derived_scrub = false;
  RecoveryPolicy derived_recovery = RecoveryPolicy::kInvalidateRefetch;
  apply_derived_defaults(*ecc::make_codec(codec_key), derived_scrub,
                         derived_recovery);
  if (scrub != derived_scrub) {
    out += scrub ? ":scrub" : ":no-scrub";
  }
  if (recovery != derived_recovery) {
    out += recovery == RecoveryPolicy::kCorrectInPlace ? ":correct"
                                                       : ":refetch";
  }
}

/// Level-segment spelling when it differs from `base` (empty otherwise):
/// the codec plus only the flags that differ from the codec's derived
/// defaults — the minimal key parse() maps back to the same deployment.
std::string level_key_if_not(const LevelDeployment& d,
                             const LevelDeployment& base,
                             std::string_view prefix) {
  if (d == base) return {};
  std::string out = std::string(prefix) + ":" + d.codec;
  append_flag_diffs(out, d.codec, d.scrub_on_correct, d.recovery);
  return out;
}

}  // namespace

HierarchyDeployment HierarchyDeployment::parse(std::string_view key) {
  // Split the compound key on '+': one DL1 segment plus optional level
  // overrides, each at most once.
  const std::vector<std::string_view> segments = split(key, '+');

  std::optional<HierarchyDeployment> dl1;
  std::optional<LevelDeployment> l1i, l2;
  for (const std::string_view seg : segments) {
    if (seg.empty()) {
      throw std::invalid_argument("empty segment in ECC scheme key \"" +
                                  std::string(key) + "\"");
    }
    const auto claim = [&](std::string_view level, auto& slot,
                           auto parsed) {
      if (slot.has_value()) {
        throw std::invalid_argument("duplicate " + std::string(level) +
                                    " segment in ECC scheme key \"" +
                                    std::string(key) + "\"");
      }
      slot = std::move(parsed);
    };
    if (seg.rfind("l1i:", 0) == 0) {
      claim("l1i", l1i, parse_level_segment("l1i", seg.substr(4)));
    } else if (seg.rfind("l2:", 0) == 0) {
      claim("l2", l2, parse_level_segment("l2", seg.substr(3)));
    } else if (seg.rfind("dl1:", 0) == 0) {
      claim("dl1", dl1, parse_dl1_segment(seg.substr(4)));
    } else {
      claim("dl1", dl1, parse_dl1_segment(seg));
    }
  }
  if (!dl1.has_value()) {
    throw std::invalid_argument(
        "ECC scheme key \"" + std::string(key) +
        "\" has no DL1 segment (start with a policy name, a codec name, or "
        "placement:codec)");
  }

  HierarchyDeployment d = std::move(*dl1);
  if (l1i.has_value()) d.l1i = std::move(*l1i);
  if (l2.has_value()) d.l2 = std::move(*l2);
  d.name = d.canonical_key();
  return d;
}

const std::vector<std::string>& HierarchyDeployment::policy_keys() {
  static const std::vector<std::string> kKeys = {
      "no-ecc", "extra-cycle", "extra-stage", "laec", "wt-parity"};
  return kKeys;
}

const LevelDeployment& HierarchyDeployment::l1i_default() {
  static const LevelDeployment kDefault = {
      "parity-32", /*scrub_on_correct=*/false,
      RecoveryPolicy::kInvalidateRefetch};
  return kDefault;
}

const LevelDeployment& HierarchyDeployment::l2_default() {
  static const LevelDeployment kDefault = {
      "secded-39-32", /*scrub_on_correct=*/true,
      RecoveryPolicy::kCorrectInPlace};
  return kDefault;
}

std::string HierarchyDeployment::canonical_key() const {
  // DL1 segment: the base spelling the deployment was built from (so a
  // bare codec key never aliases onto a policy that happens to expand to
  // the same arrangement) plus whatever flags differ from the codec's
  // derived defaults.
  std::string out = dl1_key;
  append_flag_diffs(out, codec, scrub_on_correct, recovery);
  if (const auto seg = level_key_if_not(l1i, l1i_default(), "l1i");
      !seg.empty()) {
    out += "+" + seg;
  }
  if (const auto seg = level_key_if_not(l2, l2_default(), "l2");
      !seg.empty()) {
    out += "+" + seg;
  }
  return out;
}

}  // namespace laec::core
