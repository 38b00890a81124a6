// Abstract codec interface of the error-code subsystem.
//
// Every protection scheme the simulated arrays can deploy — nothing, parity,
// Hsiao SECDED, SEC-DAEC, and whatever a future PR registers — implements
// ecc::Codec. The caches hold a std::shared_ptr<const Codec> and run it on
// every access; nothing downstream switches on an enum any more. Codecs are
// immutable after construction and safe to share across threads (the sweep
// runner hammers one instance from every worker).
//
// To add a scheme in one file: subclass Codec, then register a factory with
// ecc::register_codec("my-code-39-32", ...) (see ecc/registry.hpp).
#pragma once

#include <cstddef>
#include <memory>
#include <string_view>

#include "common/types.hpp"
#include "ecc/code.hpp"
#include "ecc/dec_bch.hpp"
#include "ecc/lut.hpp"
#include "ecc/parity.hpp"
#include "ecc/sec_daec.hpp"
#include "ecc/sec_daec_taec.hpp"
#include "ecc/secded.hpp"

namespace laec::ecc {

class Codec {
 public:
  virtual ~Codec() = default;

  /// Registry key, e.g. "secded-39-32".
  [[nodiscard]] virtual std::string_view name() const = 0;
  [[nodiscard]] virtual unsigned data_bits() const = 0;
  [[nodiscard]] virtual unsigned check_bits() const = 0;
  [[nodiscard]] unsigned codeword_bits() const {
    return data_bits() + check_bits();
  }

  /// Check bits for a data word (low check_bits() bits of the result).
  [[nodiscard]] virtual u64 encode(u64 data) const = 0;

  struct Decoded {
    CheckStatus status = CheckStatus::kOk;
    u64 data = 0;   ///< delivered (corrected where possible) data word
    u64 check = 0;  ///< matching check bits for the delivered data
  };

  /// Decode a stored (data, check) pair, repairing what the scheme can.
  [[nodiscard]] virtual Decoded decode(u64 data, u64 check) const = 0;

  // --- line-granular batched API (simulator hot path) ----------------------
  // The cache arrays move whole lines on fills and writebacks; these span
  // entry points let them pay ONE virtual dispatch per line instead of one
  // per 32-bit word. The default implementations loop over encode()/decode()
  // so a drop-in scheme only has to implement the per-word pair; the
  // built-in codecs override them with direct (devirtualized) loops.

  /// Encode `n` consecutive 32-bit words into their check side-array slots.
  virtual void encode_line(const u32* data, u16* check, std::size_t n) const {
    for (std::size_t i = 0; i < n; ++i) {
      check[i] = static_cast<u16>(encode(data[i]));
    }
  }

  /// Corrected view of `n` stored words: `out[i]` is the decoded data when
  /// the scheme can repair it, the stored word otherwise (the writeback /
  /// eviction read). No status reporting — error accounting happens on the
  /// demand-access path, never on bulk copies.
  virtual void decode_line(const u32* data, const u16* check, u32* out,
                           std::size_t n) const {
    for (std::size_t i = 0; i < n; ++i) {
      const Decoded r = decode(data[i], check[i]);
      out[i] = is_corrected(r.status) ? static_cast<u32>(r.data) : data[i];
    }
  }

  /// Devirtualization hook for the per-access clean-word test. The cache
  /// arrays snapshot this plain function pointer once at construction and
  /// call it on every read — a direct call into the final class's encode,
  /// with no vtable dispatch on the clean path. The base fallback keeps
  /// virtual dispatch so external drop-in schemes work unchanged.
  using EncodeFn = u64 (*)(const Codec*, u64);
  [[nodiscard]] virtual EncodeFn encode_thunk() const {
    return +[](const Codec* c, u64 data) { return c->encode(data); };
  }

  /// Dense syndrome->correction table, or nullptr when the scheme has none
  /// (external drop-ins, the none codec). The cache arrays snapshot this
  /// once at construction — when present, word decode becomes a table
  /// encode plus one load and two XORs instead of the per-codec matrix
  /// walk; without one they call decode(). decode() itself always stays
  /// the matrix-math reference path the LUT tests compare against.
  [[nodiscard]] virtual const DecodeLut* decode_lut() const { return nullptr; }

  // --- capability flags (drive cache recovery policy and reporting) -------
  /// Can a single-bit error be corrected in place?
  [[nodiscard]] virtual bool corrects_single() const { return false; }
  /// Is every double-bit error *guaranteed* to be flagged (never silently
  /// accepted, never miscorrected)?
  [[nodiscard]] virtual bool detects_double() const { return false; }
  /// Can an adjacent double-bit error be corrected in place?
  [[nodiscard]] virtual bool corrects_adjacent_double() const { return false; }
  /// Is every ADJACENT double-bit error flagged or repaired? Weaker than
  /// detects_double (interleaved parity has it without full DED); implied
  /// by full double detection or adjacent correction.
  [[nodiscard]] virtual bool detects_adjacent_double() const {
    return detects_double() || corrects_adjacent_double();
  }
  /// Can an adjacent TRIPLE-bit error be corrected in place (SEC-DAEC-TAEC
  /// class codes, arXiv:2002.07507)?
  [[nodiscard]] virtual bool corrects_adjacent_triple() const { return false; }
  /// Can ANY double-bit error — adjacent or not — be corrected in place
  /// (DEC class codes)? Implies corrects_adjacent_double.
  [[nodiscard]] virtual bool corrects_double() const { return false; }
};

/// CRTP mixin: tabulates the final class's linear `encode_word(u64)` into a
/// byte-sliced EncodeLut and its matrix `decode` into a dense syndrome
/// DecodeLut, then serves encode(), the devirtualized per-word thunk, the
/// span encoder/decoder and decode_lut() from the tables — so every entry
/// point is derived from the same two tables and can never disagree. The
/// virtual decode() override each scheme provides stays pure matrix math:
/// it is both the builder input and the reference the LUT tests check.
///
/// Each final class must call build_luts() at the END of its constructor
/// body (the dynamic type is already Derived there, so the virtual
/// data_bits/check_bits/decode used by the builders resolve correctly).
/// External drop-ins can still subclass Codec directly and live with the
/// virtual-dispatch defaults.
template <typename Derived>
class CodecWithFastEncode : public Codec {
 public:
  [[nodiscard]] u64 encode(u64 data) const final { return enc_.encode(data); }
  [[nodiscard]] EncodeFn encode_thunk() const final {
    return +[](const Codec* c, u64 data) {
      return static_cast<const CodecWithFastEncode*>(c)->enc_.encode(data);
    };
  }
  void encode_line(const u32* data, u16* check,
                   std::size_t n) const final {
    enc_.encode_line(data, check, n);
  }
  void decode_line(const u32* data, const u16* check, u32* out,
                   std::size_t n) const final {
    dec_.decode_line(data, check, out, n);
  }
  [[nodiscard]] const DecodeLut* decode_lut() const final { return &dec_; }

 protected:
  /// Tabulate the scheme. Call at the end of the Derived constructor body.
  void build_luts() {
    const auto* d = static_cast<const Derived*>(this);
    enc_.build(data_bits(), [d](u64 w) { return d->encode_word(w); });
    dec_.build(enc_, data_bits(), check_bits(), [this](u64 data, u64 check) {
      const Decoded r = this->decode(data, check);
      return LutDecoded{r.status, r.data, r.check};
    });
  }

 private:
  EncodeLut enc_;
  DecodeLut dec_;
};

/// Unprotected array: zero check bits, every word decodes clean.
class NoneCodec final : public Codec {
 public:
  [[nodiscard]] std::string_view name() const override { return "none"; }
  [[nodiscard]] unsigned data_bits() const override { return 32; }
  [[nodiscard]] unsigned check_bits() const override { return 0; }
  [[nodiscard]] u64 encode(u64) const override { return 0; }
  [[nodiscard]] Decoded decode(u64 data, u64) const override {
    return {CheckStatus::kOk, data, 0};
  }
};

/// Single even-parity bit per word (detect-only; LEON WT L1 arrangement).
class ParityCodec final : public CodecWithFastEncode<ParityCodec> {
 public:
  explicit ParityCodec(unsigned data_bits) : code_(data_bits) {
    build_luts();
  }
  [[nodiscard]] std::string_view name() const override { return "parity-32"; }
  [[nodiscard]] unsigned data_bits() const override {
    return code_.data_bits();
  }
  [[nodiscard]] unsigned check_bits() const override { return 1; }
  [[nodiscard]] u64 encode_word(u64 data) const { return code_.encode(data); }
  [[nodiscard]] Decoded decode(u64 data, u64 check) const override;

 private:
  ParityCode code_;
};

/// Hsiao SECDED adapter over the shared per-width SecdedCode instances.
class SecdedCodec final : public CodecWithFastEncode<SecdedCodec> {
 public:
  explicit SecdedCodec(const SecdedCode& code, std::string_view name)
      : code_(code), name_(name) {
    build_luts();
  }
  [[nodiscard]] std::string_view name() const override { return name_; }
  [[nodiscard]] unsigned data_bits() const override {
    return code_.data_bits();
  }
  [[nodiscard]] unsigned check_bits() const override {
    return code_.check_bits();
  }
  [[nodiscard]] u64 encode_word(u64 data) const { return code_.encode(data); }
  [[nodiscard]] Decoded decode(u64 data, u64 check) const override;
  [[nodiscard]] bool corrects_single() const override { return true; }
  [[nodiscard]] bool detects_double() const override { return true; }

 private:
  const SecdedCode& code_;
  std::string_view name_;
};

/// SEC-DAEC adapter over the shared per-width SecDaecCode instances.
class SecDaecCodec final : public CodecWithFastEncode<SecDaecCodec> {
 public:
  explicit SecDaecCodec(const SecDaecCode& code, std::string_view name)
      : code_(code), name_(name) {
    build_luts();
  }
  [[nodiscard]] std::string_view name() const override { return name_; }
  [[nodiscard]] unsigned data_bits() const override {
    return code_.data_bits();
  }
  [[nodiscard]] unsigned check_bits() const override {
    return code_.check_bits();
  }
  [[nodiscard]] u64 encode_word(u64 data) const { return code_.encode(data); }
  [[nodiscard]] Decoded decode(u64 data, u64 check) const override;
  [[nodiscard]] bool corrects_single() const override { return true; }
  // Non-adjacent doubles may alias onto an adjacent pair (miscorrection) —
  // detection of arbitrary doubles is NOT guaranteed.
  [[nodiscard]] bool corrects_adjacent_double() const override { return true; }

 private:
  const SecDaecCode& code_;
  std::string_view name_;
};

/// SEC-DAEC-TAEC adapter over the shared (45,32) SecDaecTaecCode instance.
/// Triple-adjacent corrections report kCorrectedAdjacent — the adjacent-MBU
/// family the per-cache counters aggregate.
class SecDaecTaecCodec final : public CodecWithFastEncode<SecDaecTaecCodec> {
 public:
  explicit SecDaecTaecCodec(const SecDaecTaecCode& code, std::string_view name)
      : code_(code), name_(name) {
    build_luts();
  }
  [[nodiscard]] std::string_view name() const override { return name_; }
  [[nodiscard]] unsigned data_bits() const override {
    return code_.data_bits();
  }
  [[nodiscard]] unsigned check_bits() const override {
    return code_.check_bits();
  }
  [[nodiscard]] u64 encode_word(u64 data) const { return code_.encode(data); }
  [[nodiscard]] Decoded decode(u64 data, u64 check) const override;
  [[nodiscard]] bool corrects_single() const override { return true; }
  // Like SEC-DAEC: a NON-adjacent multi-bit error may alias onto a
  // correctable burst (miscorrection) — arbitrary-double detection is NOT
  // guaranteed, but no error pattern is ever silently accepted.
  [[nodiscard]] bool corrects_adjacent_double() const override { return true; }
  [[nodiscard]] bool corrects_adjacent_triple() const override { return true; }

 private:
  const SecDaecTaecCode& code_;
  std::string_view name_;
};

/// DEC-TED BCH adapter over the shared (45,32) DecBchCode instance. Any
/// double is corrected (adjacent pairs report kCorrectedAdjacent so the
/// adjacent-MBU counters stay comparable across codecs); triples are
/// detected, never miscorrected.
class DecBchCodec final : public CodecWithFastEncode<DecBchCodec> {
 public:
  explicit DecBchCodec(const DecBchCode& code, std::string_view name)
      : code_(code), name_(name) {
    build_luts();
  }
  [[nodiscard]] std::string_view name() const override { return name_; }
  [[nodiscard]] unsigned data_bits() const override {
    return code_.data_bits();
  }
  [[nodiscard]] unsigned check_bits() const override {
    return code_.check_bits();
  }
  [[nodiscard]] u64 encode_word(u64 data) const { return code_.encode(data); }
  [[nodiscard]] Decoded decode(u64 data, u64 check) const override;
  [[nodiscard]] bool corrects_single() const override { return true; }
  // d = 6: every double is corrected and every triple is flagged — no
  // multi-bit pattern of weight <= 3 is ever silently accepted or
  // miscorrected.
  [[nodiscard]] bool detects_double() const override { return true; }
  [[nodiscard]] bool corrects_adjacent_double() const override { return true; }
  [[nodiscard]] bool corrects_double() const override { return true; }

 private:
  const DecBchCode& code_;
  std::string_view name_;
};

}  // namespace laec::ecc
