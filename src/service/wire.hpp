// Byte-level wire codec shared by the service subsystem's on-disk and
// on-socket formats (checkpoint files, the columnar sink, the daemon's
// framing protocol).
//
// Everything is explicit little-endian regardless of host byte order, so a
// checkpoint written on one host resumes on another and a submit client
// can talk to a daemon across machine types. Doubles travel as their IEEE
// bit patterns (std::bit_cast), never as formatted text — the campaign's
// byte-identical-resume contract needs exact accumulator round-trips.
//
// ByteReader is bounds-checked and throws service::WireError instead of
// reading past the end: every consumer (checkpoint load, columnar cat,
// daemon frame decode) treats truncated or hostile input as a hard error,
// never as garbage values.
#pragma once

#include <bit>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"

namespace laec::service {

/// Malformed / truncated wire data (bad magic, short buffer, oversized
/// length field). Deliberately a distinct type so callers can map it to
/// "this file/peer is corrupt" rather than a programming error.
class WireError : public std::runtime_error {
 public:
  explicit WireError(const std::string& what) : std::runtime_error(what) {}
};

/// Append-only little-endian encoder over a std::string buffer.
class ByteWriter {
 public:
  void put_u8(u8 v) { buf_.push_back(static_cast<char>(v)); }

  void put_u32(u32 v) {
    for (int i = 0; i < 4; ++i) {
      buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  }

  void put_u64(u64 v) {
    for (int i = 0; i < 8; ++i) {
      buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  }

  /// IEEE-754 bit pattern: exact round-trip, no formatting loss.
  void put_double(double v) { put_u64(std::bit_cast<u64>(v)); }

  /// u32 length prefix + raw bytes.
  void put_string(std::string_view s) {
    put_u32(static_cast<u32>(s.size()));
    buf_.append(s.data(), s.size());
  }

  /// Bulk little-endian u32 array (no length prefix — the caller's framing
  /// carries the count). One memcpy on little-endian hosts; the element
  /// loop elsewhere. Snapshot capture serializes whole cache arrays through
  /// this, so it must not cost a call per word.
  void put_u32_block(const u32* v, std::size_t n) {
    if constexpr (std::endian::native == std::endian::little) {
      buf_.append(reinterpret_cast<const char*>(v), n * sizeof(u32));
    } else {
      for (std::size_t i = 0; i < n; ++i) put_u32(v[i]);
    }
  }

  /// Bulk little-endian u16 array; same contract as put_u32_block.
  void put_u16_block(const u16* v, std::size_t n) {
    if constexpr (std::endian::native == std::endian::little) {
      buf_.append(reinterpret_cast<const char*>(v), n * sizeof(u16));
    } else {
      for (std::size_t i = 0; i < n; ++i) {
        buf_.push_back(static_cast<char>(v[i] & 0xff));
        buf_.push_back(static_cast<char>((v[i] >> 8) & 0xff));
      }
    }
  }

  /// Raw bytes with no length prefix (a frame's fixed magic).
  void put_bytes(std::string_view s) { buf_.append(s.data(), s.size()); }

  /// Overwrite the u32/u64 written at byte offset `pos` (a size() taken
  /// before the put): fills in a count or checksum that is only known once
  /// the data after it has been written, without a second buffer.
  void patch_u32(std::size_t pos, u32 v) {
    for (int i = 0; i < 4; ++i) {
      buf_[pos + i] = static_cast<char>((v >> (8 * i)) & 0xff);
    }
  }
  void patch_u64(std::size_t pos, u64 v) {
    for (int i = 0; i < 8; ++i) {
      buf_[pos + i] = static_cast<char>((v >> (8 * i)) & 0xff);
    }
  }

  [[nodiscard]] std::size_t size() const { return buf_.size(); }
  [[nodiscard]] const std::string& bytes() const { return buf_; }
  [[nodiscard]] std::string take() { return std::move(buf_); }

 private:
  std::string buf_;
};

/// Bounds-checked little-endian decoder over a byte view.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  [[nodiscard]] u8 get_u8() {
    need(1);
    return static_cast<u8>(data_[pos_++]);
  }

  [[nodiscard]] u32 get_u32() {
    need(4);
    u32 v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<u32>(static_cast<u8>(data_[pos_ + i])) << (8 * i);
    }
    pos_ += 4;
    return v;
  }

  [[nodiscard]] u64 get_u64() {
    need(8);
    u64 v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<u64>(static_cast<u8>(data_[pos_ + i])) << (8 * i);
    }
    pos_ += 8;
    return v;
  }

  [[nodiscard]] double get_double() { return std::bit_cast<double>(get_u64()); }

  [[nodiscard]] std::string get_string() {
    const u32 n = get_u32();
    need(n);
    std::string s(data_.substr(pos_, n));
    pos_ += n;
    return s;
  }

  /// Bulk inverse of ByteWriter::put_u32_block.
  void get_u32_block(u32* out, std::size_t n) {
    need(n * sizeof(u32));
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(out, data_.data() + pos_, n * sizeof(u32));
      pos_ += n * sizeof(u32);
    } else {
      for (std::size_t i = 0; i < n; ++i) out[i] = get_u32();
    }
  }

  /// Bulk inverse of ByteWriter::put_u16_block.
  void get_u16_block(u16* out, std::size_t n) {
    need(n * sizeof(u16));
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(out, data_.data() + pos_, n * sizeof(u16));
      pos_ += n * sizeof(u16);
    } else {
      for (std::size_t i = 0; i < n; ++i) {
        const u16 lo = get_u8();
        out[i] = static_cast<u16>(lo | (static_cast<u16>(get_u8()) << 8));
      }
    }
  }

  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] bool at_end() const { return pos_ == data_.size(); }

  /// Consumers that expect to use the WHOLE payload call this last, so a
  /// frame with trailing junk is rejected rather than silently accepted.
  void expect_end() const {
    if (!at_end()) throw WireError("trailing bytes after decoded payload");
  }

 private:
  void need(std::size_t n) const {
    if (data_.size() - pos_ < n) {
      throw WireError("truncated wire data (wanted " + std::to_string(n) +
                      " more bytes, have " +
                      std::to_string(data_.size() - pos_) + ")");
    }
  }

  std::string_view data_;
  std::size_t pos_ = 0;
};

/// FNV-1a over a byte string: the integrity/identity hash of checkpoint
/// files and campaign configurations. Not cryptographic — it guards
/// against truncation, bit rot and resuming under a changed configuration,
/// not against an adversary.
[[nodiscard]] inline u64 fnv1a(std::string_view data, u64 seed = 0) {
  u64 h = 1469598103934665603ull ^ seed;
  for (const char c : data) {
    h ^= static_cast<u8>(c);
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace laec::service
