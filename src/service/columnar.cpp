#include "service/columnar.hpp"

#include <istream>
#include <limits>
#include <ostream>
#include <unordered_map>

#include "service/wire.hpp"

namespace laec::service {

namespace {

/// Reject hostile/corrupt length fields before allocating. Generous: a
/// real 4096-row chunk of campaign rows is a few hundred KB.
constexpr u32 kMaxChunkBytes = 1u << 30;
constexpr u32 kMaxColumns = 1u << 16;

enum : u8 { kKindDict = 0, kKindU64 = 1 };
enum : char { kTagChunk = 'C', kTagEnd = 'E' };

std::string read_exact(std::istream& in, std::size_t n,
                       const char* what) {
  std::string buf(n, '\0');
  in.read(buf.data(), static_cast<std::streamsize>(n));
  if (static_cast<std::size_t>(in.gcount()) != n) {
    throw WireError(std::string("columnar: truncated while reading ") + what);
  }
  return buf;
}

u32 read_u32(std::istream& in, const char* what) {
  const std::string b = read_exact(in, 4, what);
  ByteReader r(b);
  return r.get_u32();
}

u64 read_u64(std::istream& in, const char* what) {
  const std::string b = read_exact(in, 8, what);
  ByteReader r(b);
  return r.get_u64();
}

}  // namespace

bool is_canonical_u64(const std::string& s) {
  if (s.empty() || s.size() > 20) return false;
  if (s.size() > 1 && s[0] == '0') return false;  // "007" must stay text
  u64 v = 0;
  for (const char c : s) {
    if (c < '0' || c > '9') return false;
    const u64 d = static_cast<u64>(c - '0');
    if (v > (std::numeric_limits<u64>::max() - d) / 10) return false;
    v = v * 10 + d;
  }
  return true;
}

ColumnarWriter::ColumnarWriter(std::ostream& out, std::size_t chunk_rows)
    : out_(out), chunk_rows_(chunk_rows == 0 ? 1 : chunk_rows) {}

void ColumnarWriter::begin(const std::vector<std::string>& headers) {
  begun_ = true;
  ncols_ = headers.size();
  ByteWriter w;
  w.put_u32(kColumnarVersion);
  w.put_u32(static_cast<u32>(headers.size()));
  for (const auto& h : headers) w.put_string(h);
  out_.write(kColumnarMagic, sizeof kColumnarMagic);
  out_.write(w.bytes().data(),
             static_cast<std::streamsize>(w.bytes().size()));
}

void ColumnarWriter::row(const std::vector<std::string>& cells) {
  pending_.push_back(cells);
  if (pending_.size() >= chunk_rows_) flush_chunk();
}

void ColumnarWriter::flush_chunk() {
  if (pending_.empty()) return;
  const std::size_t nrows = pending_.size();
  ByteWriter payload;
  payload.put_u32(static_cast<u32>(nrows));
  for (std::size_t c = 0; c < ncols_; ++c) {
    bool all_u64 = true;
    for (const auto& r : pending_) {
      if (c >= r.size() || !is_canonical_u64(r[c])) {
        all_u64 = false;
        break;
      }
    }
    if (all_u64) {
      payload.put_u8(kKindU64);
      for (const auto& r : pending_) {
        payload.put_u64(std::stoull(r[c]));
      }
    } else {
      payload.put_u8(kKindDict);
      // First-appearance dictionary order keeps the encoding deterministic
      // for a given row stream (no hash-iteration order leaks).
      std::vector<const std::string*> dict;
      std::unordered_map<std::string, u32> ids;
      std::vector<u32> idx(nrows);
      static const std::string kEmpty;
      for (std::size_t i = 0; i < nrows; ++i) {
        const std::string& v =
            c < pending_[i].size() ? pending_[i][c] : kEmpty;
        const auto [it, inserted] =
            ids.emplace(v, static_cast<u32>(dict.size()));
        if (inserted) dict.push_back(&it->first);
        idx[i] = it->second;
      }
      payload.put_u32(static_cast<u32>(dict.size()));
      for (const auto* s : dict) payload.put_string(*s);
      for (const u32 i : idx) payload.put_u32(i);
    }
  }
  ByteWriter frame;
  frame.put_u8(static_cast<u8>(kTagChunk));
  frame.put_u32(static_cast<u32>(payload.bytes().size()));
  out_.write(frame.bytes().data(),
             static_cast<std::streamsize>(frame.bytes().size()));
  out_.write(payload.bytes().data(),
             static_cast<std::streamsize>(payload.bytes().size()));
  ByteWriter sum;
  sum.put_u64(fnv1a(payload.bytes()));
  out_.write(sum.bytes().data(),
             static_cast<std::streamsize>(sum.bytes().size()));
  total_rows_ += nrows;
  pending_.clear();
}

void ColumnarWriter::end() {
  if (ended_ || !begun_) return;
  ended_ = true;
  flush_chunk();
  ByteWriter w;
  w.put_u8(static_cast<u8>(kTagEnd));
  w.put_u64(total_rows_);
  out_.write(w.bytes().data(),
             static_cast<std::streamsize>(w.bytes().size()));
  out_.flush();
}

bool ColumnarWriter::ok() const { return out_.good(); }

u64 read_columnar(std::istream& in, report::RowWriter& out) {
  const std::string magic = read_exact(in, sizeof kColumnarMagic, "magic");
  if (magic.compare(0, sizeof kColumnarMagic, kColumnarMagic,
                    sizeof kColumnarMagic) != 0) {
    throw WireError("columnar: bad magic (not a .col file)");
  }
  const u32 version = read_u32(in, "version");
  if (version != kColumnarVersion) {
    throw WireError("columnar: unsupported version " +
                    std::to_string(version) + " (this build reads " +
                    std::to_string(kColumnarVersion) + ")");
  }
  const u32 ncols = read_u32(in, "column count");
  if (ncols == 0 || ncols > kMaxColumns) {
    throw WireError("columnar: implausible column count " +
                    std::to_string(ncols));
  }
  std::vector<std::string> headers;
  headers.reserve(ncols);
  for (u32 c = 0; c < ncols; ++c) {
    const u32 len = read_u32(in, "column name length");
    if (len > kMaxChunkBytes) {
      throw WireError("columnar: implausible column name length");
    }
    headers.push_back(read_exact(in, len, "column name"));
  }
  out.begin(headers);

  u64 rows = 0;
  for (;;) {
    char tag = 0;
    if (!in.get(tag)) {
      throw WireError("columnar: truncated (missing end-of-file footer)");
    }
    if (tag == kTagEnd) {
      const u64 claimed = read_u64(in, "footer row count");
      if (claimed != rows) {
        throw WireError("columnar: footer claims " + std::to_string(claimed) +
                        " rows but file holds " + std::to_string(rows));
      }
      // Nothing may follow the footer.
      char extra = 0;
      if (in.get(extra)) {
        throw WireError("columnar: trailing bytes after footer");
      }
      break;
    }
    if (tag != kTagChunk) {
      throw WireError("columnar: unknown frame tag " +
                      std::to_string(static_cast<int>(tag)));
    }
    const u32 len = read_u32(in, "chunk length");
    if (len > kMaxChunkBytes) {
      throw WireError("columnar: implausible chunk length");
    }
    const std::string payload = read_exact(in, len, "chunk payload");
    const u64 sum = read_u64(in, "chunk checksum");
    if (sum != fnv1a(payload)) {
      throw WireError("columnar: chunk checksum mismatch (corrupt file)");
    }

    ByteReader r(payload);
    const u32 nrows = r.get_u32();
    std::vector<std::vector<std::string>> cols(ncols);
    for (u32 c = 0; c < ncols; ++c) {
      const u8 kind = r.get_u8();
      auto& col = cols[c];
      col.reserve(nrows);
      if (kind == kKindU64) {
        for (u32 i = 0; i < nrows; ++i) {
          col.push_back(std::to_string(r.get_u64()));
        }
      } else if (kind == kKindDict) {
        const u32 dict_size = r.get_u32();
        if (dict_size > nrows && dict_size > kMaxColumns) {
          throw WireError("columnar: implausible dictionary size");
        }
        std::vector<std::string> dict;
        dict.reserve(dict_size);
        for (u32 d = 0; d < dict_size; ++d) dict.push_back(r.get_string());
        for (u32 i = 0; i < nrows; ++i) {
          const u32 id = r.get_u32();
          if (id >= dict.size()) {
            throw WireError("columnar: dictionary index out of range");
          }
          col.push_back(dict[id]);
        }
      } else {
        throw WireError("columnar: unknown column kind " +
                        std::to_string(static_cast<int>(kind)));
      }
    }
    r.expect_end();

    std::vector<std::string> cells(ncols);
    for (u32 i = 0; i < nrows; ++i) {
      for (u32 c = 0; c < ncols; ++c) cells[c] = std::move(cols[c][i]);
      out.row(cells);
      for (u32 c = 0; c < ncols; ++c) cols[c][i] = std::move(cells[c]);
    }
    rows += nrows;
  }
  out.end();
  return rows;
}

}  // namespace laec::service
