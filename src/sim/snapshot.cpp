#include "sim/snapshot.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "service/wire.hpp"
#include "sim/system.hpp"

namespace laec::sim {

namespace {

// 8-byte frame magic; distinct from the checkpoint magic ("LAECCKP1") so a
// mixed-up file path fails loudly rather than parsing as garbage.
constexpr char kMagic[8] = {'L', 'A', 'E', 'C', 'S', 'N', 'P', '1'};

}  // namespace

// FNV-1a folded over 8-byte little-endian chunks instead of single bytes
// (tail bytes one at a time). NOT the canonical byte-wise service::fnv1a —
// this frame has its own checksum definition, pinned by kSnapshotVersion.
// The golden run serializes hundreds of snapshots per pass; corruption
// detection only needs mixing, not the canonical byte-at-a-time walk.
u64 snapshot_checksum(std::string_view data) {
  u64 h = 1469598103934665603ull;
  const std::size_t whole = data.size() / 8;
  const char* p = data.data();
  for (std::size_t i = 0; i < whole; ++i) {
    u64 chunk;
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(&chunk, p + i * 8, 8);
    } else {
      chunk = 0;
      for (int j = 0; j < 8; ++j) {
        chunk |= static_cast<u64>(static_cast<u8>(p[i * 8 + j])) << (8 * j);
      }
    }
    h ^= chunk;
    h *= 1099511628211ull;
  }
  for (std::size_t i = whole * 8; i < data.size(); ++i) {
    h ^= static_cast<u8>(data[i]);
    h *= 1099511628211ull;
  }
  return h;
}

std::string save_system_state(const System& system) {
  // One buffer: the checksum slot is written as 0 and patched once the
  // payload after it is complete.
  service::ByteWriter w;
  w.put_bytes(std::string_view(kMagic, sizeof(kMagic)));
  w.put_u32(kSnapshotVersion);
  const std::size_t checksum_at = w.size();
  w.put_u64(0);
  system.save_state(w);
  w.patch_u64(checksum_at, snapshot_checksum(std::string_view(w.bytes()).substr(
                               checksum_at + sizeof(u64))));
  return w.take();
}

void restore_system_state(System& system, std::string_view blob) {
  if (blob.size() < sizeof(kMagic) ||
      std::memcmp(blob.data(), kMagic, sizeof(kMagic)) != 0) {
    throw service::WireError("snapshot: bad magic");
  }
  service::ByteReader head(blob.substr(sizeof(kMagic)));
  const u32 version = head.get_u32();
  if (version != kSnapshotVersion) {
    throw service::WireError("snapshot: version mismatch (blob v" +
                             std::to_string(version) + ", expected v" +
                             std::to_string(kSnapshotVersion) + ")");
  }
  const u64 checksum = head.get_u64();
  const std::string_view payload =
      blob.substr(sizeof(kMagic) + sizeof(u32) + sizeof(u64));
  if (snapshot_checksum(payload) != checksum) {
    throw service::WireError("snapshot: checksum mismatch (corrupt blob)");
  }
  service::ByteReader r(payload);
  system.restore_state(r);
  r.expect_end();
}

void SnapshotStore::add(u64 ordinal, Cycle cycle, std::string blob) {
  auto entry = std::make_shared<Entry>();
  entry->seq = seq_ == 0 ? 0 : seq_ - 1;  // gate already advanced past us
  entry->ordinal = ordinal;
  entry->cycle = cycle;
  bytes_ += blob.size();
  entry->blob = std::make_shared<const std::string>(std::move(blob));
  entries_.push_back(std::move(entry));

  // Keep-every-k thinning: double the stride until the survivors fit. The
  // single-entry guard keeps one snapshot alive even when a lone blob
  // exceeds the whole budget (a useless store would be worse).
  while (budget_ != 0 && bytes_ > budget_ && entries_.size() > 1) {
    stride_ *= 2;
    std::vector<std::shared_ptr<const Entry>> kept;
    kept.reserve(entries_.size() / 2 + 1);
    u64 kept_bytes = 0;
    for (auto& e : entries_) {
      if (e->seq % stride_ == 0) {
        kept_bytes += e->blob->size();
        kept.push_back(std::move(e));
      }
    }
    entries_ = std::move(kept);
    bytes_ = kept_bytes;
  }
}

std::shared_ptr<const SnapshotStore::Entry> SnapshotStore::best_at_or_before(
    u64 ordinal) const {
  // Entries are ordinal-ascending; find the last one at or before.
  auto it = std::upper_bound(
      entries_.begin(), entries_.end(), ordinal,
      [](u64 v, const std::shared_ptr<const Entry>& e) { return v < e->ordinal; });
  if (it == entries_.begin()) return nullptr;
  return *std::prev(it);
}

}  // namespace laec::sim
