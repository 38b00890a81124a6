#include "mem/cache.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>

#include "common/bitops.hpp"
#include "mem/residency.hpp"
#include "service/wire.hpp"

// The correction/recovery/scrub machinery is deliberately out of the
// instruction stream of the clean-hit fast path: annotate it cold so the
// compiler keeps read()'s happy path branch-light and fall-through.
#if defined(__GNUC__) || defined(__clang__)
#define LAEC_COLD __attribute__((cold, noinline))
#else
#define LAEC_COLD
#endif

namespace laec::mem {

std::string geometry_error(u32 size_bytes, u32 line_bytes, u32 ways) {
  const auto bytes = [](u32 n) { return std::to_string(n) + " B"; };
  if (!is_pow2(size_bytes)) {
    return "size " + bytes(size_bytes) + " is not a power of two";
  }
  // The line bound is hard: the bulk-decode scratch on the writeback path
  // is a fixed stack array.
  if (!is_pow2(line_bytes) || line_bytes < 4 ||
      line_bytes > SetAssocCache::kMaxLineBytes) {
    return "line " + bytes(line_bytes) + " is not a power of two from 4 B to " +
           bytes(SetAssocCache::kMaxLineBytes);
  }
  if (ways == 0 || size_bytes % (static_cast<u64>(line_bytes) * ways) != 0) {
    return "size " + bytes(size_bytes) + " is not a whole number of sets of " +
           std::to_string(ways) + " " + bytes(line_bytes) + " lines";
  }
  return "";
}

SetAssocCache::SetAssocCache(const CacheConfig& cfg)
    : cfg_(cfg), codec_(cfg.codec.get()) {
  if (const std::string e =
          geometry_error(cfg_.size_bytes, cfg_.line_bytes, cfg_.ways);
      !e.empty()) {
    throw std::invalid_argument("cache \"" + cfg_.name + "\": " + e);
  }
  assert((codec_ == nullptr || codec_->data_bits() == 32) &&
         "cache arrays protect 32-bit words");
  assert((codec_ == nullptr || codec_->check_bits() <= 16) &&
         "check side-array stores at most 16 bits per word");
  // A codec with no check bits is the same as no codec; drop it so the hot
  // path has a single "unprotected" test.
  if (codec_ != nullptr && codec_->check_bits() == 0) codec_ = nullptr;
  if (codec_ != nullptr) {
    encode_fn_ = codec_->encode_thunk();
    lut_ = codec_->decode_lut();
  }
  ways_.resize(static_cast<std::size_t>(cfg_.num_sets()) * cfg_.ways);
  for (Way& w : ways_) {
    w.words.assign(cfg_.line_bytes / 4, 0);
    w.check.assign(cfg_.line_bytes / 4, 0);
  }
  n_read_ = &stats_.counter("reads");
  n_write_ = &stats_.counter("writes");
  n_fill_ = &stats_.counter("fills");
  n_evict_dirty_ = &stats_.counter("dirty_evictions");
  n_corrected_ = &stats_.counter("ecc_corrected");
  n_corrected_adjacent_ = &stats_.counter("ecc_corrected_adjacent");
  n_detected_uncorrectable_ = &stats_.counter("ecc_detected_uncorrectable");
  n_rmw_laundered_ = &stats_.counter("ecc_rmw_laundered");
}

void SetAssocCache::flush_counters() const {
  *n_read_ += live_.reads - flushed_.reads;
  *n_write_ += live_.writes - flushed_.writes;
  *n_fill_ += live_.fills - flushed_.fills;
  *n_evict_dirty_ += live_.dirty_evictions - flushed_.dirty_evictions;
  *n_corrected_ += live_.corrected - flushed_.corrected;
  *n_corrected_adjacent_ +=
      live_.corrected_adjacent - flushed_.corrected_adjacent;
  *n_detected_uncorrectable_ +=
      live_.detected_uncorrectable - flushed_.detected_uncorrectable;
  *n_rmw_laundered_ += live_.rmw_laundered - flushed_.rmw_laundered;
  flushed_ = live_;
}

u32 SetAssocCache::set_index(Addr a) const {
  return (a / cfg_.line_bytes) & (cfg_.num_sets() - 1);
}

SetAssocCache::Way* SetAssocCache::find(Addr a) {
  const Addr base = line_base(a);
  const u32 set = set_index(a);
  Way* ways = &ways_[static_cast<std::size_t>(set) * cfg_.ways];
  for (u32 w = 0; w < cfg_.ways; ++w) {
    if (ways[w].valid && ways[w].tag_addr == base) return &ways[w];
  }
  return nullptr;
}

const SetAssocCache::Way* SetAssocCache::find(Addr a) const {
  return const_cast<SetAssocCache*>(this)->find(a);
}

bool SetAssocCache::contains(Addr a) const { return find(a) != nullptr; }

bool SetAssocCache::line_dirty(Addr a) const {
  const Way* w = find(a);
  return w != nullptr && w->dirty;
}

u64 SetAssocCache::word_key(const Way& way, u32 word_idx) const {
  return (static_cast<u64>(way.tag_addr) / 4) + word_idx;
}

void SetAssocCache::recompute_check(Way& way, u32 word_idx) {
  way.check[word_idx] =
      codec_ == nullptr
          ? u16{0}
          : static_cast<u16>(encode_fn_(codec_, way.words[word_idx]));
}

LAEC_COLD void SetAssocCache::decode_and_account(Way& way, u32 word_idx,
                                                 WordRead& out) {
  const auto r = decode_word(way.words[word_idx], way.check[word_idx]);
  out.value = static_cast<u32>(r.data);
  out.check = r.status;
  if (ecc::is_corrected(r.status)) {
    ++live_.corrected;
    if (r.status == ecc::CheckStatus::kCorrectedAdjacent) {
      ++live_.corrected_adjacent;
    }
    if (cfg_.scrub_on_correct) {
      way.words[word_idx] = static_cast<u32>(r.data);
      way.check[word_idx] = static_cast<u16>(r.check);
    }
  } else if (r.status == ecc::CheckStatus::kDetectedUncorrectable) {
    ++live_.detected_uncorrectable;
  }
}

LAEC_COLD void SetAssocCache::inject_and_check(Way& way, u32 word_idx,
                                               WordRead& out) {
  if (injector_ != nullptr && injector_->enabled()) {
    // Codeword layout for injection: bits [0,32) data, [32, 32+r) check.
    const auto flips = injector_->flips_for_access(word_key(way, word_idx));
    if (!flips.empty()) {
      u32 stored = way.words[word_idx];
      u32 check = way.check[word_idx];
      for (unsigned b : flips) {
        if (b < 32) {
          stored = static_cast<u32>(flip_bit(stored, b));
        } else {
          check = static_cast<u32>(flip_bit(check, b - 32));
        }
      }
      way.words[word_idx] = stored;
      way.check[word_idx] = static_cast<u16>(check);
    }
  }

  if (codec_ == nullptr) {
    out.value = way.words[word_idx];
    out.check = ecc::CheckStatus::kOk;
    return;
  }
  decode_and_account(way, word_idx, out);
}

WordRead SetAssocCache::read(LineRef line, Addr a, unsigned bytes) {
  assert(bytes == 1 || bytes == 2 || bytes == 4);
  assert((a & (bytes - 1)) == 0 && "misaligned access");
  Way* way = line.way_;
  assert(way != nullptr && "read() requires a resident line");
  ++live_.reads;
  way->lru_stamp = lru_clock_++;

  const u32 off = a & (cfg_.line_bytes - 1);
  const u32 word_idx = off / 4;
  if (recorder_ != nullptr) recorder_->on_read(word_key(*way, word_idx));
  WordRead word;
  if (!inject_active() && !cfg_.force_generic_path) [[likely]] {
    // Clean-hit fast path: re-encode the stored word through the
    // devirtualized encoder and compare against the stored check bits. A
    // zero syndrome delivers the word as stored; anything else (a standing
    // fault left by a detached storm) drops to the cold decode path.
    const u32 stored = way->words[word_idx];
    if (codec_ == nullptr ||
        encode_fn_(codec_, stored) == way->check[word_idx]) [[likely]] {
      word.value = stored;
    } else {
      decode_and_account(*way, word_idx, word);
    }
  } else {
    inject_and_check(*way, word_idx, word);
  }

  // Extract the addressed bytes from the (corrected) word.
  const u32 shift = (off & 3u) * 8;
  word.value = (word.value >> shift) & static_cast<u32>(low_mask(bytes * 8));
  return word;
}

void SetAssocCache::write(LineRef line, Addr a, unsigned bytes, u32 value,
                          bool mark_dirty) {
  if (cfg_.read_only) {
    throw std::logic_error("cache \"" + cfg_.name +
                           "\" is read-only: lines are refilled, never "
                           "written (invalidate-and-refetch is the only "
                           "recovery path)");
  }
  assert(bytes == 1 || bytes == 2 || bytes == 4);
  assert((a & (bytes - 1)) == 0 && "misaligned access");
  Way* way = line.way_;
  assert(way != nullptr && "write() requires a resident line");
  ++live_.writes;
  way->lru_stamp = lru_clock_++;

  const u32 off = a & (cfg_.line_bytes - 1);
  const u32 word_idx = off / 4;
  if (recorder_ != nullptr) recorder_->on_write(word_key(*way, word_idx));

  // Sub-word writes are read-modify-write on the protected word (the check
  // bits cover 32 bits, so hardware must merge before re-encoding). That
  // read runs the codec: with scrubbing off a standing correctable error
  // may sit in the array, and merging into the raw word would re-encode
  // the flip under fresh check bits — corruption laundered into a valid
  // codeword. Full-word writes overwrite everything, so only sub-word
  // merges pay for the decode — and only in runs that ever saw a fault
  // source (a clean run's stored words always re-encode to their stored
  // check bits).
  u32 word = way->words[word_idx];
  if (codec_ != nullptr && ever_injected_ && bytes < 4) {
    const auto r = decode_word(word, way->check[word_idx]);
    if (ecc::is_corrected(r.status)) {
      word = static_cast<u32>(r.data);
    } else if (r.status == ecc::CheckStatus::kDetectedUncorrectable) {
      // The store's bytes are architecturally new and the merge must
      // proceed, but the untouched bytes are known-bad and about to be
      // re-encoded under valid check bits — account the laundering so it
      // can never be mistaken for a clean word downstream.
      ++live_.detected_uncorrectable;
      ++live_.rmw_laundered;
    }
  }
  const u32 shift = (off & 3u) * 8;
  const u32 mask = static_cast<u32>(low_mask(bytes * 8)) << shift;
  word = (word & ~mask) | ((value << shift) & mask);
  way->words[word_idx] = word;
  recompute_check(*way, word_idx);
  if (mark_dirty && cfg_.write_policy == WritePolicy::kWriteBack) {
    way->dirty = true;
  }
}

std::optional<Eviction> SetAssocCache::fill(Addr a, const u8* data,
                                            bool dirty) {
  if (cfg_.read_only && dirty) {
    throw std::logic_error("cache \"" + cfg_.name +
                           "\" is read-only: it cannot hold dirty lines");
  }
  const Addr base = line_base(a);
  const u32 set = set_index(a);
  ++live_.fills;

  Way* victim = nullptr;
  for (u32 w = 0; w < cfg_.ways; ++w) {
    Way& way = ways_[static_cast<std::size_t>(set) * cfg_.ways + w];
    if (!way.valid) {
      victim = &way;
      break;
    }
    if (victim == nullptr || way.lru_stamp < victim->lru_stamp) victim = &way;
  }

  std::optional<Eviction> ev;
  if (victim->valid && victim->dirty) {
    ev.emplace();
    ev->line_addr = victim->tag_addr;
    ev->dirty = true;
    ev->data = corrected_line_copy(*victim);
    ++live_.dirty_evictions;
  }
  if (victim->valid) retire_line(*victim);

  victim->valid = true;
  victim->dirty = dirty;
  victim->tag_addr = base;
  victim->lru_stamp = lru_clock_++;
  const u32 nwords = cfg_.line_bytes / 4;
  std::memcpy(victim->words.data(), data, cfg_.line_bytes);
  if (codec_ != nullptr) {
    // One virtual call per line, not one per word.
    codec_->encode_line(victim->words.data(), victim->check.data(), nwords);
  }
  if (recorder_ != nullptr) {
    for (u32 i = 0; i < nwords; ++i) recorder_->on_install(word_key(*victim, i));
  }
  return ev;
}

bool SetAssocCache::invalidate(Addr a) {
  Way* way = find(a);
  if (way == nullptr) return false;
  retire_line(*way);
  way->valid = false;
  way->dirty = false;
  return true;
}

void SetAssocCache::invalidate(LineRef line) {
  retire_line(*line.way_);
  line.way_->valid = false;
  line.way_->dirty = false;
}

void SetAssocCache::retire_line(const Way& way) {
  if (recorder_ == nullptr) return;
  const u32 nwords = cfg_.line_bytes / 4;
  for (u32 i = 0; i < nwords; ++i) recorder_->on_retire(word_key(way, i));
}

std::vector<u8> SetAssocCache::corrected_line_copy(const Way& way) const {
  std::vector<u8> out(cfg_.line_bytes);
  const u32 nwords = cfg_.line_bytes / 4;
  // Without a fault source the array only ever holds words it encoded
  // itself, so every decode would be a no-op — skip the whole pass (dirty
  // evictions are on the simulator's hot path).
  if (codec_ == nullptr || !ever_injected_) {
    std::memcpy(out.data(), way.words.data(), cfg_.line_bytes);
    return out;
  }
  u32 fixed[kMaxLineWords];
  codec_->decode_line(way.words.data(), way.check.data(), fixed, nwords);
  std::memcpy(out.data(), fixed, cfg_.line_bytes);
  return out;
}

std::vector<u8> SetAssocCache::peek_line(Addr a) const {
  const Way* way = find(a);
  assert(way != nullptr);
  return corrected_line_copy(*way);
}

void SetAssocCache::save_state(service::ByteWriter& w) const {
  // Fold the hot-path deltas first so the StatSet alone carries the counts;
  // a restored cache starts with zeroed live_/flushed_ deltas, which keeps
  // the delta-folding arithmetic exact after restore.
  flush_counters();
  w.put_u64(lru_clock_);
  w.put_u32(static_cast<u32>(ways_.size()));
  // Sparse way list. lru_clock_ starts at 1 and fill() stamps every line it
  // installs (read/write only touch resident lines, and invalidation keeps
  // the stamp), so a way whose stamp is still 0 has never been filled and
  // holds exactly its constructor state: invalid, clean, tag 0, zero words
  // and check bits. Only the stamped ways are written, in ascending index
  // order, after their count (patched in once known).
  const std::size_t count_at = w.size();
  w.put_u32(0);
  u32 live = 0;
  for (u32 i = 0; i < ways_.size(); ++i) {
    const Way& way = ways_[i];
    if (way.lru_stamp == 0) continue;
    ++live;
    w.put_u32(i);
    w.put_u8(way.valid ? 1 : 0);
    w.put_u8(way.dirty ? 1 : 0);
    w.put_u32(way.tag_addr);
    w.put_u64(way.lru_stamp);
    w.put_u32_block(way.words.data(), way.words.size());
    w.put_u16_block(way.check.data(), way.check.size());
  }
  w.patch_u32(count_at, live);
  stats_.save_state(w);
}

void SetAssocCache::restore_state(service::ByteReader& r) {
  const auto malformed = [&](const std::string& why) {
    return service::WireError("snapshot: cache \"" + cfg_.name + "\" " + why);
  };
  lru_clock_ = r.get_u64();
  const u32 n = r.get_u32();
  if (n != ways_.size()) throw malformed("geometry mismatch");
  const u32 live = r.get_u32();
  if (live > n) {
    throw malformed("lists " + std::to_string(live) + " filled ways of " +
                    std::to_string(n));
  }
  // Every way ends in the blob's state: a listed way is overwritten field
  // by field, and any other way goes back to the constructor state. Ways
  // with stamp 0 are in that state already (see save_state), so only the
  // stamped ones need the reset. A listed way must carry a nonzero stamp,
  // or the restored array would break that invariant.
  const u32 nwords = cfg_.line_bytes / 4;
  u32 next = 0;  // ways below this index are done
  const auto reset_until = [&](u32 end) {
    for (; next < end; ++next) {
      Way& way = ways_[next];
      if (way.lru_stamp == 0) continue;
      way.valid = false;
      way.dirty = false;
      way.tag_addr = 0;
      way.lru_stamp = 0;
      std::fill(way.words.begin(), way.words.end(), 0u);
      std::fill(way.check.begin(), way.check.end(), u16{0});
    }
  };
  for (u32 k = 0; k < live; ++k) {
    const u32 i = r.get_u32();
    if (i >= n) {
      throw malformed("way index " + std::to_string(i) + " is out of range");
    }
    if (i < next) {
      throw malformed("way index " + std::to_string(i) +
                      " is not strictly ascending");
    }
    const bool valid = r.get_u8() != 0;
    const bool dirty = r.get_u8() != 0;
    const Addr tag_addr = r.get_u32();
    const u64 stamp = r.get_u64();
    if (stamp == 0) {
      throw malformed("way " + std::to_string(i) + " is listed with stamp 0");
    }
    reset_until(i);
    Way& way = ways_[i];
    way.valid = valid;
    way.dirty = dirty;
    way.tag_addr = tag_addr;
    way.lru_stamp = stamp;
    r.get_u32_block(way.words.data(), nwords);
    r.get_u16_block(way.check.data(), nwords);
    next = i + 1;
  }
  reset_until(n);
  live_ = Counters{};
  flushed_ = Counters{};
  stats_.restore_state(r);
}

}  // namespace laec::mem
