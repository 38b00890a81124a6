// Simulation state snapshots: capture/restore the complete deterministic
// state of a sim::System, and a budgeted store of golden-run checkpoints.
//
// The campaign engine's soundness argument (reliability/schedule.hpp) says
// every trial in a cell replays the identical instruction/traffic stream and
// pre-draws its whole fault storm, so a faulty trial's architectural state is
// bit-identical to the golden run's up to the trial's first live delivery.
// A snapshot taken by the golden run at consultation ordinal C therefore IS
// the state of any trial whose first delivery ordinal d satisfies C <= d:
// restoring it and fast-forwarding the injector cursor to C simulates only
// the suffix, and the rows stay byte-identical with fast-forward on or off.
//
// A snapshot covers everything that evolves during a run: cache arrays
// (words, check bits, tags, valid/dirty, LRU state) for DL1/L1I/L2, the
// write buffer, bus slots/queues, main-memory pages, pipeline slots and
// registers, the stride predictor, traffic generators, the cycle counter,
// and every per-component stat counter. It deliberately excludes wiring
// that the constructor re-derives from the config (codecs, LUTs, hot
// counter pointers) and the injector/recorder attachments, which the
// resume path re-attaches after restore.
//
// Version 2 writes each cache array sparsely: only the ways the run has
// filled (nonzero LRU stamp), each with its index. A way never filled is
// in its constructor state, which restore re-creates for every way the
// blob does not list, so a blob is exact whatever the target system ran
// before. A small-DL1 kernel fills a few hundred of the L2's 8192 ways,
// so a blob is tens of KB where a dump of every way would be ~560 KB.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"

namespace laec::sim {

class System;

/// Bumped whenever the serialized layout changes; restore rejects blobs
/// from any other version. Part of the service-job identity so a daemon
/// never resumes a campaign across a layout change.
inline constexpr u32 kSnapshotVersion = 2;

/// Serialize the full deterministic state of `system` into a framed blob
/// (magic + version + checksum + payload). Throws std::logic_error when the
/// system holds state the format cannot carry (chronogram recording on).
[[nodiscard]] std::string save_system_state(const System& system);

/// The frame's checksum over `payload`, the bytes after magic, version and
/// checksum. Exposed so a test that patches a blob on purpose can re-seal
/// it and reach the structural checks behind the checksum.
[[nodiscard]] u64 snapshot_checksum(std::string_view payload);

/// Restore a blob produced by save_system_state into `system`, which must
/// have been constructed from the same configuration (geometry mismatches
/// are detected and rejected). Throws service::WireError on bad magic,
/// version mismatch, checksum mismatch, layout/geometry mismatch, or a
/// malformed sparse way list.
void restore_system_state(System& system, std::string_view blob);

/// Budgeted store of golden-run snapshots, ordered by consultation ordinal.
///
/// The golden run calls begin_capture() at every `every`-th consultation
/// threshold crossing and add()s the serialized state when the gate says
/// keep. When the byte budget would be exceeded the store thins itself to
/// keep-every-k: the keep stride doubles and every entry whose capture
/// sequence is off-stride is dropped, so density degrades uniformly over
/// the whole run (past and future captures alike) and deterministically —
/// the surviving set depends only on the capture sequence, never on timing.
class SnapshotStore {
 public:
  struct Entry {
    u64 seq = 0;      ///< capture sequence number (threshold-crossing index)
    u64 ordinal = 0;  ///< injector consultation ordinal at capture
    Cycle cycle = 0;  ///< system cycle at capture
    std::shared_ptr<const std::string> blob;
  };

  /// `every` = snapshot cadence in consultation ordinals (0 disables
  /// capture entirely); `budget_bytes` = total blob budget (0 = unlimited).
  explicit SnapshotStore(u64 every = 0, u64 budget_bytes = 0)
      : every_(every), budget_(budget_bytes) {}

  /// Capture cadence in consultation ordinals (0 = capture disabled).
  [[nodiscard]] u64 every() const { return every_; }

  /// The capture gate: advances the capture sequence and returns whether
  /// this threshold crossing should be serialized (i.e. it is on-stride).
  /// The caller serializes and add()s only when this returns true, so the
  /// cost of an off-stride crossing is one modulo.
  [[nodiscard]] bool begin_capture() {
    const bool keep = seq_ % stride_ == 0;
    ++seq_;
    return keep;
  }

  /// Record a captured snapshot; entries must arrive in ascending ordinal
  /// order (the golden run is sequential). Thins to budget afterwards.
  void add(u64 ordinal, Cycle cycle, std::string blob);

  /// Latest entry with entry->ordinal <= ordinal, or null when none exists.
  [[nodiscard]] std::shared_ptr<const Entry> best_at_or_before(
      u64 ordinal) const;

  /// Surviving entries, ordinal-ascending (tests and diagnostics walk this).
  [[nodiscard]] const std::vector<std::shared_ptr<const Entry>>& entries()
      const {
    return entries_;
  }

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] u64 bytes() const { return bytes_; }
  /// Current keep-every-k stride (1 until the budget forces thinning).
  [[nodiscard]] u64 stride() const { return stride_; }

 private:
  u64 every_ = 0;
  u64 budget_ = 0;
  u64 seq_ = 0;     // capture sequence counter (counts every gate call)
  u64 stride_ = 1;  // keep captures whose seq % stride_ == 0
  u64 bytes_ = 0;
  std::vector<std::shared_ptr<const Entry>> entries_;
};

}  // namespace laec::sim
