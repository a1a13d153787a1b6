// Shard checkpointing for the elastic farm (serve/farm.hpp).
//
// A `ShardSnapshot` is everything one engine shard needs to resume service
// warm after a board swap: the residency tables *with the frame content*
// (so a restore can stream the frames back onto the new board in one bulk
// DMA burst instead of re-paying per-call strip transfers), the driver's
// breaker/backoff state machine, the modeled shard clock, and the call
// descriptors of work that was queued but not yet started when the shard
// drained.  Functional results never depend on any of this — residency and
// breaker state only steer the *timing model* — so restoring a snapshot is
// bit-exactness-safe by construction; what it buys is modeled cycles.
//
// The wire format is versioned and checksummed:
//
//   [magic u32 "AESN"] [version u32] [payload length u64]
//   [payload bytes ...] [CRC-32 over the payload]
//
// using the same CRC-32 (IEEE, reflected 0xEDB88320) the transport layer
// already uses for strip integrity.  Each resident frame additionally
// carries its own CRC so a *restore-time* transport fault (the bus flips a
// word while the frame streams back to the board) is detected per frame and
// only that frame degrades to cold, never the whole restore.  Deserializing
// a corrupted blob throws `SnapshotCorruption`; a blob written by a
// different format revision throws `SnapshotVersionMismatch`.
//
// Version 2 changed what the persisted keys mean, not the layout: every
// hash field (`residency.input_slots[].hash`, `residency.result_hash`,
// `frames[].hash`) is a `core::frame_content_hash` key, and that hash was
// replaced (version 1 keys were FNV-1a and would never match a live frame).
// Version 2 also checks each resident frame's key against its content: a
// forged key is `SnapshotCorruption` ("resident frame key"), at the cost of
// one hash pass per restored frame.
#pragma once

#include <memory>
#include <vector>

#include "addresslib/call.hpp"
#include "common/error.hpp"
#include "core/resilient.hpp"
#include "core/session.hpp"
#include "image/image.hpp"

namespace ae::serve {

inline constexpr u32 kSnapshotMagic = 0x4145534Eu;  // "AESN"
inline constexpr u32 kSnapshotVersion = 2;

/// Base of the snapshot error taxonomy.
class SnapshotError : public Error {
 public:
  using Error::Error;
};

/// The blob failed an integrity check: bad magic, truncated framing,
/// payload checksum mismatch, or malformed field encoding.
class SnapshotCorruption : public SnapshotError {
 public:
  using SnapshotError::SnapshotError;
};

/// The corruption a CRC caught: the payload checksum or a resident frame's
/// CRC disagrees with the bytes (bit rot at rest).  A blob that passes its
/// checksums but carries forged fields is plain SnapshotCorruption.
class SnapshotChecksumMismatch : public SnapshotCorruption {
 public:
  using SnapshotCorruption::SnapshotCorruption;
};

/// The blob's format revision is not the one this build reads/writes.
class SnapshotVersionMismatch : public SnapshotError {
 public:
  SnapshotVersionMismatch(u32 found, u32 expected);
  u32 found() const { return found_; }
  u32 expected() const { return expected_; }

 private:
  u32 found_;
  u32 expected_;
};

/// One resident frame, content included, keyed by the same content hash the
/// residency tables and the farm's affinity router use.  `hash` must equal
/// `core::frame_content_hash(*content)`; parse_snapshot enforces it.  The
/// content is a shared, immutable buffer: a snapshot, a migration and the
/// shard it came from hold the same one.
struct ResidentFrame {
  u64 hash = 0;
  std::shared_ptr<const img::Image> content;
};

/// The serializable state of one shard.
struct ShardSnapshot {
  i32 shard_index = 0;
  /// Modeled shard clock at snapshot time.  A restore never rewinds a live
  /// clock — time spent serving between snapshot and restore stays counted.
  u64 clock_cycles = 0;
  core::BreakerSnapshot breaker;
  core::ResidencySnapshot residency;
  /// Content of the frames in `residency`'s input slots, at most one entry
  /// per distinct hash, in ascending key order when the farm writes it.
  /// The result bank is key-only.
  std::vector<ResidentFrame> frames;
  /// Descriptors of calls that were accepted but not yet started when the
  /// shard drained.  The live requests (promises, borrowed input frames)
  /// are requeued to the farm at snapshot time so no accepted work is ever
  /// lost; the descriptors here are the durable record of that backlog.
  std::vector<alib::Call> queued;
};

/// Serializes a snapshot into the framed wire format.  When `fault` is
/// non-null the injector gets one SnapshotCorrupt opportunity: if it fires,
/// one payload byte has one bit flipped after the checksum was computed —
/// the rot a later parse_snapshot() must detect.
std::vector<u8> serialize_snapshot(const ShardSnapshot& snapshot,
                                   core::FaultInjector* fault = nullptr);

/// Parses and fully validates a blob.  Throws SnapshotCorruption /
/// SnapshotVersionMismatch; a returned snapshot is structurally sound.
ShardSnapshot parse_snapshot(const std::vector<u8>& blob);

/// Per-frame CRC-32 over the frame's ZBT words (lower then upper, raster
/// order) plus its dimensions — the integrity check a restore verifies
/// after streaming a frame through the (possibly adversarial) transport.
u32 frame_crc(const img::Image& frame);

}  // namespace ae::serve
