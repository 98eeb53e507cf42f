// The fabric wire protocol: length-prefixed frames carrying the lease
// lifecycle and ckpt2 shard records between coordinator and worker.
//
// Frame layout (all integers little-endian):
//   u32 length   — byte count that follows (type byte + payload), 1..16 MiB
//   u8  type     — FrameType
//   ...payload   — type-specific body
//
// EOF semantics mirror the checkpoint file's torn-line rule: end-of-stream
// *between* frames is a clean close (read_frame returns false — how a
// worker's death or a graceful shutdown looks to the peer), while
// end-of-stream *inside* a frame, a zero/oversize length or an unknown type
// is a torn frame — a loud sim::ContractViolation, never a silent skip.
// Both readers — read_frame (exact reads, the worker's side) and
// FrameReader (bulk reads, the coordinator's side) — validate headers
// through one decoder, frame_size().
//
// The shard payload is deliberately the checkpoint format itself: a
// shard_done frame carries the exact ckpt2 line render_checkpoint_record()
// produces (report::parse_checkpoint_record decodes it). One serialization
// for disk and wire means the coordinator's checkpoint, a worker's streamed
// result and a single-process campaign's record are bit-identical by
// construction — the round-trip test only has to pin it once. The
// coordinator appends the received line verbatim; docs/fabric.md
// ("Canonical bytes") says why that keeps the checkpoint bytes canonical.
//
// Conversation (worker drives; coordinator replies or pushes):
//   worker → hello{protocol, spec_hash, seed, shard_count}
//   coord  → hello_ok | reject{message}            (reject: loud, close)
//   worker → lease_request
//   coord  → lease_grant{lease_id, begin, end} | idle | shutdown
//   worker → heartbeat{lease_id}                   (before every shard)
//   worker → shard_done{lease_id, ckpt2 line}      (one per shard)
//   worker → lease_done{lease_id}, then lease_request again
//   parked worker (after idle): blocks; coordinator pushes lease_grant
//   (re-leased work) or shutdown when the campaign completes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

#include "fabric/transport.hpp"

namespace acute::fabric {

/// Bumped on any frame/payload layout change; hello carries it so mixed
/// builds reject each other loudly instead of mis-parsing.
inline constexpr std::uint32_t kProtocolVersion = 1;

/// Upper bound on (type byte + payload); a ckpt2 record is a few KiB, so
/// anything near this is garbage, not data.
inline constexpr std::size_t kMaxFrameBytes = 16u << 20;

enum class FrameType : std::uint8_t {
  hello = 1,
  hello_ok = 2,
  reject = 3,
  lease_request = 4,
  lease_grant = 5,
  shard_done = 6,
  lease_done = 7,
  heartbeat = 8,
  idle = 9,
  shutdown = 10,
};

struct Frame {
  FrameType type = FrameType::hello;
  std::string payload;
};

/// Sends one frame (single send_all, so a kill tears at most this frame).
void write_frame(Transport& transport, FrameType type,
                 std::string_view payload = {});

/// Reads one frame into `out`. False on clean end-of-stream at a frame
/// boundary; contract violation on a torn frame (EOF mid-frame, bad length,
/// unknown type). Reads exactly the frame's bytes, never past it.
[[nodiscard]] bool read_frame(Transport& transport, Frame& out);

/// u32 length + u8 type.
inline constexpr std::size_t kFrameHeaderBytes = 5;

/// The one frame-header decoder. `prefix` is the start of a frame, however
/// much of it has arrived: the length is checked as soon as its 4 bytes are
/// there, the type as soon as its byte is. Returns the whole frame's size
/// (header included) once the header is complete, 0 before. Contract
/// violation on a zero or oversize length or an unknown type, so a reader
/// learns a frame is garbage before it sizes a buffer for it.
[[nodiscard]] std::size_t frame_size(std::string_view prefix);

/// A frame read in place: `payload` points into the FrameReader's buffer
/// and is valid until the reader's next fill().
struct FrameView {
  FrameType type = FrameType::hello;
  std::string_view payload;
};

/// Buffered frame reader over one transport, for a peer that multiplexes
/// many connections: fill() is one recv_some that takes whatever the
/// socket holds, and next() then hands out every complete frame in the
/// buffer without further I/O. Same EOF and torn-frame rules as
/// read_frame.
class FrameReader {
 public:
  explicit FrameReader(Transport& transport) : transport_(transport) {}

  /// Pops the next complete buffered frame; false when the buffer holds
  /// none (call fill()). Contract violation on a bad header.
  [[nodiscard]] bool next(FrameView& out);

  /// One recv_some into the buffer, growing it first when the frame being
  /// assembled (its header already validated) cannot fit; call it once
  /// next() returns false. False on end-of-stream at a frame boundary;
  /// contract violation on end-of-stream mid-frame.
  [[nodiscard]] bool fill();

 private:
  Transport& transport_;
  std::string buffer_;
  std::size_t begin_ = 0;  // first unconsumed byte
  std::size_t end_ = 0;    // one past the last received byte
};

/// hello payload: everything the coordinator checks before leasing work.
/// spec_hash is CampaignSpec::spec_hash() (shape-only); the seed rides
/// separately so a seed mismatch gets its own loud message.
struct HelloBody {
  std::uint32_t protocol = kProtocolVersion;
  std::uint64_t spec_hash = 0;
  std::uint64_t seed = 0;
  std::uint64_t shard_count = 0;
};

/// lease_grant payload: half-open scenario-index range [begin, end).
struct LeaseGrantBody {
  std::uint64_t lease_id = 0;
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
};

/// shard_done payload: the lease the shard ran under + its ckpt2 record
/// line, byte-for-byte what render_checkpoint_record() produced.
struct ShardDoneBody {
  std::uint64_t lease_id = 0;
  std::string record_line;
};

[[nodiscard]] std::string encode_hello(const HelloBody& body);
[[nodiscard]] HelloBody decode_hello(std::string_view payload);
[[nodiscard]] std::string encode_lease_grant(const LeaseGrantBody& body);
[[nodiscard]] LeaseGrantBody decode_lease_grant(std::string_view payload);
[[nodiscard]] std::string encode_shard_done(const ShardDoneBody& body);
[[nodiscard]] ShardDoneBody decode_shard_done(std::string_view payload);
/// decode_shard_done without the copy: the lease id and a view of the
/// record line inside `payload`.
[[nodiscard]] std::pair<std::uint64_t, std::string_view> split_shard_done(
    std::string_view payload);
/// heartbeat / lease_done payloads: just the lease id.
[[nodiscard]] std::string encode_lease_id(std::uint64_t lease_id);
[[nodiscard]] std::uint64_t decode_lease_id(std::string_view payload);

}  // namespace acute::fabric
