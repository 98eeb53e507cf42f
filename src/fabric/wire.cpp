#include "fabric/wire.hpp"

#include <algorithm>
#include <cstring>

#include "sim/contracts.hpp"

namespace acute::fabric {

using sim::expects;

namespace {

void put_u32(std::string& out, std::uint32_t value) {
  for (int byte = 0; byte < 4; ++byte) {
    out.push_back(static_cast<char>((value >> (8 * byte)) & 0xff));
  }
}

void put_u64(std::string& out, std::uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    out.push_back(static_cast<char>((value >> (8 * byte)) & 0xff));
  }
}

/// Bounds-checked little-endian reader over a frame payload; any overrun is
/// a torn frame, reported loudly like every other wire malformation.
struct Cursor {
  std::string_view bytes;

  std::uint32_t u32() { return static_cast<std::uint32_t>(take(4)); }
  std::uint64_t u64() { return take(8); }

  std::uint64_t take(int width) {
    expects(bytes.size() >= static_cast<std::size_t>(width),
            "fabric wire: truncated frame payload");
    std::uint64_t value = 0;
    for (int byte = 0; byte < width; ++byte) {
      value |= static_cast<std::uint64_t>(
                   static_cast<unsigned char>(bytes[byte]))
               << (8 * byte);
    }
    bytes.remove_prefix(static_cast<std::size_t>(width));
    return value;
  }

  void done() const {
    expects(bytes.empty(), "fabric wire: trailing bytes in frame payload");
  }
};

/// Reads exactly `size` bytes. False only on EOF before the first byte;
/// EOF after a partial read is a torn frame.
bool recv_exact(Transport& transport, void* data, std::size_t size) {
  char* bytes = static_cast<char*>(data);
  std::size_t read = 0;
  while (read < size) {
    const std::size_t got = transport.recv_some(bytes + read, size - read);
    if (got == 0) {
      expects(read == 0, "fabric wire: torn frame (peer died mid-frame)");
      return false;
    }
    read += got;
  }
  return true;
}

}  // namespace

void write_frame(Transport& transport, FrameType type,
                 std::string_view payload) {
  expects(payload.size() < kMaxFrameBytes,
          "fabric wire: frame payload exceeds the protocol cap");
  std::string frame;
  frame.reserve(4 + 1 + payload.size());
  put_u32(frame, static_cast<std::uint32_t>(1 + payload.size()));
  frame.push_back(static_cast<char>(type));
  frame.append(payload);
  transport.send_all(frame.data(), frame.size());
}

std::size_t frame_size(std::string_view prefix) {
  if (prefix.size() < 4) return 0;
  std::uint32_t length = 0;
  for (int byte = 0; byte < 4; ++byte) {
    const auto value = static_cast<unsigned char>(prefix[byte]);
    length |= static_cast<std::uint32_t>(value) << (8 * byte);
  }
  expects(length >= 1 && length <= kMaxFrameBytes,
          "fabric wire: torn frame (implausible length)");
  if (prefix.size() < kFrameHeaderBytes) return 0;
  const auto type = static_cast<unsigned char>(prefix[4]);
  expects(type >= static_cast<unsigned char>(FrameType::hello) &&
              type <= static_cast<unsigned char>(FrameType::shutdown),
          "fabric wire: torn frame (unknown frame type)");
  return 4 + std::size_t{length};
}

bool read_frame(Transport& transport, Frame& out) {
  char header[kFrameHeaderBytes];
  if (!recv_exact(transport, header, 4)) return false;
  (void)frame_size(std::string_view(header, 4));  // length before type
  expects(recv_exact(transport, header + 4, 1),
          "fabric wire: torn frame (peer died mid-frame)");
  const std::size_t size = frame_size(std::string_view(header, sizeof header));
  out.type = static_cast<FrameType>(static_cast<unsigned char>(header[4]));
  out.payload.resize(size - kFrameHeaderBytes);
  if (!out.payload.empty()) {
    expects(recv_exact(transport, out.payload.data(), out.payload.size()),
            "fabric wire: torn frame (peer died mid-frame)");
  }
  return true;
}

bool FrameReader::next(FrameView& out) {
  const std::string_view buffered(buffer_.data() + begin_, end_ - begin_);
  const std::size_t size = frame_size(buffered);
  if (size == 0 || buffered.size() < size) return false;
  out.type =
      static_cast<FrameType>(static_cast<unsigned char>(buffered[4]));
  out.payload = buffered.substr(kFrameHeaderBytes, size - kFrameHeaderBytes);
  begin_ += size;
  return true;
}

bool FrameReader::fill() {
  // A read takes up to this much. A one-tool shard_done frame is ~0.8 KiB
  // (perfbench sweep-fabric: 812-B record + 13 B of header and lease id),
  // so a default 16-shard lease with its heartbeats is ~13 KiB and one
  // recv usually drains every frame a worker has queued.
  constexpr std::size_t kReadBytes = 16u << 10;
  // Slide the partial frame (if any) to the front, then make room for all
  // of it: frame_size() has validated its header before it sizes anything.
  const std::size_t held = end_ - begin_;
  if (begin_ > 0) {
    std::memmove(buffer_.data(), buffer_.data() + begin_, held);
    begin_ = 0;
    end_ = held;
  }
  const std::size_t frame = frame_size(std::string_view(buffer_.data(), held));
  if (buffer_.size() < std::max(kReadBytes, frame)) {
    buffer_.resize(std::max(kReadBytes, frame));
  }
  const std::size_t got =
      transport_.recv_some(buffer_.data() + end_, buffer_.size() - end_);
  if (got == 0) {
    expects(held == 0, "fabric wire: torn frame (peer died mid-frame)");
    return false;
  }
  end_ += got;
  return true;
}

std::string encode_hello(const HelloBody& body) {
  std::string payload;
  put_u32(payload, body.protocol);
  put_u64(payload, body.spec_hash);
  put_u64(payload, body.seed);
  put_u64(payload, body.shard_count);
  return payload;
}

HelloBody decode_hello(std::string_view payload) {
  Cursor cursor{payload};
  HelloBody body;
  body.protocol = cursor.u32();
  body.spec_hash = cursor.u64();
  body.seed = cursor.u64();
  body.shard_count = cursor.u64();
  cursor.done();
  return body;
}

std::string encode_lease_grant(const LeaseGrantBody& body) {
  std::string payload;
  put_u64(payload, body.lease_id);
  put_u64(payload, body.begin);
  put_u64(payload, body.end);
  return payload;
}

LeaseGrantBody decode_lease_grant(std::string_view payload) {
  Cursor cursor{payload};
  LeaseGrantBody body;
  body.lease_id = cursor.u64();
  body.begin = cursor.u64();
  body.end = cursor.u64();
  cursor.done();
  expects(body.begin < body.end, "fabric wire: empty lease grant range");
  return body;
}

std::string encode_shard_done(const ShardDoneBody& body) {
  std::string payload;
  put_u64(payload, body.lease_id);
  payload.append(body.record_line);
  return payload;
}

ShardDoneBody decode_shard_done(std::string_view payload) {
  const auto [lease_id, record_line] = split_shard_done(payload);
  return ShardDoneBody{lease_id, std::string(record_line)};
}

std::pair<std::uint64_t, std::string_view> split_shard_done(
    std::string_view payload) {
  Cursor cursor{payload};
  const std::uint64_t lease_id = cursor.u64();
  return {lease_id, cursor.bytes};
}

std::string encode_lease_id(std::uint64_t lease_id) {
  std::string payload;
  put_u64(payload, lease_id);
  return payload;
}

std::uint64_t decode_lease_id(std::string_view payload) {
  Cursor cursor{payload};
  const std::uint64_t lease_id = cursor.u64();
  cursor.done();
  return lease_id;
}

}  // namespace acute::fabric
