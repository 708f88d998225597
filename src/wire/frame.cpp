#include "wire/frame.h"

#include <algorithm>

#include "common/crc32.h"
#include "wire/io.h"

namespace icollect::wire {

namespace {

/// Body size of a coded block: segment id + s + payload length prefix
/// + coefficients + payload.
std::size_t block_bytes(const coding::CodedBlock& b) {
  return 4 + 4 + 2 + 4 + b.coefficients.size() + b.payload.size();
}

void write_block(ByteWriter& w, const coding::CodedBlock& b) {
  w.u32(b.segment.origin);
  w.u32(b.segment.seq);
  w.u16(static_cast<std::uint16_t>(b.coefficients.size()));
  w.u32(static_cast<std::uint32_t>(b.payload.size()));
  w.bytes({b.coefficients.data(), b.coefficients.size()});
  w.bytes({b.payload.data(), b.payload.size()});
}

/// Read one coded block. Lengths are validated against the bytes
/// actually present *before* any allocation, so a forged length prefix
/// cannot balloon memory.
[[nodiscard]] bool read_block(ByteReader& r, coding::CodedBlock& out) {
  out.segment.origin = r.u32();
  out.segment.seq = r.u32();
  const std::uint16_t s = r.u16();
  const std::uint32_t payload_len = r.u32();
  if (!r.ok()) return false;
  if (s == 0 || s > kMaxWireSegmentSize) return false;
  if (static_cast<std::size_t>(s) + payload_len > r.remaining()) return false;
  const auto coeffs = r.bytes(s);
  const auto payload = r.bytes(payload_len);
  if (!r.ok()) return false;
  out.coefficients.assign(coeffs.begin(), coeffs.end());
  out.payload.assign(payload.begin(), payload.end());
  return true;
}

}  // namespace

void encode_body(const Message& m, std::vector<std::uint8_t>& out) {
  ByteWriter w{out};
  switch (type_of(m)) {
    case MessageType::kHello: {
      const auto& h = std::get<Hello>(m);
      w.u8(static_cast<std::uint8_t>(h.role));
      w.u8(h.version_min);
      w.u8(h.version_max);
      w.u8(h.flags);
      w.u32(h.node_id);
      w.u16(h.segment_size);
      w.u16(0);  // reserved
      w.u32(h.buffer_cap);
      break;
    }
    case MessageType::kGossipBlock:
      write_block(w, std::get<GossipBlock>(m).block);
      break;
    case MessageType::kPullRequest: {
      const auto& p = std::get<PullRequest>(m);
      w.u32(p.token);
      // Legacy 4-byte body unless a scheduling extension is in play —
      // the default uniform policy stays byte-identical on the wire.
      if (p.want_summary || p.want) {
        const std::uint8_t flags = static_cast<std::uint8_t>(
            (p.want_summary ? 1U : 0U) | (p.want ? 2U : 0U));
        w.u8(flags);
        if (p.want) {
          w.u32(p.want->origin);
          w.u32(p.want->seq);
        }
      }
      break;
    }
    case MessageType::kPullBlock: {
      const auto& p = std::get<PullBlock>(m);
      w.u32(p.token);
      w.u32(p.occupancy);
      w.u8(p.has_block ? 1 : 0);
      if (p.has_block) write_block(w, p.block);
      break;
    }
    case MessageType::kSegmentDecodedAck: {
      const auto& a = std::get<SegmentDecodedAck>(m);
      w.u32(a.segment.origin);
      w.u32(a.segment.seq);
      break;
    }
    case MessageType::kBye:
      w.u8(static_cast<std::uint8_t>(std::get<Bye>(m).reason));
      break;
    case MessageType::kBufferSummary: {
      const auto& s = std::get<BufferSummary>(m);
      const std::size_t count =
          std::min(s.segments.size(), kMaxSummarySegments);
      w.u8(kBufferSummaryVersion);
      w.u8(0);  // reserved
      w.u16(static_cast<std::uint16_t>(count));
      for (std::size_t i = 0; i < count; ++i) {
        w.u32(s.segments[i].origin);
        w.u32(s.segments[i].seq);
      }
      break;
    }
  }
}

DecodeStatus decode_body(MessageType type, std::span<const std::uint8_t> body,
                         Message& out) {
  ByteReader r{body};
  switch (type) {
    case MessageType::kHello: {
      Hello h;
      const std::uint8_t role = r.u8();
      h.version_min = r.u8();
      h.version_max = r.u8();
      h.flags = r.u8();
      h.node_id = r.u32();
      h.segment_size = r.u16();
      (void)r.u16();  // reserved
      h.buffer_cap = r.u32();
      if (!r.done() || role > static_cast<std::uint8_t>(NodeRole::kServer) ||
          h.version_min > h.version_max) {
        return DecodeStatus::kMalformedBody;
      }
      h.role = static_cast<NodeRole>(role);
      out = h;
      return DecodeStatus::kFrame;
    }
    case MessageType::kGossipBlock: {
      GossipBlock g;
      if (!read_block(r, g.block) || !r.done()) {
        return DecodeStatus::kMalformedBody;
      }
      out = std::move(g);
      return DecodeStatus::kFrame;
    }
    case MessageType::kPullRequest: {
      PullRequest p;
      p.token = r.u32();
      if (!r.ok()) return DecodeStatus::kMalformedBody;
      if (!r.done()) {
        // Scheduling extension: flags byte, then the wanted segment id
        // when flag bit 1 is set. A flags byte that encodes nothing
        // (0) or unknown bits is malformed.
        const std::uint8_t flags = r.u8();
        if (!r.ok() || flags == 0 || flags > 3) {
          return DecodeStatus::kMalformedBody;
        }
        p.want_summary = (flags & 1U) != 0;
        if ((flags & 2U) != 0) {
          coding::SegmentId want;
          want.origin = r.u32();
          want.seq = r.u32();
          if (!r.ok()) return DecodeStatus::kMalformedBody;
          p.want = want;
        }
        if (!r.done()) return DecodeStatus::kMalformedBody;
      }
      out = p;
      return DecodeStatus::kFrame;
    }
    case MessageType::kPullBlock: {
      PullBlock p;
      p.token = r.u32();
      p.occupancy = r.u32();
      const std::uint8_t has = r.u8();
      if (!r.ok() || has > 1) return DecodeStatus::kMalformedBody;
      p.has_block = has == 1;
      if (p.has_block && !read_block(r, p.block)) {
        return DecodeStatus::kMalformedBody;
      }
      if (!r.done()) return DecodeStatus::kMalformedBody;
      out = std::move(p);
      return DecodeStatus::kFrame;
    }
    case MessageType::kSegmentDecodedAck: {
      SegmentDecodedAck a;
      a.segment.origin = r.u32();
      a.segment.seq = r.u32();
      if (!r.done()) return DecodeStatus::kMalformedBody;
      out = a;
      return DecodeStatus::kFrame;
    }
    case MessageType::kBye: {
      const std::uint8_t reason = r.u8();
      if (!r.done() ||
          reason > static_cast<std::uint8_t>(ByeReason::kShutdown)) {
        return DecodeStatus::kMalformedBody;
      }
      out = Bye{static_cast<ByeReason>(reason)};
      return DecodeStatus::kFrame;
    }
    case MessageType::kBufferSummary: {
      const std::uint8_t version = r.u8();
      (void)r.u8();  // reserved
      const std::uint16_t count = r.u16();
      if (!r.ok() || version != kBufferSummaryVersion ||
          count > kMaxSummarySegments) {
        return DecodeStatus::kMalformedBody;
      }
      // Validate the advertised count against the bytes actually
      // present before any allocation (same rule as read_block).
      if (static_cast<std::size_t>(count) * 8 != r.remaining()) {
        return DecodeStatus::kMalformedBody;
      }
      BufferSummary s;
      s.segments.resize(count);
      for (auto& id : s.segments) {
        id.origin = r.u32();
        id.seq = r.u32();
      }
      if (!r.done()) return DecodeStatus::kMalformedBody;
      out = std::move(s);
      return DecodeStatus::kFrame;
    }
  }
  return DecodeStatus::kBadType;
}

std::size_t frame_size(const Message& m) {
  std::size_t body = 0;
  switch (type_of(m)) {
    case MessageType::kHello: body = 16; break;
    case MessageType::kGossipBlock:
      body = block_bytes(std::get<GossipBlock>(m).block);
      break;
    case MessageType::kPullRequest: {
      const auto& p = std::get<PullRequest>(m);
      body = 4;
      if (p.want_summary || p.want) body += 1 + (p.want ? 8 : 0);
      break;
    }
    case MessageType::kPullBlock: {
      const auto& p = std::get<PullBlock>(m);
      body = 9 + (p.has_block ? block_bytes(p.block) : 0);
      break;
    }
    case MessageType::kSegmentDecodedAck: body = 8; break;
    case MessageType::kBye: body = 1; break;
    case MessageType::kBufferSummary:
      body = 4 + 8 * std::min(std::get<BufferSummary>(m).segments.size(),
                              kMaxSummarySegments);
      break;
  }
  return kFrameHeaderBytes + body;
}

void encode_frame(const Message& m, std::vector<std::uint8_t>& out) {
  const std::size_t header_at = out.size();
  out.resize(header_at + kFrameHeaderBytes);
  const std::size_t body_at = out.size();
  encode_body(m, out);
  const std::size_t body_len = out.size() - body_at;
  const std::uint32_t crc =
      common::crc32({out.data() + body_at, body_len});

  // Fill the header in place now that the body length and CRC are known.
  std::uint8_t* h = out.data() + header_at;
  std::copy(kMagic.begin(), kMagic.end(), h);
  h[4] = kProtocolVersion;
  h[5] = static_cast<std::uint8_t>(type_of(m));
  h[6] = 0;
  h[7] = 0;
  const auto put32 = [](std::uint8_t* p, std::uint32_t v) {
    p[0] = static_cast<std::uint8_t>(v);
    p[1] = static_cast<std::uint8_t>(v >> 8U);
    p[2] = static_cast<std::uint8_t>(v >> 16U);
    p[3] = static_cast<std::uint8_t>(v >> 24U);
  };
  put32(h + 8, static_cast<std::uint32_t>(body_len));
  put32(h + 12, crc);
}

std::vector<std::uint8_t> encoded_frame(const Message& m) {
  std::vector<std::uint8_t> out;
  out.reserve(frame_size(m));
  encode_frame(m, out);
  return out;
}

void FrameDecoder::feed(std::span<const std::uint8_t> bytes) {
  // Compact the consumed prefix before appending so the buffer's high-
  // water mark stays near one frame plus one read chunk.
  if (head_ > 0 && (head_ >= buf_.size() || head_ > 4096)) {
    buf_.erase(buf_.begin(),
               buf_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
  buf_.insert(buf_.end(), bytes.begin(), bytes.end());
}

FrameDecoder::Result FrameDecoder::next() {
  if (is_error(latched_)) return {latched_, {}};
  const auto fail = [this](DecodeStatus s) -> Result {
    latched_ = s;
    ++errors_;
    ++by_status_[static_cast<std::size_t>(s)];
    return {s, {}};
  };
  if (buffered_bytes() < kFrameHeaderBytes) {
    return {DecodeStatus::kNeedMore, {}};
  }
  const std::uint8_t* h = buf_.data() + head_;
  if (!std::equal(kMagic.begin(), kMagic.end(), h)) {
    return fail(DecodeStatus::kBadMagic);
  }
  if (h[4] != kProtocolVersion) return fail(DecodeStatus::kBadVersion);
  if (!is_valid_type(h[5])) return fail(DecodeStatus::kBadType);
  const auto get32 = [](const std::uint8_t* p) {
    return static_cast<std::uint32_t>(p[0]) |
           (static_cast<std::uint32_t>(p[1]) << 8U) |
           (static_cast<std::uint32_t>(p[2]) << 16U) |
           (static_cast<std::uint32_t>(p[3]) << 24U);
  };
  const std::uint32_t body_len = get32(h + 8);
  if (body_len > max_body_) return fail(DecodeStatus::kOversized);
  if (buffered_bytes() < kFrameHeaderBytes + body_len) {
    return {DecodeStatus::kNeedMore, {}};
  }
  const std::span<const std::uint8_t> body{h + kFrameHeaderBytes, body_len};
  if (common::crc32(body) != get32(h + 12)) {
    return fail(DecodeStatus::kBadCrc);
  }
  Message msg;
  const DecodeStatus st =
      decode_body(static_cast<MessageType>(h[5]), body, msg);
  if (st != DecodeStatus::kFrame) return fail(st);
  head_ += kFrameHeaderBytes + body_len;
  ++frames_;
  return {DecodeStatus::kFrame, std::move(msg)};
}

void FrameDecoder::reset() {
  if (is_error(latched_)) ++resyncs_;
  buf_.clear();
  head_ = 0;
  latched_ = DecodeStatus::kNeedMore;
}

}  // namespace icollect::wire
