#pragma once

/// \file message.h
/// The live-node protocol vocabulary: every message two icollect nodes
/// can exchange, as plain structs. This is the protocol from Sec. 2 of
/// the paper made concrete for real processes — gossip push
/// (GOSSIP_BLOCK), the servers' coupon-collector pull
/// (PULL_REQUEST / PULL_BLOCK), decode notification
/// (SEGMENT_DECODED_ACK), plus session bracketing (HELLO / BYE) with
/// version negotiation. Frame layout and the byte-level codec live in
/// frame.h; docs/PROTOCOL.md documents the format normatively.

#include <cstdint>
#include <optional>
#include <variant>
#include <vector>

#include "coding/coded_block.h"
#include "coding/segment_id.h"

namespace icollect::wire {

/// Protocol version this build speaks. A HELLO advertises an inclusive
/// [version_min, version_max] range; two nodes interoperate iff the
/// ranges intersect (they then speak the highest common version).
inline constexpr std::uint8_t kProtocolVersion = 1;

enum class MessageType : std::uint8_t {
  kHello = 1,
  kGossipBlock = 2,
  kPullRequest = 3,
  kPullBlock = 4,
  kSegmentDecodedAck = 5,
  kBye = 6,
  kBufferSummary = 7,
};

[[nodiscard]] constexpr bool is_valid_type(std::uint8_t t) noexcept {
  return t >= static_cast<std::uint8_t>(MessageType::kHello) &&
         t <= static_cast<std::uint8_t>(MessageType::kBufferSummary);
}

[[nodiscard]] constexpr const char* to_string(MessageType t) noexcept {
  switch (t) {
    case MessageType::kHello: return "hello";
    case MessageType::kGossipBlock: return "gossip-block";
    case MessageType::kPullRequest: return "pull-request";
    case MessageType::kPullBlock: return "pull-block";
    case MessageType::kSegmentDecodedAck: return "segment-decoded-ack";
    case MessageType::kBye: return "bye";
    case MessageType::kBufferSummary: return "buffer-summary";
  }
  return "?";
}

enum class NodeRole : std::uint8_t {
  kPeer = 0,    ///< buffers and gossips coded blocks
  kServer = 1,  ///< pulls, decodes, acknowledges
};

[[nodiscard]] constexpr const char* to_string(NodeRole r) noexcept {
  switch (r) {
    case NodeRole::kPeer: return "peer";
    case NodeRole::kServer: return "server";
  }
  return "?";
}

/// HELLO `flags` bit 0: "send me every SEGMENT_DECODED_ACK", not only
/// the ACKs for segments I originated. Set by peers that purge
/// acknowledged segments from their buffers (drop_on_ack).
inline constexpr std::uint8_t kHelloAllAcks = 0x01;

/// Session opener; first frame on every connection, sent by both sides.
struct Hello {
  NodeRole role = NodeRole::kPeer;
  std::uint8_t version_min = kProtocolVersion;
  std::uint8_t version_max = kProtocolVersion;
  /// kHello* bits. Carried verbatim; receivers ignore bits they do not
  /// know, and a pre-flags node's reserved 0 means "origin ACKs only".
  std::uint8_t flags = 0;
  std::uint32_t node_id = 0;      ///< the sender's stable identity
  std::uint16_t segment_size = 0; ///< s the sender codes with
  std::uint32_t buffer_cap = 0;   ///< B (peers; 0 for servers)
};

[[nodiscard]] constexpr bool wants_all_acks(const Hello& h) noexcept {
  return (h.flags & kHelloAllAcks) != 0;
}

/// One re-coded block pushed peer→peer (gossip), or forwarded
/// server→server to keep the collaborating servers' decoder banks
/// converged (the live realization of the paper's pooled server state).
struct GossipBlock {
  coding::CodedBlock block;
};

/// Server→peer: "send me one re-coded block of a uniformly random
/// segment in your buffer". `token` correlates the reply.
///
/// Scheduling extension (wire-compatible with version-1 nodes that
/// never set it): `want` names the specific segment the pulling server
/// wants next — the peer answers with a re-code of that segment when it
/// holds it and falls back to the uniform rule otherwise — and
/// `want_summary` asks the peer to piggyback a BUFFER_SUMMARY on the
/// reply. When neither is set the body encodes in the original 4-byte
/// form, so default-policy traffic stays byte-identical.
struct PullRequest {
  std::uint32_t token = 0;
  bool want_summary = false;
  std::optional<coding::SegmentId> want;
};

/// Peer→server reply. `occupancy` piggybacks the peer's current buffered
/// block count so servers can steer pulls toward non-empty peers (the
/// paper's occupancy-aware pull rule) without a separate control
/// channel. `has_block` is false when the buffer was empty.
struct PullBlock {
  std::uint32_t token = 0;
  std::uint32_t occupancy = 0;
  bool has_block = false;
  coding::CodedBlock block;  ///< meaningful iff has_block
};

/// Server→peer: a segment's collection completed (rank reached s).
/// Sent to the session whose HELLO node_id is the segment's origin, and
/// to every peer session whose HELLO set kHelloAllAcks; never to
/// servers.
struct SegmentDecodedAck {
  coding::SegmentId segment;
};

enum class ByeReason : std::uint8_t {
  kNormal = 0,
  kVersionMismatch = 1,
  kProtocolError = 2,
  kShutdown = 3,
};

[[nodiscard]] constexpr const char* to_string(ByeReason r) noexcept {
  switch (r) {
    case ByeReason::kNormal: return "normal";
    case ByeReason::kVersionMismatch: return "version-mismatch";
    case ByeReason::kProtocolError: return "protocol-error";
    case ByeReason::kShutdown: return "shutdown";
  }
  return "?";
}

/// Session closer; the connection is dropped after sending/receiving.
struct Bye {
  ByeReason reason = ByeReason::kNormal;
};

/// BUFFER_SUMMARY body codec version; bumped independently of the frame
/// protocol version so the summary format can evolve without a
/// HELLO-level break.
inline constexpr std::uint8_t kBufferSummaryVersion = 1;

/// Upper bound on segment ids per summary: caps decoder allocation
/// against forged counts and bounds the piggyback cost per pull reply.
inline constexpr std::size_t kMaxSummarySegments = 4096;

/// Peer→server: the ids of every segment currently in the sender's
/// buffer (truncated to kMaxSummarySegments in buffer order). Sent only
/// on request — a PullRequest with `want_summary` — so servers running
/// the default uniform policy generate zero summary traffic. Feeds
/// sched::RankTracker's per-peer availability estimates; staleness
/// bounding is the receiver's job (docs/PULL_POLICIES.md).
struct BufferSummary {
  std::vector<coding::SegmentId> segments;
};

using Message = std::variant<Hello, GossipBlock, PullRequest, PullBlock,
                             SegmentDecodedAck, Bye, BufferSummary>;

[[nodiscard]] constexpr MessageType type_of(const Message& m) noexcept {
  switch (m.index()) {
    case 0: return MessageType::kHello;
    case 1: return MessageType::kGossipBlock;
    case 2: return MessageType::kPullRequest;
    case 3: return MessageType::kPullBlock;
    case 4: return MessageType::kSegmentDecodedAck;
    case 5: return MessageType::kBye;
    default: return MessageType::kBufferSummary;
  }
}

}  // namespace icollect::wire
