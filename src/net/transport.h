#pragma once

/// \file transport.h
/// The pluggable transport seam between the live-node state machines
/// (src/node/) and whatever actually moves bytes.
///
/// A Transport hands a node an opaque connection handle (NodeId) per
/// remote endpoint and three events: the connection came up, went down,
/// or delivered bytes. Byte delivery is *stream*-shaped — a handler
/// receives whatever chunks the transport produced (a whole frame, half
/// a frame, three frames) and owns reassembly via wire::FrameDecoder —
/// so the node layer behaves identically over the deterministic
/// in-process loopback (net/loopback.h) and real TCP sockets
/// (net/stream_transport.h). Identity lives one layer up: a NodeId is
/// only a local connection handle; who is on the other end is learned
/// from its HELLO.

#include <cstdint>
#include <span>

namespace icollect::net {

/// Local connection handle. Scoped to one Transport instance; never
/// reused while the connection lives.
using NodeId = std::uint32_t;

inline constexpr NodeId kInvalidNodeId = 0xFFFFFFFFU;

/// Event sink a node registers with its transport. Callbacks fire on
/// the transport's driving thread (all transports here are
/// single-threaded event loops).
class TransportHandler {
 public:
  virtual ~TransportHandler() = default;

  /// The connection identified by `peer` is established (both for
  /// connections we initiated and ones we accepted).
  virtual void on_peer_up(NodeId peer) = 0;

  /// The connection is gone: closed by either side, failed to
  /// establish within its retry budget, or timed out.
  virtual void on_peer_down(NodeId peer) = 0;

  /// Stream bytes arrived from `peer`. The span is only valid for the
  /// duration of the call.
  virtual void on_bytes(NodeId peer, std::span<const std::uint8_t> bytes) = 0;
};

class Transport {
 public:
  virtual ~Transport() = default;

  /// Register the event sink (must outlive the transport's event loop).
  virtual void set_handler(TransportHandler* handler) = 0;

  /// Queue `bytes` for delivery to `peer`. Returns false when the send
  /// is refused — unknown/closed connection or per-peer backpressure
  /// cap exceeded — in which case nothing was queued. Partial sends
  /// never happen at this interface: a frame is queued whole or not at
  /// all.
  virtual bool send(NodeId peer, std::span<const std::uint8_t> bytes) = 0;

  /// Close one connection (on_peer_down fires for it).
  virtual void close_peer(NodeId peer) = 0;
};

}  // namespace icollect::net
