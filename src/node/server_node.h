#pragma once

/// \file server_node.h
/// A live collaborating logging server: pulls re-coded blocks from
/// random non-empty peers at rate c_s, feeds them to a progressive
/// GF(2^8) decoder bank, and announces completed segments with
/// SEGMENT_DECODED_ACK.
///
/// An ACK goes to the segment's origin — the peer session whose HELLO
/// node_id equals SegmentId::origin — plus every peer session whose
/// HELLO set wire::kHelloAllAcks (drop_on_ack peers, which purge other
/// origins' segments). So a decode costs one egress frame per server in
/// the default configuration, not one per session; servers are never
/// ACKed, since their banks converge through forwarding.
///
/// The paper pools all N_s servers into one collection state; separate
/// live processes realize that pooling by *forwarding*: every block a
/// server pulls that is innovative for its own bank is re-sent as a
/// GOSSIP_BLOCK to the other servers, whose banks absorb it without
/// counting a pull. In steady state every bank therefore tracks the
/// pooled rank (modulo forwarding latency), each segment decodes at
/// every server, and summed per-server innovative-pull counts remain
/// comparable to the simulator's pooled ServerBank
/// (tests/node_vs_sim_test.cpp holds them to its confidence interval).
///
/// Peer selection mirrors the simulator's uniform-non-empty rule using
/// the occupancy each PULL_BLOCK piggybacks: peers whose last reported
/// occupancy is zero are skipped (they re-enter the candidate set
/// optimistically after occupancy_refresh seconds, since a live server
/// cannot observe refills remotely). The selection is uniform rejection
/// sampling over eligible roster indices (proto/selection.h). Under a
/// feedback pull policy the want and feed rules of sched/pull_policies.h
/// name the wanted segment, and the server targets peers whose last
/// BUFFER_SUMMARY advertises it, found through the tracker's advertiser
/// index (sched::pick_advertiser) rather than a roster scan.
///
/// The bank keeps no decoded payloads: a completed segment's originals
/// go to the decode hook (set_decode_hook) and are released with the
/// decoder, leaving one completion record per decoded segment.

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "coding/segment_id.h"
#include "common/rng.h"
#include "node/node_base.h"
#include "obs/clock.h"
#include "proto/server_core.h"
#include "sched/rank_tracker.h"
#include "stats/latency_histogram.h"

namespace icollect::node {

class ServerNode final : public NodeBase {
 public:
  ServerNode(const NodeConfig& cfg, net::Transport& transport,
             net::TimerWheel& wheel, obs::MetricsRegistry* metrics = nullptr,
             const std::string& metric_prefix = "server.");

  /// Arm the pull process. Call once, after wiring.
  void start();

  /// Attach the shared per-run integrity authority (scenario pack).
  /// Call before start(): every pulled or forwarded block is verified
  /// and polluted ones are quarantined before Gaussian elimination.
  /// nullptr (the default) disables verification entirely.
  void set_integrity(const proto::IntegrityAuthority* authority) {
    core_.set_integrity(authority);
  }

  /// Invoked when this server's bank completes a segment. The event's
  /// decoder holds the recovered originals (nullptr under the
  /// state-counter process) and is valid only during the call: the bank
  /// keeps no payloads, so a hook that needs them copies or checks them
  /// there.
  using DecodeHook =
      std::function<void(const proto::ServerBank::DecodeEvent&)>;
  void set_decode_hook(DecodeHook hook) { decode_hook_ = std::move(hook); }

  /// The scheduling state backing rarest/deficit policies; nullptr
  /// under the uniform policy (NodeConfig::pull_policy).
  [[nodiscard]] const sched::RankTracker* tracker() const noexcept {
    return tracker_.get();
  }

  [[nodiscard]] const proto::ServerBank& bank() const noexcept {
    return core_.bank();
  }
  [[nodiscard]] proto::ServerBank& bank() noexcept { return core_.bank(); }

  // --- counters -----------------------------------------------------------
  [[nodiscard]] std::uint64_t pulls_sent() const noexcept {
    return pulls_sent_;
  }
  [[nodiscard]] std::uint64_t pull_replies() const noexcept {
    return pull_replies_;
  }
  [[nodiscard]] std::uint64_t pull_empty_replies() const noexcept {
    return pull_empty_replies_;
  }
  [[nodiscard]] std::uint64_t pulls_starved() const noexcept {
    return pulls_starved_;
  }
  [[nodiscard]] std::uint64_t innovative_pulls() const noexcept {
    return innovative_pulls_;
  }
  [[nodiscard]] std::uint64_t redundant_pulls() const noexcept {
    return redundant_pulls_;
  }
  [[nodiscard]] std::uint64_t stale_pulls() const noexcept {
    return stale_pulls_;
  }
  [[nodiscard]] std::uint64_t forwarded_out() const noexcept {
    return forwarded_out_;
  }
  [[nodiscard]] std::uint64_t forwarded_in() const noexcept {
    return forwarded_in_;
  }
  /// SEGMENT_DECODED_ACK frames sent.
  [[nodiscard]] std::uint64_t acks_sent() const noexcept {
    return acks_sent_;
  }
  /// SEGMENT_DECODED_ACKs received from other servers. Current servers
  /// never send them; an older server's are accepted and ignored.
  [[nodiscard]] std::uint64_t acks_received() const noexcept {
    return acks_received_;
  }
  /// Pulled blocks rejected by integrity verification (quarantined
  /// before they could reach the decoder bank).
  [[nodiscard]] std::uint64_t polluted_pulls() const noexcept {
    return polluted_pulls_;
  }
  /// All blocks (pulled + forwarded) the core quarantined.
  [[nodiscard]] std::uint64_t polluted_blocks() const noexcept {
    return core_.polluted_blocks();
  }
  [[nodiscard]] std::uint64_t segments_decoded() const noexcept {
    return core_.bank().segments_decoded();
  }
  /// BUFFER_SUMMARY frames merged into the tracker (0 under uniform).
  [[nodiscard]] std::uint64_t summaries_received() const noexcept {
    return summaries_received_;
  }
  /// Pulls that requested a specific segment (want-biased pulls).
  [[nodiscard]] std::uint64_t targeted_pulls() const noexcept {
    return targeted_pulls_;
  }

  // --- latency ------------------------------------------------------------
  /// PULL_REQUEST→PULL_BLOCK round trips, in the wheel's time base
  /// (virtual seconds over loopback, wall seconds over TCP). Always
  /// recorded; lives in the registry (as "<prefix>pull_rtt") when
  /// metrics are attached so snapshots export its quantiles.
  [[nodiscard]] const stats::LatencyHistogram& pull_rtt() const noexcept {
    return *pull_rtt_;
  }
  /// First block of a segment offered to the bank → segment decoded.
  [[nodiscard]] const stats::LatencyHistogram& decode_latency()
      const noexcept {
    return *decode_latency_;
  }

 protected:
  [[nodiscard]] wire::NodeRole role() const noexcept override {
    return wire::NodeRole::kServer;
  }
  void handle_message(Session& session, wire::Message&& message) override;
  void on_session_established(Session& session) override;
  void on_session_closed(Session& session) override;

 private:
  void schedule_pull();
  void do_pull();
  void handle_pull_block(Session& session, wire::PullBlock&& reply);
  void offer_to_bank(const coding::CodedBlock& block, bool from_pull,
                     net::NodeId from_conn);
  void on_bank_decode(const proto::ServerBank::DecodeEvent& event);

  /// Seconds after which a zero-occupancy report expires and the peer
  /// is probed again.
  static constexpr double kOccupancyRefresh = 1.0;

  /// Rejection-sampling probes per pull before falling back to a full
  /// roster scan. With fraction p of peers eligible, the fallback runs
  /// with probability (1-p)^16 — at 10k peers the scan would dominate
  /// every pull, so keeping selection O(1)-expected is what lets pull
  /// rate scale with the epoll reactor (docs/PERFORMANCE.md).
  static constexpr int kPullProbes = 16;

  /// Ceiling on pulls fired from one timer callback. schedule_pull
  /// batches Poisson arrivals that fall inside one wheel tick; the cap
  /// bounds the draw loop (and the callback) at absurd pull rates.
  static constexpr std::uint32_t kMaxPullBurst = 4096;

  /// In-flight pull budget: a token whose reply has not arrived after
  /// this many later pulls (dead peer, dropped frame) is forgotten.
  static constexpr std::uint32_t kMaxPendingPulls = 65536;

  common::Rng rng_;
  /// The wheel is the server's one clock; the core stamps bank events
  /// through it (virtual seconds over loopback, wall seconds over TCP).
  obs::CallbackClock wheel_clock_;
  proto::ServerCore core_;
  /// Deficit + availability state for feedback policies; nullptr under
  /// uniform so the default hot path carries zero scheduling overhead.
  std::unique_ptr<sched::RankTracker> tracker_;
  DecodeHook decode_hook_;
  std::uint32_t next_token_ = 1;

  struct OccupancyInfo {
    std::uint32_t blocks = 0;
    double reported_at = 0.0;
  };
  std::unordered_map<net::NodeId, OccupancyInfo> occupancy_;
  /// Roster index of every established peer session (peer_conns()
  /// order), so advertisers map to the indices the pull draws over.
  std::unordered_map<net::NodeId, std::size_t> roster_pos_;
  /// Scratch for sched::pick_advertiser's candidate list.
  std::vector<std::size_t> candidates_;

  /// Peer sessions by HELLO node_id — where a segment's ACK goes. A
  /// reconnect replaces its entry; closing the old conn then leaves the
  /// new one in place.
  std::unordered_map<std::uint32_t, net::NodeId> peer_by_id_;
  /// Established peer sessions whose HELLO set wire::kHelloAllAcks.
  std::size_t all_ack_sessions_ = 0;

  /// PULL_REQUEST send times by token, awaiting their PULL_BLOCK.
  std::unordered_map<std::uint32_t, double> pending_pulls_;
  /// When the bank first saw each still-undecoded segment.
  std::unordered_map<coding::SegmentId, double> first_seen_;
  /// Point at registry-owned histograms when metrics are attached, else
  /// at the own_* members — the hot path is identical either way.
  stats::LatencyHistogram* pull_rtt_ = nullptr;
  stats::LatencyHistogram* decode_latency_ = nullptr;
  stats::LatencyHistogram own_pull_rtt_;
  stats::LatencyHistogram own_decode_latency_;

  std::uint64_t pulls_sent_ = 0;
  std::uint64_t pull_replies_ = 0;
  std::uint64_t pull_empty_replies_ = 0;
  std::uint64_t pulls_starved_ = 0;
  std::uint64_t innovative_pulls_ = 0;
  std::uint64_t redundant_pulls_ = 0;
  std::uint64_t stale_pulls_ = 0;
  std::uint64_t forwarded_out_ = 0;
  std::uint64_t forwarded_in_ = 0;
  std::uint64_t acks_sent_ = 0;
  std::uint64_t acks_received_ = 0;
  std::uint64_t polluted_pulls_ = 0;
  std::uint64_t segments_decoded_metric_ = 0;
  std::uint64_t summaries_received_ = 0;
  std::uint64_t targeted_pulls_ = 0;
};

}  // namespace icollect::node
