// PpingEstimator: passive TCP-timestamp RTT estimation at a capture point.
//
// The pping/DlyLoc algorithm, run against the testbed's sniffer array: the
// first time a TSval is seen leaving a watched flow its capture time is
// saved; the first time that value comes back as the reverse direction's
// TSecr, the difference of the two capture times is one RTT sample — no
// injected traffic, and (with a noiseless sniffer) exactly the dn the
// simulator's air stamps define, because both frames are timed at the same
// vantage point the t_n stamps use.
//
// First-seen-wins on both sides makes the estimator robust to
// retransmissions (a retransmitted TSval must not restart the clock) and
// to duplicated echoes (a TSecr matches once, then its entry is gone).
// Per-flow state is a flat table with bounded occupancy: entries older
// than `stale_after` — or beyond `max_outstanding` per flow — are evicted,
// so a flow that dies mid-handshake cannot grow the table. All storage is
// reserve()d up front and reset() keeps it warm, so the observe path
// allocates nothing in steady state.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "passive/observer.hpp"
#include "sim/time.hpp"
#include "tools/factory.hpp"

namespace acute::passive {

/// One passively estimated RTT sample, in emission (match) order.
struct RttSample {
  /// Scenario phone index the watched flow belongs to.
  std::size_t phone_index = 0;
  /// The active tool that owns the flow (attribution, not participation).
  tools::ToolKind tool = tools::ToolKind::icmp_ping;
  /// 0-based ordinal of this sample within its flow (emission order).
  int ordinal = 0;
  /// The estimated RTT in **milliseconds**.
  double rtt_ms = 0;
  /// Capture time of the matching echo (the sample's timestamp).
  sim::TimePoint matched_at;
};

class PpingEstimator : public CaptureObserver {
 public:
  /// Tuning knobs; the defaults suit campaign shards (seconds-long flows,
  /// a handful of probes in flight).
  struct Config {
    /// Pending TSval entries older than this are evicted unmatched.
    sim::Duration stale_after = sim::Duration::seconds(10);
    /// Hard cap on pending entries per flow; the oldest entry is evicted
    /// when a new send would exceed it.
    std::size_t max_outstanding = 64;
  };

  PpingEstimator();
  explicit PpingEstimator(Config config);

  /// Restricts estimation to `flow_id` on the phone with node id `phone`:
  /// only watched flows consume table space, and every sample is
  /// attributed to (phone_index, tool). Flow ids are per-phone, so the
  /// phone's node id is part of the key.
  void watch_flow(net::NodeId phone, std::uint32_t flow_id,
                  std::size_t phone_index, tools::ToolKind tool);

  /// CaptureObserver: collided frames and non-TCP traffic are ignored;
  /// phone-egress frames of a watched flow record their TSval, AP-egress
  /// frames toward the phone match their TSecr.
  void on_capture(const net::Packet& packet, net::NodeId transmitter,
                  net::NodeId receiver, sim::TimePoint time,
                  bool collided) override;

  /// Every matched sample so far, in emission order.
  [[nodiscard]] const std::vector<RttSample>& samples() const {
    return samples_;
  }

  /// Smallest RTT matched so far on the watched flow of `phone_index`, in
  /// milliseconds (pping's min-RTT tracking); negative when no sample has
  /// matched for that phone yet.
  [[nodiscard]] double min_rtt_ms(std::size_t phone_index) const;

  /// Pending (unmatched) TSval entries across all watched flows.
  [[nodiscard]] std::size_t outstanding() const;
  /// Entries evicted unmatched (staleness or per-flow cap) so far.
  [[nodiscard]] std::size_t evicted() const { return evicted_; }

  /// The one setup path (sim/resettable.hpp): no watched flows, no
  /// samples; the config stays and all storage keeps its capacity.
  void reset();

 private:
  /// A saved outbound TSval: first capture time of that value on its flow.
  struct Pending {
    std::uint32_t tsval = 0;
    sim::TimePoint sent_at;
  };
  struct Flow {
    net::NodeId phone = 0;
    std::uint32_t flow_id = 0;
    std::size_t phone_index = 0;
    tools::ToolKind tool = tools::ToolKind::icmp_ping;
    int next_ordinal = 0;
    double min_rtt_ms = -1;
    std::vector<Pending> pending;  // insertion (capture-time) order
  };

  [[nodiscard]] Flow* find_flow(net::NodeId phone, std::uint32_t flow_id);
  void record_send(Flow& flow, std::uint32_t tsval, sim::TimePoint time);
  void match_echo(Flow& flow, std::uint32_t tsecr, sim::TimePoint time);
  void evict_stale(Flow& flow, sim::TimePoint now);

  Config config_;
  // Slot pool: the first flow_count_ entries are live; reset() rewinds the
  // count instead of clearing the vector, so each slot's Pending buffer
  // keeps its heap allocation across shards.
  std::vector<Flow> flows_;
  std::size_t flow_count_ = 0;
  std::vector<RttSample> samples_;
  std::size_t evicted_ = 0;
};

}  // namespace acute::passive
