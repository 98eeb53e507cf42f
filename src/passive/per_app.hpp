// PerAppMonitor: MopEye-style per-app passive RTT at the exec-env boundary.
//
// MopEye measures without injecting traffic by sitting on the phone itself
// (a VpnService in the real system) and pairing each app's outgoing packet
// with the response the stack later delivers to it. Here the monitor is a
// passive::FlowTap hooked into phone::ExecEnvLayer's flow demux: it sees
// every packet an app sends at the t_u^o instant and every packet the
// layer delivers at the t_u^i instant, pairs them by probe id within the
// owning flow, and attributes the resulting RTT — exactly
// t_u^i - t_u^o, the app-boundary round trip, runtime overheads included —
// to the (phone, flow, tool) that owns the traffic.
//
// Like the capture-point estimator it keeps flat per-flow tables with
// bounded occupancy and warm storage across reset(): the observe path
// allocates nothing in steady state and never copies a Packet.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "passive/observer.hpp"
#include "passive/pping.hpp"
#include "sim/time.hpp"
#include "tools/factory.hpp"

namespace acute::passive {

class PerAppMonitor : public FlowTap {
 public:
  struct Config {
    /// Unanswered sends older than this are evicted unmatched.
    sim::Duration stale_after = sim::Duration::seconds(10);
    /// Hard cap on unanswered sends per flow (oldest evicted beyond it).
    std::size_t max_outstanding = 64;
  };

  PerAppMonitor();
  explicit PerAppMonitor(Config config);

  /// Attributes traffic of `flow_id` on the phone with node id `phone` to
  /// (phone_index, tool). Only watched flows are tracked. One monitor may
  /// watch flows of many phones: a send is keyed by the packet's source
  /// node, a delivery by its destination node.
  void watch_flow(net::NodeId phone, std::uint32_t flow_id,
                  std::size_t phone_index, tools::ToolKind tool);

  // FlowTap.
  void on_app_send(const net::Packet& packet, sim::TimePoint time) override;
  void on_app_deliver(const net::Packet& packet,
                      sim::TimePoint time) override;

  /// Every matched sample so far, in emission (delivery) order.
  [[nodiscard]] const std::vector<RttSample>& samples() const {
    return samples_;
  }

  /// Unanswered sends across all watched flows.
  [[nodiscard]] std::size_t outstanding() const;

  /// The one setup path (sim/resettable.hpp): no watched flows, no
  /// samples; the config stays and all storage keeps its capacity.
  void reset();

 private:
  struct Pending {
    std::uint64_t probe_id = 0;
    sim::TimePoint sent_at;
  };
  struct Flow {
    net::NodeId phone = 0;
    std::uint32_t flow_id = 0;
    std::size_t phone_index = 0;
    tools::ToolKind tool = tools::ToolKind::icmp_ping;
    int next_ordinal = 0;
    std::vector<Pending> pending;  // send order
  };

  [[nodiscard]] Flow* find_flow(net::NodeId phone, std::uint32_t flow_id);

  Config config_;
  // Slot pool, same shape as PpingEstimator's: the first flow_count_
  // entries are live, reset() rewinds the count so Pending buffers stay
  // allocated across shards.
  std::vector<Flow> flows_;
  std::size_t flow_count_ = 0;
  std::vector<RttSample> samples_;
};

}  // namespace acute::passive
