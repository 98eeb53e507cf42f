#include "passive/per_app.hpp"

#include "sim/contracts.hpp"

namespace acute::passive {

using sim::expects;
using sim::TimePoint;

PerAppMonitor::PerAppMonitor() : PerAppMonitor(Config{}) {}

PerAppMonitor::PerAppMonitor(Config config) : config_(config) {
  expects(config_.max_outstanding > 0,
          "PerAppMonitor requires max_outstanding > 0");
  reset();
}

void PerAppMonitor::watch_flow(net::NodeId phone, std::uint32_t flow_id,
                               std::size_t phone_index,
                               tools::ToolKind tool) {
  expects(find_flow(phone, flow_id) == nullptr,
          "PerAppMonitor::watch_flow: flow already watched");
  if (flow_count_ == flows_.size()) flows_.emplace_back();
  Flow& flow = flows_[flow_count_++];
  flow.phone = phone;
  flow.flow_id = flow_id;
  flow.phone_index = phone_index;
  flow.tool = tool;
  flow.next_ordinal = 0;
  flow.pending.clear();
  flow.pending.reserve(config_.max_outstanding);
}

void PerAppMonitor::on_app_send(const net::Packet& packet, TimePoint time) {
  if (packet.probe_id == 0) return;  // unmatched background traffic
  Flow* flow = find_flow(packet.src, packet.flow_id);
  if (flow == nullptr) return;
  // Evict stale unanswered sends (lost probes outlive their timeout here).
  std::size_t stale = 0;
  while (stale < flow->pending.size() &&
         time - flow->pending[stale].sent_at > config_.stale_after) {
    ++stale;
  }
  if (stale > 0) {
    flow->pending.erase(
        flow->pending.begin(),
        flow->pending.begin() + static_cast<std::ptrdiff_t>(stale));
  }
  // First-seen-wins, as at the capture point: an app-level retransmission
  // of the same probe must not restart its clock.
  for (const Pending& entry : flow->pending) {
    if (entry.probe_id == packet.probe_id) return;
  }
  if (flow->pending.size() >= config_.max_outstanding) {
    flow->pending.erase(flow->pending.begin());
  }
  flow->pending.push_back(Pending{packet.probe_id, time});
}

void PerAppMonitor::on_app_deliver(const net::Packet& packet,
                                   TimePoint time) {
  if (packet.probe_id == 0) return;
  Flow* flow = find_flow(packet.dst, packet.flow_id);
  if (flow == nullptr) return;
  for (auto it = flow->pending.begin(); it != flow->pending.end(); ++it) {
    if (it->probe_id != packet.probe_id) continue;
    RttSample sample;
    sample.phone_index = flow->phone_index;
    sample.tool = flow->tool;
    sample.ordinal = flow->next_ordinal++;
    sample.rtt_ms = (time - it->sent_at).to_ms();
    sample.matched_at = time;
    samples_.push_back(sample);
    flow->pending.erase(it);  // match-once
    return;
  }
}

PerAppMonitor::Flow* PerAppMonitor::find_flow(net::NodeId phone,
                                              std::uint32_t flow_id) {
  if (flow_id == 0) return nullptr;
  for (std::size_t i = 0; i < flow_count_; ++i) {
    Flow& flow = flows_[i];
    if (flow.phone == phone && flow.flow_id == flow_id) return &flow;
  }
  return nullptr;
}

std::size_t PerAppMonitor::outstanding() const {
  std::size_t total = 0;
  for (std::size_t i = 0; i < flow_count_; ++i) {
    total += flows_[i].pending.size();
  }
  return total;
}

void PerAppMonitor::reset() {
  flow_count_ = 0;
  samples_.clear();
}

}  // namespace acute::passive
