#include "passive/pping.hpp"

#include "sim/contracts.hpp"

namespace acute::passive {

using sim::expects;
using sim::TimePoint;

const char* to_string(PassiveVantage vantage) {
  switch (vantage) {
    case PassiveVantage::none:
      return "none";
    case PassiveVantage::sniffer:
      return "sniffer";
    case PassiveVantage::exec_env:
      return "exec-env";
    case PassiveVantage::both:
      return "both";
  }
  return "?";
}

std::optional<PassiveVantage> parse_passive_vantage(std::string_view name) {
  if (name == "none") return PassiveVantage::none;
  if (name == "sniffer") return PassiveVantage::sniffer;
  if (name == "exec-env") return PassiveVantage::exec_env;
  if (name == "both") return PassiveVantage::both;
  return std::nullopt;
}

PpingEstimator::PpingEstimator() : PpingEstimator(Config{}) {}

PpingEstimator::PpingEstimator(Config config) : config_(config) {
  expects(config_.max_outstanding > 0,
          "PpingEstimator requires max_outstanding > 0");
  reset();
}

void PpingEstimator::watch_flow(net::NodeId phone, std::uint32_t flow_id,
                                std::size_t phone_index,
                                tools::ToolKind tool) {
  expects(find_flow(phone, flow_id) == nullptr,
          "PpingEstimator::watch_flow: flow already watched");
  // Reuse a retired slot when one exists: its Pending buffer kept its heap
  // allocation across reset(), so re-watching after a shard-context reuse
  // allocates nothing once the pool is warm.
  if (flow_count_ == flows_.size()) flows_.emplace_back();
  Flow& flow = flows_[flow_count_++];
  flow.phone = phone;
  flow.flow_id = flow_id;
  flow.phone_index = phone_index;
  flow.tool = tool;
  flow.next_ordinal = 0;
  flow.min_rtt_ms = -1;
  flow.pending.clear();
  flow.pending.reserve(config_.max_outstanding);
}

void PpingEstimator::on_capture(const net::Packet& packet,
                                net::NodeId /*transmitter*/,
                                net::NodeId /*receiver*/, TimePoint time,
                                bool collided) {
  // A collided frame reaches no receiver; its (clean) retransmission will
  // be captured again, and first-seen-wins handles the duplicate TSval.
  if (collided || packet.protocol != net::Protocol::tcp) return;
  if (packet.tcp_ts.tsval == 0 && packet.tcp_ts.tsecr == 0) return;
  // Phone egress = a send on the watched flow; phone ingress = a potential
  // echo. src/dst identify the direction regardless of which wireless hop
  // (phone->AP or AP->phone) the capture came from.
  if (Flow* flow = find_flow(packet.src, packet.flow_id)) {
    if (packet.tcp_ts.tsval != 0) {
      record_send(*flow, packet.tcp_ts.tsval, time);
    }
    return;
  }
  if (Flow* flow = find_flow(packet.dst, packet.flow_id)) {
    if (packet.tcp_ts.tsecr != 0) {
      match_echo(*flow, packet.tcp_ts.tsecr, time);
    }
  }
}

void PpingEstimator::record_send(Flow& flow, std::uint32_t tsval,
                                 TimePoint time) {
  evict_stale(flow, time);
  // First-seen-wins: a retransmission carries the TSval already on file
  // and must not restart that sample's clock.
  for (const Pending& entry : flow.pending) {
    if (entry.tsval == tsval) return;
  }
  if (flow.pending.size() >= config_.max_outstanding) {
    flow.pending.erase(flow.pending.begin());  // oldest first
    ++evicted_;
  }
  flow.pending.push_back(Pending{tsval, time});
}

void PpingEstimator::match_echo(Flow& flow, std::uint32_t tsecr,
                                TimePoint time) {
  for (auto it = flow.pending.begin(); it != flow.pending.end(); ++it) {
    if (it->tsval != tsecr) continue;
    RttSample sample;
    sample.phone_index = flow.phone_index;
    sample.tool = flow.tool;
    sample.ordinal = flow.next_ordinal++;
    sample.rtt_ms = (time - it->sent_at).to_ms();
    sample.matched_at = time;
    if (flow.min_rtt_ms < 0 || sample.rtt_ms < flow.min_rtt_ms) {
      flow.min_rtt_ms = sample.rtt_ms;
    }
    samples_.push_back(sample);
    // Match-once: the entry is consumed, so a duplicated or reordered
    // echo of the same TSval cannot emit a second sample.
    flow.pending.erase(it);
    return;
  }
}

void PpingEstimator::evict_stale(Flow& flow, TimePoint now) {
  std::size_t stale = 0;
  while (stale < flow.pending.size() &&
         now - flow.pending[stale].sent_at > config_.stale_after) {
    ++stale;
  }
  if (stale > 0) {
    flow.pending.erase(flow.pending.begin(),
                       flow.pending.begin() + static_cast<std::ptrdiff_t>(stale));
    evicted_ += stale;
  }
}

PpingEstimator::Flow* PpingEstimator::find_flow(net::NodeId phone,
                                                std::uint32_t flow_id) {
  if (flow_id == 0) return nullptr;
  for (std::size_t i = 0; i < flow_count_; ++i) {
    Flow& flow = flows_[i];
    if (flow.phone == phone && flow.flow_id == flow_id) return &flow;
  }
  return nullptr;
}

double PpingEstimator::min_rtt_ms(std::size_t phone_index) const {
  double best = -1;
  for (std::size_t i = 0; i < flow_count_; ++i) {
    const Flow& flow = flows_[i];
    if (flow.phone_index != phone_index || flow.min_rtt_ms < 0) continue;
    if (best < 0 || flow.min_rtt_ms < best) best = flow.min_rtt_ms;
  }
  return best;
}

std::size_t PpingEstimator::outstanding() const {
  std::size_t total = 0;
  for (std::size_t i = 0; i < flow_count_; ++i) {
    total += flows_[i].pending.size();
  }
  return total;
}

void PpingEstimator::reset() {
  // Rewind the live-slot count instead of clearing the vector: retired
  // slots keep their Pending buffers' heap storage for the next shard.
  flow_count_ = 0;
  samples_.clear();
  evicted_ = 0;
}

}  // namespace acute::passive
