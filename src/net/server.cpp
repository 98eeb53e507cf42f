#include "net/server.hpp"

#include <utility>

#include "sim/contracts.hpp"

namespace acute::net {

using sim::Duration;
using sim::expects;

namespace {
// Mean request service time: the paper cites microsecond-level server-side
// processing for TCP probes [24].
constexpr Duration kServiceMean = Duration::micros(40);
}  // namespace

EchoServer::EchoServer(sim::Simulator& sim, sim::Rng rng, NodeId id)
    : sim_(&sim) {
  reset(std::move(rng), id);
}

void EchoServer::reset(sim::Rng rng, NodeId id) {
  rng_ = std::move(rng);
  id_ = id;
  link_ = nullptr;
  sim::place(netem_, std::tie(*sim_), rng_.fork("netem"), [this](Packet pkt) {
    expects(link_ != nullptr, "EchoServer link not attached before traffic");
    link_->send(id_, std::move(pkt));
  });
  tcp_port_closed_ = false;
  observer_ = nullptr;
  http_size_ = packet_size::http_response;
  requests_served_ = 0;
}

void EchoServer::attach_link(Link& link) {
  expects(link_ == nullptr, "EchoServer::attach_link called twice");
  link_ = &link;
}

void EchoServer::receive(Packet&& packet, Link* /*ingress*/) {
  if (packet.dst != id_) return;  // not ours (switch flooding)
  if (observer_) observer_(packet);
  respond(packet);
}

void EchoServer::respond(const Packet& request) {
  std::optional<Packet> response;
  switch (request.type) {
    case PacketType::icmp_echo_request:
      response = Packet::make_response(request, PacketType::icmp_echo_reply,
                                       request.size_bytes);
      break;
    case PacketType::tcp_syn:
      response = Packet::make_response(
          request,
          tcp_port_closed_ ? PacketType::tcp_rst : PacketType::tcp_syn_ack,
          packet_size::tcp_control);
      break;
    case PacketType::http_request:
      response = Packet::make_response(request, PacketType::http_response,
                                       http_size_);
      // The body is one immutable buffer shared by every response in
      // flight; rebuilding only happens when the configured size changes.
      if (http_body_ == nullptr || http_body_->size() != http_size_) {
        http_body_ = Packet::make_payload(
            std::vector<std::uint8_t>(http_size_, std::uint8_t{0x42}));
      }
      response->payload = http_body_;
      break;
    default:
      return;  // UDP warm-up/background or unknown: silently absorbed
  }
  ++requests_served_;
  // Kernel service time, then out through the netem-shaped egress.
  const Duration service =
      Duration::seconds(rng_.exponential(kServiceMean.to_seconds()));
  sim_->schedule_in(service, [this, resp = std::move(*response)]() mutable {
    netem_->enqueue(std::move(resp));
  });
}

void UdpSink::receive(Packet&& packet, Link* /*ingress*/) {
  if (packet.dst != id_) return;
  if (packet.protocol != Protocol::udp) return;
  ++packets_;
  bytes_ += packet.size_bytes;
}

double UdpSink::throughput_mbps(sim::TimePoint since) const {
  const Duration window = sim_->now() - since;
  if (window <= Duration{}) return 0.0;
  return double(bytes_) * 8.0 / window.to_seconds() / 1e6;
}

void UdpSink::reset_window() {
  packets_ = 0;
  bytes_ = 0;
  window_start_ = sim_->now();
}

}  // namespace acute::net
