// iPerf-like constant-bit-rate UDP sources for cross traffic (§4.3: ten
// connections at 2.5 Mbit/s each, enough to congest an 802.11g WLAN).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "net/packet.hpp"
#include "sim/random.hpp"
#include "sim/resettable.hpp"
#include "sim/simulator.hpp"
#include "sim/timer.hpp"

namespace acute::net {

/// A single CBR flow. Emits fixed-size UDP datagrams at a constant rate with
/// a small randomized phase so parallel flows do not phase-lock.
class UdpCbrSource {
 public:
  using TransmitFn = std::function<void(Packet&&)>;

  struct Config {
    NodeId src = 0;
    NodeId dst = 0;
    std::uint32_t flow_id = 0;
    double rate_mbps = 2.5;
    std::uint32_t datagram_bytes = packet_size::udp_iperf;
  };

  UdpCbrSource(sim::Simulator& sim, sim::Rng rng, Config config,
               TransmitFn transmit);

  UdpCbrSource(const UdpCbrSource&) = delete;
  UdpCbrSource& operator=(const UdpCbrSource&) = delete;

  /// The one setup path (sim/resettable.hpp): stopped, period from
  /// `config`, datagrams handed to `transmit`.
  void reset(sim::Rng rng, Config config, TransmitFn transmit);

  /// Starts emitting datagrams (first one within one inter-packet period).
  void start();
  void stop();

  [[nodiscard]] bool running() const { return timer_.running(); }
  [[nodiscard]] std::uint64_t packets_sent() const { return packets_sent_; }
  [[nodiscard]] const Config& config() const { return config_; }

 private:
  sim::Rng rng_;
  Config config_;
  TransmitFn transmit_;
  sim::PeriodicTimer timer_;
  std::uint64_t packets_sent_ = 0;
};

/// The iPerf client of §4.3: N parallel CBR flows from one host.
class IperfLoadGenerator {
 public:
  IperfLoadGenerator(sim::Simulator& sim, sim::Rng rng, NodeId src, NodeId dst,
                     std::size_t connections, double per_flow_mbps,
                     const UdpCbrSource::TransmitFn& transmit);

  /// The one setup path (sim/resettable.hpp): places one flow per
  /// connection (flow i on rng fork i), reusing existing flow objects.
  void reset(sim::Rng rng, NodeId src, NodeId dst, std::size_t connections,
             double per_flow_mbps, const UdpCbrSource::TransmitFn& transmit);

  void start();
  void stop();

  [[nodiscard]] std::size_t connection_count() const { return flows_.size(); }
  [[nodiscard]] std::uint64_t packets_sent() const;
  [[nodiscard]] double offered_load_mbps() const;

 private:
  sim::Simulator* sim_;
  std::vector<std::unique_ptr<UdpCbrSource>> flows_;
};

}  // namespace acute::net
