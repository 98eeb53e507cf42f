// The wireless access point of Fig. 2 (NETGEAR WNDR3800 in the paper).
//
// Three roles:
//  * 802.11 AP: beacons every 102.4 ms carrying the TIM; buffers downlink
//    frames for dozing stations (power-save delivery per §3.2.2); answers
//    PS-Polls; tracks each station's power state from the PM bit.
//  * L2 bridge between the wireless side and its Ethernet port.
//  * First-hop IP router: decrements TTL when routing, so AcuteMon's TTL=1
//    warm-up/background packets die here (§4.1).
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "net/link.hpp"
#include "net/node.hpp"
#include "sim/random.hpp"
#include "sim/resettable.hpp"
#include "sim/simulator.hpp"
#include "sim/timer.hpp"
#include "wifi/channel.hpp"
#include "wifi/radio.hpp"

namespace acute::wifi {

class AccessPoint : public net::Node {
 public:
  struct Config {
    net::NodeId id = 0;
    /// Bridging/processing latency per forwarded packet (each direction).
    sim::Duration forward_delay = sim::Duration::micros(450);
    sim::Duration forward_jitter = sim::Duration::micros(150);
    /// Reply with ICMP time-exceeded when TTL hits zero. Off by default:
    /// AcuteMon relies on warm-up packets dying silently at the gateway.
    bool send_ttl_exceeded = false;
  };

  AccessPoint(sim::Simulator& sim, Channel& channel, sim::Rng rng,
              Config config);

  /// The one setup path (sim/resettable.hpp): attaches the radio, clears
  /// the association table (per-station power-save buffers keep their warm
  /// storage) and stops the beacons until start_beacons().
  void reset(sim::Rng rng, Config config);

  /// Connects the Ethernet port. Must be called before wired traffic.
  void attach_wired(net::Link& link);

  /// Starts the beacon schedule; the first TBTT is `phase` from now.
  void start_beacons(sim::Duration phase = sim::Duration{});

  /// Registers a station. `listen_interval` is what the STA announced in its
  /// association request (Table 4's "L (associated)" column).
  void associate(net::NodeId sta, int listen_interval);

  // Node (wired ingress).
  void receive(net::Packet&& packet, net::Link* ingress) override;
  [[nodiscard]] net::NodeId id() const override { return config_.id; }

  [[nodiscard]] Radio& radio() { return *radio_; }

  // Introspection for tests and the prober.
  [[nodiscard]] bool station_dozing(net::NodeId sta) const;
  [[nodiscard]] std::size_t buffered_count(net::NodeId sta) const;
  [[nodiscard]] int associated_listen_interval(net::NodeId sta) const;
  [[nodiscard]] std::uint64_t ttl_drops() const { return ttl_drops_; }
  [[nodiscard]] std::uint64_t beacons_sent() const { return beacons_sent_; }
  [[nodiscard]] std::uint64_t ps_polls_served() const {
    return ps_polls_served_;
  }

 private:
  struct StationState {
    net::NodeId sta = 0;
    bool dozing = false;
    int listen_interval = 0;
    std::deque<net::Packet> ps_buffer;
  };

  void on_radio_receive(net::Packet&& packet, const Frame& frame);
  void on_delivery_failed(net::Packet&& packet, net::NodeId receiver);
  void route_from_wireless(net::Packet&& packet);
  void deliver_to_station(net::NodeId sta, net::Packet&& packet);
  void flush_ps_buffer(StationState& state, net::NodeId sta);
  void send_beacon();
  StationState* station_state(net::NodeId sta);
  [[nodiscard]] const StationState* station_state(net::NodeId sta) const;

  sim::Simulator* sim_;
  Channel* channel_;
  sim::Rng rng_;
  Config config_;
  std::optional<Radio> radio_;
  net::Link* wired_ = nullptr;
  sim::PeriodicTimer beacon_timer_;
  // Association table in association order. Slots are recycled across
  // shard-context resets (stations_in_use_ marks the live prefix) so the
  // per-station power-save deques keep their warm storage; with a handful
  // of stations per BSS, linear scans beat a node-based map and allocate
  // nothing in steady state.
  std::vector<StationState> stations_;
  std::size_t stations_in_use_ = 0;
  std::uint64_t ttl_drops_ = 0;
  std::uint64_t beacons_sent_ = 0;
  std::uint64_t ps_polls_served_ = 0;
};

}  // namespace acute::wifi
