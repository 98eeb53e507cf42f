// Full-duplex point-to-point wired link with propagation delay and
// store-and-forward serialization at line rate.
#pragma once

#include <cstdint>

#include "net/node.hpp"
#include "net/packet.hpp"
#include "sim/simulator.hpp"

namespace acute::net {

class Link {
 public:
  /// Connects `a` and `b` with the given one-way propagation delay and line
  /// rate in bits per second (e.g. 1e9 for gigabit Ethernet).
  Link(sim::Simulator& sim, Node& a, Node& b, sim::Duration propagation,
       double bandwidth_bps);

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  /// The one setup path (sim/resettable.hpp); endpoints and parameters may
  /// differ from the previous scenario's.
  void reset(Node& a, Node& b, sim::Duration propagation,
             double bandwidth_bps);

  /// Transmits `packet` from the endpoint whose id is `from`.
  /// The packet is serialized after any in-flight packet in that direction,
  /// then delivered to the opposite endpoint after the propagation delay.
  void send(NodeId from, Packet&& packet);

  /// The endpoint opposite to `from`.
  [[nodiscard]] Node& peer_of(NodeId from) const;

  [[nodiscard]] sim::Duration propagation() const { return propagation_; }
  [[nodiscard]] double bandwidth_bps() const { return bandwidth_bps_; }
  [[nodiscard]] std::uint64_t delivered_count() const {
    return delivered_count_;
  }

 private:
  struct Direction {
    Node* to = nullptr;
    sim::TimePoint busy_until;
  };

  Direction& direction_from(NodeId from);

  sim::Simulator* sim_;
  Node* a_ = nullptr;
  Node* b_ = nullptr;
  sim::Duration propagation_;
  double bandwidth_bps_ = 0;
  Direction a_to_b_;
  Direction b_to_a_;
  std::uint64_t delivered_count_ = 0;
};

}  // namespace acute::net
