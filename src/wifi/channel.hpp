// The shared wireless medium: a CSMA/CA (DCF) arbiter.
//
// Model: whenever the medium goes idle and stations have queued frames, a
// contention round runs. Every backlogged radio draws a backoff from its
// current contention window; the smallest draw wins the round. Ties are
// collisions: the tied frames burn airtime, their owners double their
// windows and retry (up to the retry limit). This compact abstraction keeps
// DCF's three load-visible behaviours — per-frame overhead, collision-driven
// window growth, and saturation throughput — which is what the congested
// experiments of §4.3/§4.4 depend on.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "net/packet.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "wifi/constants.hpp"

namespace acute::wifi {

class Radio;

/// A frame as observed on the medium (what a sniffer captures).
struct Frame {
  net::Packet packet;
  net::NodeId transmitter = 0;
  net::NodeId receiver = 0;
  sim::TimePoint tx_start;
  sim::TimePoint tx_end;
  bool collided = false;
};

/// Passive observer of every transmission (wireless sniffers).
class MediumObserver {
 public:
  virtual ~MediumObserver() = default;
  virtual void on_frame(const Frame& frame) = 0;
};

class Channel {
 public:
  Channel(sim::Simulator& sim, sim::Rng rng, PhyParams phy);

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  [[nodiscard]] const PhyParams& phy() const { return phy_; }
  [[nodiscard]] sim::Simulator& simulator() { return *sim_; }

  /// Radios register themselves from Radio::reset (construction included).
  void attach_radio(Radio& radio);
  /// Removes a dying radio's registration; no-op if not attached (the
  /// channel may have been reset since). Called from ~Radio.
  void detach_radio(Radio& radio);
  void attach_observer(MediumObserver& observer);

  /// New rng stream and PHY, no radios or observers; scratch and list
  /// capacities stay warm. Radios re-attach through Radio::reset, in the
  /// order their owners are placed (sim/resettable.hpp).
  void reset(sim::Rng rng, PhyParams phy);

  /// A radio signals that its queue became non-empty.
  void notify_backlog(Radio& radio);

  // Statistics.
  [[nodiscard]] std::uint64_t frames_transmitted() const {
    return frames_transmitted_;
  }
  [[nodiscard]] std::uint64_t collisions() const { return collisions_; }
  [[nodiscard]] std::uint64_t frames_dropped() const {
    return frames_dropped_;
  }
  [[nodiscard]] sim::TimePoint busy_until() const { return busy_until_; }

 private:
  void schedule_round();
  void run_contention_round();
  void transmit(Radio& winner, sim::TimePoint tx_start);
  void collide(const std::vector<Radio*>& losers, sim::TimePoint tx_start);
  void deliver(Frame&& frame, Radio* transmitter);
  void notify_observers(const Frame& frame);

  sim::Simulator* sim_;
  sim::Rng rng_;
  PhyParams phy_;
  std::vector<Radio*> radios_;
  std::vector<MediumObserver*> observers_;
  // Per-round scratch (contenders / winners). Members so the hottest loop
  // in the simulation reuses capacity instead of allocating per round.
  std::vector<Radio*> contenders_scratch_;
  std::vector<Radio*> winners_scratch_;
  sim::TimePoint busy_until_;
  bool round_scheduled_ = false;
  std::uint64_t frames_transmitted_ = 0;
  std::uint64_t collisions_ = 0;
  std::uint64_t frames_dropped_ = 0;
};

}  // namespace acute::wifi
