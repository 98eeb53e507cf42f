// Passive wireless sniffer (§2.2 uses three, placed 0.5 m from the phone).
//
// Captures every frame on the medium, including frames a dozing station
// cannot hear. The testbed derives t_n — and hence dn = t_n^i - t_n^o — from
// these captures, exactly as the paper estimates PHY timestamps externally.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "passive/observer.hpp"
#include "sim/random.hpp"
#include "wifi/channel.hpp"

namespace acute::wifi {

class Sniffer : public MediumObserver {
 public:
  struct Capture {
    std::uint64_t packet_id = 0;
    std::uint64_t probe_id = 0;
    net::PacketType type = net::PacketType::udp_data;
    net::NodeId transmitter = 0;
    net::NodeId receiver = 0;
    std::uint32_t size_bytes = 0;
    sim::TimePoint time;  // capture timestamp (frame TX start + noise)
    bool collided = false;
  };

  /// `timestamp_noise` models radiotap clock error: each capture time is
  /// perturbed by U(-noise, +noise). Zero by default.
  Sniffer(const std::string& name, sim::Rng rng,
          sim::Duration timestamp_noise = sim::Duration{});

  /// The one setup path (sim/resettable.hpp); the capture log keeps its
  /// warm storage.
  void reset(const std::string& name, sim::Rng rng,
             sim::Duration timestamp_noise);

  void on_frame(const Frame& frame) override;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const std::vector<Capture>& captures() const {
    return captures_;
  }

  /// Capture time of the first clean (non-collided) transmission of the
  /// packet with this id, if seen.
  [[nodiscard]] std::optional<sim::TimePoint> air_time_of(
      std::uint64_t packet_id) const;

  /// Number of clean captures of the given type.
  [[nodiscard]] std::size_t count_of(net::PacketType type) const;

  /// Forwards every capture — the packet by reference, plus the sniffer's
  /// (possibly noise-perturbed) capture timestamp — to `observer` as it is
  /// logged: the attachment point of passive capture estimators
  /// (passive::PpingEstimator). One observer per sniffer; nullptr detaches.
  /// reset() detaches, so shard-context reuse must re-attach per shard.
  void attach_capture_observer(passive::CaptureObserver* observer) {
    observer_ = observer;
  }

  void clear();

 private:
  std::string name_;
  sim::Rng rng_;
  sim::Duration noise_;
  passive::CaptureObserver* observer_ = nullptr;
  // Append-only capture log. Lookups (air_time_of) are test/prober-side and
  // scan linearly; recording a capture must not allocate in steady state,
  // so there is deliberately no per-packet index map.
  std::vector<Capture> captures_;
};

}  // namespace acute::wifi
