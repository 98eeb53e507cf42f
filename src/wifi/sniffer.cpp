#include "wifi/sniffer.hpp"

#include <utility>

namespace acute::wifi {

using sim::Duration;

Sniffer::Sniffer(const std::string& name, sim::Rng rng,
                 Duration timestamp_noise) {
  reset(name, std::move(rng), timestamp_noise);
}

void Sniffer::reset(const std::string& name, sim::Rng rng,
                    Duration timestamp_noise) {
  name_ = name;
  rng_ = std::move(rng);
  noise_ = timestamp_noise;
  observer_ = nullptr;
  captures_.clear();
}

void Sniffer::on_frame(const Frame& frame) {
  Capture capture;
  capture.packet_id = frame.packet.id;
  capture.probe_id = frame.packet.probe_id;
  capture.type = frame.packet.type;
  capture.transmitter = frame.transmitter;
  capture.receiver = frame.receiver;
  capture.size_bytes = frame.packet.size_bytes;
  capture.time = frame.tx_start;
  if (!noise_.is_zero()) {
    capture.time += rng_.uniform_duration(-noise_, noise_);
  }
  capture.collided = frame.collided;
  if (observer_ != nullptr) {
    // The observer gets the sniffer's clock (capture.time), not the true
    // tx_start: a capture-point estimator inherits this vantage's noise.
    observer_->on_capture(frame.packet, frame.transmitter, frame.receiver,
                          capture.time, capture.collided);
  }
  captures_.push_back(std::move(capture));
}

std::optional<sim::TimePoint> Sniffer::air_time_of(
    std::uint64_t packet_id) const {
  for (const Capture& capture : captures_) {
    if (!capture.collided && capture.packet_id == packet_id) {
      return capture.time;
    }
  }
  return std::nullopt;
}

std::size_t Sniffer::count_of(net::PacketType type) const {
  std::size_t count = 0;
  for (const Capture& capture : captures_) {
    if (!capture.collided && capture.type == type) ++count;
  }
  return count;
}

void Sniffer::clear() { captures_.clear(); }

}  // namespace acute::wifi
