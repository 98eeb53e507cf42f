#include "wifi/station.hpp"

#include <algorithm>
#include <utility>

#include "sim/contracts.hpp"

namespace acute::wifi {

using net::Packet;
using net::PacketType;
using net::Protocol;
using sim::Duration;
using sim::expects;
using sim::TimePoint;

namespace {
// PS-Poll and null frames are tiny control/management frames.
constexpr std::uint32_t kPsPollBytes = 20;
constexpr std::uint32_t kNullFrameBytes = 28;
}  // namespace

Station::Station(sim::Simulator& sim, Channel& channel, sim::Rng rng,
                 Config config)
    : sim_(&sim),
      channel_(&channel),
      doze_timer_(sim, [this] { enter_doze(); }) {
  reset(std::move(rng), config);
}

void Station::reset(sim::Rng rng, Config config) {
  expects(config.psm_timeout > Duration{},
          "Station PSM timeout must be positive");
  expects(config.psm_tick > Duration{}, "Station PSM tick must be positive");
  expects(config.actual_listen_interval >= 0,
          "Station listen interval must be >= 0");
  expects(config.beacon_miss_probability >= 0.0 &&
              config.beacon_miss_probability <= 1.0,
          "Station beacon miss probability must be in [0, 1]");

  rng_ = std::move(rng);
  config_ = config;
  // The radio attaches to the channel here, on construction and on every
  // reuse alike (sim/resettable.hpp).
  sim::place(radio_, std::tie(*channel_), config.id);
  radio_->set_receiver([this](Packet&& pkt, const Frame& frame) {
    on_radio_receive(std::move(pkt), frame);
  });
  radio_->set_tx_done([this](const Frame& frame) {
    if (doze_pending_ && frame.packet.id == pending_null_id_) {
      doze_pending_ = false;
      state_ = PowerState::dozing;
      radio_->set_receiving(false);
      ++doze_count_;
      schedule_beacon_wake();
    }
  });
  on_receive_ = nullptr;
  state_ = PowerState::cam;
  doze_timer_.reset();
  doze_pending_ = false;
  pending_null_id_ = 0;
  draining_ = false;
  tbtt_known_ = false;
  tbtt_anchor_ = sim::TimePoint{};
  doze_beacon_index_ = 0;
  beacon_wake_ = sim::EventHandle{};
  doze_count_ = 0;
  wake_count_ = 0;
  ps_polls_sent_ = 0;
  last_activity_ = sim_->now();
  if (config_.psm_enabled) arm_doze_timer();
}

void Station::mark_activity() {
  last_activity_ = sim_->now();
  if (config_.psm_enabled && state_ == PowerState::cam && !draining_ &&
      !doze_pending_) {
    arm_doze_timer();
  }
}

void Station::arm_doze_timer() {
  // The firmware counts idle time in watchdog ticks, so the doze entry
  // quantizes to [Tip - tick, Tip] after the last activity (§3.2.2).
  const Duration tick =
      std::min(config_.psm_tick, config_.psm_timeout);
  const Duration base = config_.psm_timeout - tick;
  const Duration jitter = rng_.uniform_duration(Duration::nanos(1), tick);
  doze_timer_.restart(base + jitter);
}

void Station::enter_doze() {
  if (state_ != PowerState::cam || draining_ || doze_pending_) return;
  // Announce PM=1 with a null frame; the doze completes when it is on air.
  Packet null_frame = Packet::make(PacketType::wifi_null, Protocol::wifi_mgmt,
                                   config_.id, config_.ap, kNullFrameBytes);
  null_frame.wifi.power_mgmt = true;
  pending_null_id_ = null_frame.id;
  doze_pending_ = true;
  radio_->enqueue(std::move(null_frame), config_.ap);
}

void Station::wake_to_cam() {
  beacon_wake_.cancel();
  doze_timer_.cancel();
  doze_pending_ = false;
  draining_ = false;
  if (state_ == PowerState::dozing) {
    ++wake_count_;
    state_ = PowerState::cam;
  }
  radio_->set_receiving(true);
  mark_activity();
}

void Station::send(Packet&& packet) {
  packet.wifi.power_mgmt = false;  // this frame announces we are awake
  if (state_ == PowerState::dozing || doze_pending_) {
    wake_to_cam();
  } else {
    mark_activity();
  }
  radio_->enqueue(std::move(packet), config_.ap);
}

void Station::schedule_beacon_wake() {
  if (!tbtt_known_) {
    // Never synchronized: keep listening until the first beacon arrives.
    radio_->set_receiving(true);
    return;
  }
  const Duration interval = beacon_interval();
  const int wake_every = config_.actual_listen_interval + 1;
  // Find the next TBTT we intend to listen to.
  const std::int64_t elapsed =
      (sim_->now() - tbtt_anchor_).count_nanos();
  std::int64_t k = elapsed / interval.count_nanos() + 1;
  while ((k - doze_beacon_index_) % wake_every != 0) ++k;
  const TimePoint wake_at =
      tbtt_anchor_ + interval * k - config_.wake_guard;
  beacon_wake_ = sim_->schedule_at(std::max(wake_at, sim_->now()), [this] {
    if (state_ == PowerState::dozing) radio_->set_receiving(true);
  });
}

void Station::handle_beacon(const Packet& beacon) {
  if (beacon.wifi.tbtt.has_value()) {
    tbtt_anchor_ = *beacon.wifi.tbtt;
    tbtt_known_ = true;
  }

  const bool in_tim =
      std::find(beacon.wifi.tim.begin(), beacon.wifi.tim.end(), config_.id) !=
      beacon.wifi.tim.end();

  if (state_ == PowerState::cam) {
    if (in_tim && !doze_pending_) {
      // The AP believes we doze (stale PM state); a PM=0 null re-syncs it
      // and triggers the buffer flush.
      Packet null_frame =
          Packet::make(PacketType::wifi_null, Protocol::wifi_mgmt, config_.id,
                       config_.ap, kNullFrameBytes);
      null_frame.wifi.power_mgmt = false;
      radio_->enqueue(std::move(null_frame), config_.ap);
    }
    return;
  }

  // Dozing: this is a listen-interval wake-up.
  doze_beacon_index_ = ((sim_->now() - tbtt_anchor_).count_nanos() +
                        beacon_interval().count_nanos() / 2) /
                       beacon_interval().count_nanos();
  if (in_tim && !rng_.bernoulli(config_.beacon_miss_probability)) {
    draining_ = true;
    send_ps_poll();
    return;  // radio stays on for the buffered frames
  }
  // Nothing for us (or the TIM was missed): back to sleep.
  radio_->set_receiving(false);
  schedule_beacon_wake();
}

void Station::send_ps_poll() {
  Packet poll = Packet::make(PacketType::wifi_ps_poll, Protocol::wifi_mgmt,
                             config_.id, config_.ap, kPsPollBytes);
  poll.wifi.power_mgmt = true;  // still formally in PS mode while polling
  ++ps_polls_sent_;
  radio_->enqueue(std::move(poll), config_.ap);
}

void Station::deliver_up(Packet&& packet, const Frame& frame) {
  if (above() != nullptr) {
    pass_up(std::move(packet));
    return;
  }
  if (on_receive_) on_receive_(std::move(packet), frame);
}

void Station::deliver(Packet&& packet) {
  if (above() != nullptr) {
    pass_up(std::move(packet));
    return;
  }
  if (!on_receive_) return;
  const net::NodeId src = packet.src;
  Frame frame{std::move(packet), src, config_.id, sim_->now(), sim_->now(),
              false};
  on_receive_(std::move(frame.packet), frame);
}

void Station::on_radio_receive(Packet&& packet, const Frame& frame) {
  if (packet.type == PacketType::wifi_beacon) {
    handle_beacon(packet);
    return;
  }
  if (packet.protocol == Protocol::wifi_mgmt) return;

  // Unicast data for us.
  const bool more = packet.wifi.more_data;
  deliver_up(std::move(packet), frame);

  if (state_ == PowerState::dozing) {
    if (more && draining_) {
      send_ps_poll();
      return;
    }
    // Buffer drained; receiving traffic promotes to CAM (adaptive PSM).
    wake_to_cam();
    return;
  }
  mark_activity();
}

}  // namespace acute::wifi
