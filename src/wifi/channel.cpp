#include "wifi/channel.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "sim/contracts.hpp"
#include "wifi/radio.hpp"

namespace acute::wifi {

using net::Packet;
using sim::Duration;
using sim::expects;
using sim::TimePoint;

Channel::Channel(sim::Simulator& sim, sim::Rng rng, PhyParams phy)
    : sim_(&sim) {
  reset(std::move(rng), phy);
}

void Channel::reset(sim::Rng rng, PhyParams phy) {
  rng_ = std::move(rng);
  phy_ = phy;
  radios_.clear();
  observers_.clear();
  busy_until_ = sim::TimePoint{};
  round_scheduled_ = false;  // the simulator reset dropped any pending round
  frames_transmitted_ = 0;
  collisions_ = 0;
  frames_dropped_ = 0;
}

void Channel::attach_radio(Radio& radio) {
  expects(std::find(radios_.begin(), radios_.end(), &radio) == radios_.end(),
          "Channel::attach_radio: radio already attached (reset the "
          "channel before the radios on it)");
  for (const Radio* existing : radios_) {
    expects(existing->owner() != radio.owner(),
            "Channel::attach_radio: duplicate owner address");
  }
  radio.cw_ = phy_.cw_min;
  radios_.push_back(&radio);
}

void Channel::detach_radio(Radio& radio) {
  // No-op when the channel was reset since the attach (radios_ cleared):
  // shard-context reuse destroys nodes after their channel rewound.
  const auto it = std::find(radios_.begin(), radios_.end(), &radio);
  if (it != radios_.end()) radios_.erase(it);
}

void Channel::attach_observer(MediumObserver& observer) {
  observers_.push_back(&observer);
}

void Channel::notify_backlog(Radio& /*radio*/) { schedule_round(); }

void Channel::schedule_round() {
  if (round_scheduled_) return;
  round_scheduled_ = true;
  const TimePoint when = std::max(sim_->now(), busy_until_);
  sim_->schedule_at(when, [this] {
    round_scheduled_ = false;
    run_contention_round();
  });
}

void Channel::run_contention_round() {
  // Gather contenders (member scratch: no per-round allocation).
  std::vector<Radio*>& contenders = contenders_scratch_;
  contenders.clear();
  for (Radio* radio : radios_) {
    if (radio->backlogged()) contenders.push_back(radio);
  }
  if (contenders.empty()) return;

  // Each contender draws a backoff; priority frames (beacons) draw zero.
  int min_slots = std::numeric_limits<int>::max();
  std::vector<Radio*>& winners = winners_scratch_;
  winners.clear();
  for (Radio* radio : contenders) {
    const int slots =
        radio->head().priority
            ? 0
            : static_cast<int>(rng_.uniform_int(0, radio->cw_));
    if (slots < min_slots) {
      min_slots = slots;
      winners.clear();
    }
    if (slots == min_slots) winners.push_back(radio);
  }

  const TimePoint tx_start = sim_->now() + phy_.difs + phy_.slot * min_slots;
  if (winners.size() == 1) {
    transmit(*winners.front(), tx_start);
  } else {
    collide(winners, tx_start);
  }
}

void Channel::transmit(Radio& winner, TimePoint tx_start) {
  Radio::QueuedFrame queued = std::move(winner.head());
  winner.pop_head();
  winner.cw_ = phy_.cw_min;
  ++frames_transmitted_;

  const bool broadcast = queued.receiver == net::kBroadcastId;
  const bool needs_ack = !broadcast;
  const bool is_control = queued.packet.is_wifi_control();
  const double rate =
      is_control ? phy_.basic_rate_mbps : phy_.data_rate_mbps;

  Duration protection{};
  if (phy_.cts_to_self && !is_control && !broadcast) {
    protection = cts_to_self_airtime(phy_);
  }
  const Duration data_time =
      frame_airtime(phy_, queued.packet.size_bytes, rate);
  Duration occupancy = protection + data_time;
  if (needs_ack) occupancy += phy_.sifs + ack_airtime(phy_);

  busy_until_ = tx_start + occupancy;

  Frame frame;
  frame.packet = std::move(queued.packet);
  frame.transmitter = winner.owner();
  frame.receiver = queued.receiver;
  frame.tx_start = tx_start;
  frame.tx_end = tx_start + protection + data_time;
  frame.collided = false;
  // t_n of Fig. 1: the instant the frame hits the air.
  frame.packet.stamps.air = tx_start;

  // Payload reaches receivers when the data portion ends. Observers and the
  // tx-done hook only read the frame; delivery runs last so it can hand the
  // frame's packet to the (unicast) receiver by move instead of copy.
  Radio* transmitter = &winner;
  sim_->schedule_at(
      frame.tx_end,
      [this, transmitter, f = std::move(frame)]() mutable {
        notify_observers(f);
        if (transmitter->on_tx_done_) {
          transmitter->on_tx_done_(f);
        }
        deliver(std::move(f), transmitter);
      });

  // Medium goes idle at busy_until_: run the next round if backlog remains.
  sim_->schedule_at(busy_until_, [this] { schedule_round(); });
}

void Channel::collide(const std::vector<Radio*>& losers, TimePoint tx_start) {
  ++collisions_;
  Duration longest{};
  for (Radio* radio : losers) {
    const Radio::QueuedFrame& queued = radio->head();
    const bool is_control = queued.packet.is_wifi_control();
    const double rate =
        is_control ? phy_.basic_rate_mbps : phy_.data_rate_mbps;
    longest = std::max(
        longest, frame_airtime(phy_, queued.packet.size_bytes, rate));
  }
  for (Radio* radio : losers) {
    Radio::QueuedFrame& queued = radio->head();
    Frame frame;
    frame.packet = queued.packet;
    frame.transmitter = radio->owner();
    frame.receiver = queued.receiver;
    frame.tx_start = tx_start;
    frame.tx_end = tx_start + longest;
    frame.collided = true;
    notify_observers(frame);

    ++queued.retries;
    radio->cw_ = std::min(2 * (radio->cw_ + 1) - 1, phy_.cw_max);
    if (queued.retries > phy_.retry_limit) {
      radio->pop_head();
      radio->cw_ = phy_.cw_min;
      ++radio->dropped_count_;
      ++frames_dropped_;
    }
  }
  // Collided frames burn the medium for the longest frame plus recovery.
  busy_until_ = tx_start + longest + phy_.difs;
  sim_->schedule_at(busy_until_, [this] { schedule_round(); });
}

void Channel::deliver(Frame&& frame, Radio* transmitter) {
  if (frame.receiver == net::kBroadcastId) {
    // Broadcast fan-out: each receiver owns its copy of the payload (the
    // shared PayloadBuffer keeps the bytes themselves single-instance).
    for (Radio* radio : radios_) {
      if (radio->owner() == frame.transmitter) continue;
      if (!radio->receiving()) continue;
      ++radio->rx_count_;
      if (radio->on_receive_) {
        net::Packet copy = frame.packet;
        radio->on_receive_(std::move(copy), frame);
      }
    }
    return;
  }
  // Unicast: deliver (moving the frame's packet — the receiver is the sole
  // consumer), or report failure (no ACK after retries) so the transmitter's
  // owner can recover (the AP re-buffers for dozing STAs).
  for (Radio* radio : radios_) {
    if (radio->owner() != frame.receiver) continue;
    if (!radio->receiving()) break;
    ++radio->rx_count_;
    if (radio->on_receive_) radio->on_receive_(std::move(frame.packet), frame);
    return;
  }
  if (transmitter->on_delivery_fail_) {
    transmitter->on_delivery_fail_(std::move(frame.packet), frame.receiver);
  } else {
    ++transmitter->dropped_count_;
  }
}

void Channel::notify_observers(const Frame& frame) {
  for (MediumObserver* observer : observers_) {
    observer->on_frame(frame);
  }
}

}  // namespace acute::wifi
