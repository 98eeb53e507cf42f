// 802.11 station with adaptive Power Save Mode (§3.2.2).
//
// State machine:
//  * CAM (Constantly Awake Mode): receiver on. A watchdog tick (default
//    10 ms) counts idle periods; once the accumulated idle time reaches the
//    PSM timeout Tip, the station transmits a null frame with PM=1 and
//    dozes. The tick quantization makes the effective doze entry land in
//    [Tip - tick, Tip] after the last activity — which is exactly why the
//    paper's Nexus 4 (Tip ≈ 40 ms) only *sometimes* inflates a 30 ms path.
//  * Dozing: receiver off except at beacon wake-ups. The station listens
//    every (actual_listen_interval + 1) beacons (the paper measured 0 for
//    every handset, i.e. every beacon); when the TIM lists it, it PS-Polls
//    the AP and drains buffered frames. Receiving data promotes it back to
//    CAM (adaptive PSM). Transmitting at any time wakes it immediately.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>

#include "net/packet.hpp"
#include "sim/random.hpp"
#include "sim/resettable.hpp"
#include "sim/simulator.hpp"
#include "sim/timer.hpp"
#include "stack/stack_layer.hpp"
#include "wifi/channel.hpp"
#include "wifi/radio.hpp"

namespace acute::wifi {

/// The station is the bottom StackLayer of a WiFi phone stack: transmit()
/// puts frames on the medium (waking a dozing STA), and frames received from
/// the channel ascend via the pipeline. Free-standing stations (the load
/// generator, unit fixtures) can instead use set_receiver().
class Station : public stack::StackLayer {
 public:
  enum class PowerState { cam, dozing };

  struct Config {
    net::NodeId id = 0;
    net::NodeId ap = 0;
    /// Adaptive-PSM inactivity timeout (Tip, Table 4). Ignored when
    /// psm_enabled is false.
    sim::Duration psm_timeout = sim::Duration::millis(200);
    /// Watchdog tick used to count idle time (quantizes doze entry).
    sim::Duration psm_tick = sim::Duration::millis(10);
    bool psm_enabled = true;
    /// Listen interval announced at association (metadata; Table 4).
    int associated_listen_interval = 1;
    /// Listen interval the firmware actually uses (paper: 0 = every beacon).
    int actual_listen_interval = 0;
    /// Probability of failing to act on a TIM at a beacon (clock drift /
    /// missed TIM). Calibrated against Table 2; see DESIGN.md §2.
    double beacon_miss_probability = 0.15;
    /// Radio turn-on guard before an expected TBTT.
    sim::Duration wake_guard = sim::Duration::micros(200);
  };

  Station(sim::Simulator& sim, Channel& channel, sim::Rng rng, Config config);

  /// The one setup path (sim/resettable.hpp): validates `config`, attaches
  /// the radio and, with PSM on, arms the doze timer. On reuse the
  /// simulator and the channel must have been reset first.
  void reset(sim::Rng rng, Config config);

  /// Upward delivery (to the WNIC driver): payload + air metadata. Used when
  /// the station is not composed into a StackPipeline.
  using RxFn = std::function<void(net::Packet&&, const Frame&)>;
  void set_receiver(RxFn on_receive) { on_receive_ = std::move(on_receive); }

  /// Transmits a data packet toward the AP. Wakes the station (a dozing STA
  /// can always transmit; the PM=0 bit tells the AP it is awake again).
  void send(net::Packet&& packet);

  // StackLayer.
  [[nodiscard]] const char* layer_name() const override { return "station"; }
  /// Downward entry from the bus layer: same as send().
  void transmit(net::Packet&& packet) override { send(std::move(packet)); }
  /// Upward injection point (the medium normally feeds the station through
  /// its radio; this lets tests and alternate PHYs push a frame up directly).
  void deliver(net::Packet&& packet) override;

  [[nodiscard]] PowerState power_state() const { return state_; }
  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] Radio& radio() { return *radio_; }

  // Statistics for tests and the timeout prober.
  [[nodiscard]] std::uint64_t doze_count() const { return doze_count_; }
  [[nodiscard]] std::uint64_t wake_count() const { return wake_count_; }
  [[nodiscard]] std::uint64_t ps_polls_sent() const { return ps_polls_sent_; }

 private:
  void on_radio_receive(net::Packet&& packet, const Frame& frame);
  void deliver_up(net::Packet&& packet, const Frame& frame);
  void mark_activity();
  void arm_doze_timer();
  void enter_doze();
  void wake_to_cam();
  void schedule_beacon_wake();
  void handle_beacon(const net::Packet& beacon);
  void send_ps_poll();

  sim::Simulator* sim_;
  Channel* channel_;
  sim::Rng rng_;
  Config config_;
  std::optional<Radio> radio_;
  RxFn on_receive_;
  PowerState state_ = PowerState::cam;
  sim::OneShotTimer doze_timer_;
  sim::TimePoint last_activity_;
  bool doze_pending_ = false;  // null frame sent, waiting for tx completion
  std::uint64_t pending_null_id_ = 0;
  bool draining_ = false;  // PS-Poll exchange in progress
  // Beacon schedule learned from received beacons.
  bool tbtt_known_ = false;
  sim::TimePoint tbtt_anchor_;
  std::int64_t doze_beacon_index_ = 0;
  sim::EventHandle beacon_wake_;
  std::uint64_t doze_count_ = 0;
  std::uint64_t wake_count_ = 0;
  std::uint64_t ps_polls_sent_ = 0;
};

}  // namespace acute::wifi
