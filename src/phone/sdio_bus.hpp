// The SDIO / SMD host-interface bus sleep machine (§3.2.1).
//
// Faithful to the bcmdhd driver's logic: a watchdog fires every
// dhd_watchdog_ms (10 ms); each tick without bus activity increments
// `idlecount`; when it reaches `idletime` (5) the bus is put to sleep, so the
// default idle period is 50 ms. Waking the bus costs up to ~14 ms — the
// paper's headline internal delay-inflation source. Qualcomm's wcnss driver
// runs the same machine over SMD with cheaper wake costs.
//
// set_sleep_enabled(false) reproduces the paper's rooted-phone ablation
// (modified dhdsdio_bussleep), used by Table 3 and Fig. 9.
#pragma once

#include <cstdint>

#include "phone/profile.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/timer.hpp"
#include "stack/stack_layer.hpp"

namespace acute::phone {

/// As a StackLayer the bus sits between the WNIC driver and the station: the
/// downward path models the frame write over the bus (transfer time, then an
/// activity mark that resets the idle counter). On the upward path the bus is
/// transparent — in bcmdhd the RX bus read happens inside the driver's dpc
/// thread between dhdsdio_isr and dhd_rxf_enqueue, so the driver accounts for
/// it via acquire() + transfer_time() and the ascent passes straight through.
class SdioBus : public stack::StackLayer {
 public:
  enum class State { awake, sleeping };
  enum class Direction { transmit, receive };

  SdioBus(sim::Simulator& sim, sim::Rng rng, const PhoneProfile& profile);

  /// The one setup path (sim/resettable.hpp): loads the profile's bus
  /// parameters and starts the watchdog at a random phase.
  void reset(sim::Rng rng, const PhoneProfile& profile);

  // StackLayer.
  [[nodiscard]] const char* layer_name() const override { return "sdio-bus"; }
  /// Downward: the driver hands a frame over at dhdsdio_txpkt time; the bus
  /// spends the transfer time, marks activity, and passes to the station.
  void transmit(net::Packet&& packet) override;
  /// Upward: transparent (see class comment).
  void deliver(net::Packet&& packet) override;

  /// Acquires the bus for a transfer. Returns the latency before the bus is
  /// usable: ~0 when awake and recently active, the backplane-clock ramp
  /// when awake but idle, or the full wake-up (promotion) delay when
  /// sleeping. The caller performs its transfer after this delay and then
  /// reports completion via activity().
  [[nodiscard]] sim::Duration acquire(Direction direction);

  /// Marks bus activity now (resets the idle counter).
  void activity();

  /// Bus transfer time for a payload of `bytes`.
  [[nodiscard]] sim::Duration transfer_time(std::uint32_t bytes) const;

  /// The rooted-driver ablation: disables (or re-enables) bus sleep.
  void set_sleep_enabled(bool enabled);
  [[nodiscard]] bool sleep_enabled() const { return sleep_enabled_; }

  [[nodiscard]] State state() const { return state_; }
  [[nodiscard]] int idle_ticks() const { return idle_ticks_; }
  [[nodiscard]] std::uint64_t sleep_count() const { return sleep_count_; }
  [[nodiscard]] std::uint64_t wake_count() const { return wake_count_; }

 private:
  void on_watchdog_tick();

  sim::Simulator* sim_;
  sim::Rng rng_;
  LatencyDist wake_tx_;
  LatencyDist wake_rx_;
  LatencyDist clk_request_;
  sim::Duration clk_idle_threshold_;
  double transfer_mbps_ = 0;
  int idletime_ticks_ = 0;
  bool sleep_enabled_ = true;
  State state_ = State::awake;
  int idle_ticks_ = 0;
  sim::TimePoint last_activity_;
  sim::TimePoint wake_complete_at_;
  sim::PeriodicTimer watchdog_;
  std::uint64_t sleep_count_ = 0;
  std::uint64_t wake_count_ = 0;
};

}  // namespace acute::phone
