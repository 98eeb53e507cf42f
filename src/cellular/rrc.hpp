// Radio Resource Control (RRC) state machine — the cellular analogue of the
// WiFi energy-saving mechanisms the paper dissects. §4.1 notes that
// AcuteMon "can be easily extended to cellular environment, mitigating the
// effect of RRC state transition"; this module provides that substrate.
//
// Model (3G UMTS flavour, LTE preset included):
//
//   IDLE  --(any tx, promotion ~2 s)-->  CELL_DCH
//   FACH  --(large tx, promotion ~0.7 s)-->  CELL_DCH
//   DCH   --(inactivity T_dch ~5 s)-->  CELL_FACH
//   FACH  --(inactivity T_fach ~12 s)-->  IDLE
//
// CELL_FACH carries small packets on the shared channel without promotion,
// but with a large per-packet latency penalty. Exactly like SDIO/PSM, the
// demotion timers reset on every transmission — which is what a
// warm-up + keep-alive scheme exploits.
#pragma once

#include <cstdint>
#include <utility>

#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/timer.hpp"

namespace acute::cellular {

enum class RrcState { idle, cell_fach, cell_dch };

[[nodiscard]] const char* to_string(RrcState state);

struct RrcConfig {
  /// Promotion delay distributions (mean, jitter half-width).
  sim::Duration idle_to_dch = sim::Duration::millis(2000);
  sim::Duration fach_to_dch = sim::Duration::millis(700);
  sim::Duration promotion_jitter = sim::Duration::millis(150);
  /// Inactivity demotion timers.
  sim::Duration dch_inactivity = sim::Duration::seconds(5);
  sim::Duration fach_inactivity = sim::Duration::seconds(12);
  /// Extra one-way latency contributed by the current state.
  sim::Duration dch_latency = sim::Duration::millis(1);
  sim::Duration fach_latency = sim::Duration::millis(120);
  /// Packets up to this size ride CELL_FACH without forcing a promotion.
  std::uint32_t fach_size_threshold = 128;

  /// Typical 3G (UMTS) parameters [e.g. Qian et al., characterised RRC].
  [[nodiscard]] static RrcConfig umts_3g() { return RrcConfig{}; }

  /// LTE parameters: much faster promotion, shorter tail timer.
  [[nodiscard]] static RrcConfig lte() {
    RrcConfig config;
    config.idle_to_dch = sim::Duration::millis(260);
    config.fach_to_dch = sim::Duration::millis(100);
    config.promotion_jitter = sim::Duration::millis(40);
    config.dch_inactivity = sim::Duration::seconds(10);
    config.fach_inactivity = sim::Duration::seconds(2);
    config.fach_latency = sim::Duration::millis(40);
    return config;
  }
};

class RrcMachine {
 public:
  RrcMachine(sim::Simulator& sim, sim::Rng rng, RrcConfig config);

  RrcMachine(const RrcMachine&) = delete;
  RrcMachine& operator=(const RrcMachine&) = delete;

  /// The one setup path (sim/resettable.hpp): idle, no demotion pending.
  void reset(sim::Rng rng, RrcConfig config) {
    rng_ = std::move(rng);
    config_ = config;
    state_ = RrcState::idle;
    promotion_done_ = sim::TimePoint{};
    demotion_timer_.reset();
    promotions_ = 0;
    demotions_ = 0;
  }

  /// Requests to transmit `bytes` now. Returns the delay before the radio
  /// can actually send (promotion cost, zero when already in a suitable
  /// state) and performs the state transition + demotion-timer reset.
  [[nodiscard]] sim::Duration request_transmit(std::uint32_t bytes);

  /// Marks downlink activity (resets the inactivity timers).
  void on_receive();

  /// Extra one-way latency of the *current* state (applies to each
  /// direction of a packet exchange).
  [[nodiscard]] sim::Duration state_latency() const;

  [[nodiscard]] RrcState state() const { return state_; }
  [[nodiscard]] const RrcConfig& config() const { return config_; }
  [[nodiscard]] std::uint64_t promotions() const { return promotions_; }
  [[nodiscard]] std::uint64_t demotions() const { return demotions_; }

 private:
  void arm_demotion();
  void demote();
  [[nodiscard]] sim::Duration sample_promotion(sim::Duration mean);

  sim::Simulator* sim_;
  sim::Rng rng_;
  RrcConfig config_;
  RrcState state_ = RrcState::idle;
  // A promotion in flight: the radio is usable at promotion_done_.
  sim::TimePoint promotion_done_;
  sim::OneShotTimer demotion_timer_;
  std::uint64_t promotions_ = 0;
  std::uint64_t demotions_ = 0;
};

}  // namespace acute::cellular
