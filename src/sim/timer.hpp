// Timer utilities built on the Simulator: restartable one-shot timers (used
// for PSM / SDIO demotion timeouts) and drift-free periodic timers (used for
// driver watchdogs, beacons and background traffic).
#pragma once

#include <functional>
#include <utility>

#include "sim/contracts.hpp"
#include "sim/simulator.hpp"

namespace acute::sim {

/// A one-shot timer that can be (re)armed and cancelled.
///
/// Typical use is an inactivity timeout: call `restart()` on every activity;
/// the callback only fires if no restart happens for the full delay.
class OneShotTimer {
 public:
  OneShotTimer(Simulator& sim, EventFn on_fire)
      : sim_(&sim), on_fire_(std::move(on_fire)) {}

  OneShotTimer(const OneShotTimer&) = delete;
  OneShotTimer& operator=(const OneShotTimer&) = delete;
  ~OneShotTimer() { cancel(); }

  /// Arms (or re-arms) the timer to fire `delay` from now.
  void restart(Duration delay) {
    cancel();
    handle_ =
        sim_->schedule_in(delay, [this] { on_fire_(); });
  }

  /// Stops the timer if armed. Idempotent.
  void cancel() { handle_.cancel(); }

  /// Returns the timer to its freshly-constructed state. Used by the
  /// shard-context pool after Simulator::reset(), where the old handle is
  /// already inert; dropping it also releases its queue-life reference.
  void reset() {
    cancel();
    handle_ = EventHandle{};
  }

  [[nodiscard]] bool armed() const { return handle_.pending(); }

 private:
  Simulator* sim_;
  EventFn on_fire_;
  EventHandle handle_;
};

/// A periodic timer with drift-free ticks: each tick is scheduled at
/// `start + k * period`, independent of callback execution order.
class PeriodicTimer {
 public:
  /// The callback receives the tick index (0-based).
  using TickFn = std::function<void(std::uint64_t)>;

  PeriodicTimer(Simulator& sim, Duration period, TickFn on_tick)
      : PeriodicTimer(sim, std::move(on_tick)) {
    reset(period);
  }

  /// A timer whose period its owner sets with reset(period) before start()
  /// (owners whose period follows the scenario, e.g. the SDIO bus watchdog).
  PeriodicTimer(Simulator& sim, TickFn on_tick)
      : sim_(&sim), on_tick_(std::move(on_tick)) {}

  PeriodicTimer(const PeriodicTimer&) = delete;
  PeriodicTimer& operator=(const PeriodicTimer&) = delete;
  ~PeriodicTimer() { stop(); }

  /// Starts ticking; the first tick fires `initial_delay` from now.
  void start(Duration initial_delay = Duration{}) {
    expects(!initial_delay.is_negative(),
            "PeriodicTimer initial delay must be non-negative");
    expects(period_ > Duration{}, "PeriodicTimer::start before reset(period)");
    stop();
    running_ = true;
    tick_index_ = 0;
    schedule_next(sim_->now() + initial_delay);
  }

  /// Stops ticking. Idempotent.
  void stop() {
    running_ = false;
    handle_.cancel();
  }

  /// Stops the timer and sets its period; the constructor's one setup
  /// path, and the shard-context pool's (an owner's period can change with
  /// the scenario, e.g. the SDIO bus watchdog follows the phone profile).
  void reset(Duration period) {
    expects(period > Duration{}, "PeriodicTimer period must be positive");
    stop();
    handle_ = EventHandle{};
    period_ = period;
    tick_index_ = 0;
  }

  [[nodiscard]] bool running() const { return running_; }
  [[nodiscard]] Duration period() const { return period_; }

 private:
  void schedule_next(TimePoint when) {
    handle_ = sim_->schedule_at(when, [this, when] {
      const std::uint64_t index = tick_index_++;
      // Schedule the next tick before running user code so the callback can
      // call stop() and win.
      if (running_) schedule_next(when + period_);
      on_tick_(index);
    });
  }

  Simulator* sim_;
  Duration period_{};
  TickFn on_tick_;
  EventHandle handle_;
  bool running_ = false;
  std::uint64_t tick_index_ = 0;
};

}  // namespace acute::sim
