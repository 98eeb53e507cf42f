// tc-netem work-alike: base delay + jitter applied to an egress path.
//
// The paper emulates nRTTs of 20-135 ms by running `tc ... netem delay Xms`
// on the measurement server's interface, i.e. responses are delayed on the
// server's egress. NetemQdisc reproduces exactly that.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>

#include "net/packet.hpp"
#include "sim/contracts.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace acute::net {

class NetemQdisc {
 public:
  using ForwardFn = std::function<void(Packet&&)>;

  /// `forward` receives packets after the configured delay.
  NetemQdisc(sim::Simulator& sim, sim::Rng rng, ForwardFn forward);

  NetemQdisc(const NetemQdisc&) = delete;
  NetemQdisc& operator=(const NetemQdisc&) = delete;

  /// The one setup path (sim/resettable.hpp): no delay, jitter or loss;
  /// reorder prevented. Requires a forward hook.
  void reset(sim::Rng rng, ForwardFn forward) {
    sim::expects(static_cast<bool>(forward),
                 "NetemQdisc requires a forward hook");
    rng_ = std::move(rng);
    forward_ = std::move(forward);
    base_ = sim::Duration{};
    jitter_ = sim::Duration{};
    prevent_reorder_ = true;
    loss_ = 0.0;
    last_release_ = sim::TimePoint{};
    dropped_count_ = 0;
  }

  /// Sets the base delay (tc netem "delay <base>").
  void set_delay(sim::Duration base) { base_ = base; }

  /// Sets uniform jitter (tc netem "delay <base> <jitter>"): each packet is
  /// delayed base + U(-jitter, +jitter), floored at zero.
  void set_jitter(sim::Duration jitter) { jitter_ = jitter; }

  /// When true (default, like plain netem with no reorder option), packets
  /// never leave the qdisc out of order even if jitter would reorder them.
  void set_prevent_reorder(bool prevent) { prevent_reorder_ = prevent; }

  /// Independent packet loss probability (tc netem "loss <p>%").
  void set_loss(double probability);

  [[nodiscard]] sim::Duration delay() const { return base_; }
  [[nodiscard]] std::uint64_t dropped_count() const { return dropped_count_; }

  /// Enqueues a packet; it is forwarded after the emulated delay.
  void enqueue(Packet&& packet);

 private:
  sim::Simulator* sim_;
  sim::Rng rng_;
  ForwardFn forward_;
  sim::Duration base_;
  sim::Duration jitter_;
  bool prevent_reorder_ = true;
  double loss_ = 0.0;
  sim::TimePoint last_release_;
  std::uint64_t dropped_count_ = 0;
};

}  // namespace acute::net
