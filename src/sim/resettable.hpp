// The one state-setup convention of the simulator's resettable components.
//
// Every component a shard context reuses — the channel, radios, stations,
// the AP, the wired nodes, each phone layer, the passive observers, the
// tools — sets up its per-scenario state in exactly one place: reset(args)
// (MeasurementTool::reinitialize(config) for tools). Its constructor binds
// only what never changes over the object's life (the simulator, the
// channel, callbacks into itself) and then calls reset(args). A reset
// component therefore equals a freshly constructed one by construction:
// both ran the same lines, validated the same preconditions and armed the
// same construction-time events (doze timer, bus watchdog, system chatter)
// at the same point of the rng stream and the event sequence. That is what
// makes a reused shard context bit-identical to a fresh build.
//
// An owner keeps each part it resets in a slot — std::unique_ptr, or
// std::optional for a part that is always present — and puts it in place
// with place(): constructed on first use, reset afterwards, with the same
// arguments either way. A part's reset therefore runs once per owner
// reset, never once from the part's constructor and again from the
// owner's.
//
// Attach order: Radio::reset attaches the radio to its Channel, and
// Channel::reset empties the channel's radio list. A channel is reset
// before any radio on it, and radios re-attach in the order their owners
// are placed, which is the order of a fresh build (contention rounds
// iterate radios in attach order).
#pragma once

#include <memory>
#include <optional>
#include <tuple>
#include <utility>

namespace acute::sim {

/// Resets the component in `slot` with `args`, or, when the slot is empty,
/// constructs it as T(bound..., args...). `bound` holds the constructor's
/// leading never-changing arguments (std::tie them). Returns the component.
template <typename T, typename... Bound, typename... Args>
T& place(std::unique_ptr<T>& slot, std::tuple<Bound...> bound,
         Args&&... args) {
  if (slot) {
    slot->reset(std::forward<Args>(args)...);
  } else {
    slot = std::apply(
        [&](auto&&... b) {
          return std::make_unique<T>(b..., std::forward<Args>(args)...);
        },
        bound);
  }
  return *slot;
}

/// place() for a part that is always present (held by value in an
/// optional, so it keeps its address and allocates nothing).
template <typename T, typename... Bound, typename... Args>
T& place(std::optional<T>& slot, std::tuple<Bound...> bound, Args&&... args) {
  if (slot) {
    slot->reset(std::forward<Args>(args)...);
  } else {
    std::apply(
        [&](auto&&... b) { slot.emplace(b..., std::forward<Args>(args)...); },
        bound);
  }
  return *slot;
}

}  // namespace acute::sim
