// The allocation-free event core, pinned by a counting global allocator:
// steady-state schedule_at/schedule_in/cancel/fire must perform ZERO heap
// allocations per event — closures live in EventClosure's inline buffer
// inside the pooled slots and cancel state is {slot, generation} (no
// shared_ptr). These tests replace operator new for the whole binary and
// diff the counter across a measured steady-state window. An oversized
// closure has no storage to spill to: compile-time checks below pin that
// EventClosure, EventQueue::push and Simulator::schedule_* reject it.
#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <type_traits>
#include <utility>

#include "net/packet.hpp"
#include "sim/closure.hpp"
#include "sim/simulator.hpp"
#include "sim/timer.hpp"
#include "wifi/channel.hpp"

namespace {
// Plain (non-atomic) counter: the tests are single-threaded.
std::size_t g_heap_allocations = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++g_heap_allocations;
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  ++g_heap_allocations;
  const std::size_t al = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + al - 1) / al * al;
  void* p = std::aligned_alloc(al, rounded == 0 ? al : rounded);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
// Nothrow variants too: libstdc++ internals (stable_sort's temporary
// buffer) allocate with new(nothrow) but free through plain delete — an
// incomplete replacement pairs the runtime's allocator with our free,
// which ASan rejects as an alloc-dealloc mismatch.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++g_heap_allocations;
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return ::operator new(size, std::nothrow);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace acute::sim {
namespace {

using namespace acute::sim::literals;

// The inline buffer must cover the fattest closures the stack layers
// schedule: a lambda owning a whole wifi::Frame (which embeds a
// net::Packet) plus a couple of pointers. Compile-time, so a Packet growth
// that would stop the layers' closures from compiling fails here first.
static_assert(EventClosure::kInlineBytes >=
                  sizeof(wifi::Frame) + 2 * sizeof(void*),
              "EventClosure inline buffer no longer covers a Frame capture");
static_assert(EventClosure::kInlineBytes >=
                  sizeof(net::Packet) + 2 * sizeof(void*),
              "EventClosure inline buffer no longer covers a Packet capture");

TEST(EventClosure, PacketAndFrameCapturesAreStoredInline) {
  net::Packet packet;
  wifi::Frame frame;
  auto packet_fn = [pkt = std::move(packet)]() mutable { (void)pkt; };
  auto frame_fn = [f = std::move(frame), extra = static_cast<void*>(nullptr)]()
      mutable { (void)f; (void)extra; };
  static_assert(EventClosure::fits_inline<decltype(packet_fn)>);
  static_assert(EventClosure::fits_inline<decltype(frame_fn)>);
  const std::size_t allocations_before = g_heap_allocations;
  EventClosure closure(std::move(frame_fn));
  EventClosure moved(std::move(closure));
  moved();
  moved.reset();
  EXPECT_EQ(g_heap_allocations, allocations_before);
  EXPECT_FALSE(static_cast<bool>(moved));
}

// A probe-like event: carries a Packet-sized payload, re-arms a timeout
// (push + cancel, the campaign's dominant pattern) and reschedules itself.
struct ProbeChain {
  Simulator* sim;
  int* remaining;
  EventHandle* timeout;
  std::array<unsigned char, sizeof(net::Packet)> payload{};

  void operator()() {
    if (--*remaining <= 0) return;
    timeout->cancel();
    *timeout = sim->schedule_in(8_s, [] {});
    sim->schedule_in(10_us,
                     ProbeChain{sim, remaining, timeout, payload});
  }
};
static_assert(EventClosure::fits_inline<ProbeChain>);

TEST(EventCoreAllocation, SteadyStateSchedulingIsAllocationFree) {
  Simulator sim;
  int remaining = 4000;
  EventHandle timeout;
  sim.schedule_in(10_us, ProbeChain{&sim, &remaining, &timeout, {}});

  // Warm-up: grows the slot pool, the heap vector, the free list and the
  // compaction high-water marks to their steady-state footprint.
  while (remaining > 2000 && sim.step()) {
  }
  ASSERT_GT(remaining, 0);

  const std::size_t allocations_before = g_heap_allocations;
  const std::uint64_t events_before = sim.events_fired();
  while (remaining > 0 && sim.step()) {
  }
  EXPECT_EQ(g_heap_allocations, allocations_before)
      << "steady-state schedule/cancel/fire touched the heap";
  EXPECT_GE(sim.events_fired() - events_before, 2000u);

  // Drain the surviving timeouts; still allocation-free.
  const std::size_t allocations_mid = g_heap_allocations;
  (void)sim.run();
  EXPECT_EQ(g_heap_allocations, allocations_mid);
}

// A deliberately oversized capture. It has no storage to go to, so every
// way of scheduling it must fail to compile.
struct OversizedChain {
  std::array<unsigned char, EventClosure::kInlineBytes + 128> blob{};
  void operator()() {}
};
static_assert(!EventClosure::fits_inline<OversizedChain>);

// Over-aligned, and a throwing move: both would need storage beyond the
// inline buffer's guarantees.
struct alignas(2 * EventClosure::kInlineAlign) OverAligned {
  void operator()() {}
};
struct ThrowingMove {
  ThrowingMove() = default;
  ThrowingMove(ThrowingMove&&) noexcept(false) {}
  void operator()() {}
};

// True when EventQueue::push / Simulator::schedule_in accept an F.
template <typename F>
constexpr bool pushable = requires(EventQueue& queue, F fn) {
  queue.push(TimePoint{}, std::move(fn));
};
template <typename F>
constexpr bool schedulable = requires(Simulator& sim, F fn) {
  sim.schedule_in(Duration{}, std::move(fn));
  sim.schedule_at(TimePoint{}, std::move(fn));
};

static_assert(std::is_constructible_v<EventClosure, ProbeChain>);
static_assert(pushable<ProbeChain> && schedulable<ProbeChain>);
static_assert(!std::is_constructible_v<EventClosure, OversizedChain>);
static_assert(!pushable<OversizedChain> && !schedulable<OversizedChain>);
static_assert(!std::is_constructible_v<EventClosure, OverAligned>);
static_assert(!pushable<OverAligned> && !schedulable<OverAligned>);
static_assert(!std::is_constructible_v<EventClosure, ThrowingMove>);
static_assert(!pushable<ThrowingMove> && !schedulable<ThrowingMove>);
// Only a callable is scheduled: a pre-built (possibly empty) closure has no
// overload, so an empty EventFn is rejected at compile time.
static_assert(!pushable<EventFn> && !schedulable<EventFn>);
static_assert(!pushable<int> && !schedulable<int>);
static_assert(pushable<void (*)()> && schedulable<void (*)()>);

TEST(EventCoreAllocation, CancelIsAllocationFree) {
  Simulator sim;
  std::array<EventHandle, 64> handles;
  for (int round = 0; round < 4; ++round) {
    for (EventHandle& handle : handles) {
      handle = sim.schedule_in(1_ms, [] {});
    }
    for (EventHandle& handle : handles) handle.cancel();
    (void)sim.run_for(2_ms);
  }
  // Pool, heap and free list are warm: one more full round must be clean.
  const std::size_t allocations_before = g_heap_allocations;
  for (EventHandle& handle : handles) {
    handle = sim.schedule_in(1_ms, [] {});
  }
  for (EventHandle& handle : handles) handle.cancel();
  (void)sim.run_for(2_ms);
  EXPECT_EQ(g_heap_allocations, allocations_before);
}

}  // namespace
}  // namespace acute::sim
