#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <vector>

#include "sim/contracts.hpp"
#include "sim/event_queue.hpp"

namespace acute::sim {
namespace {

using namespace acute::sim::literals;

TimePoint at(std::int64_t ms) {
  return TimePoint::epoch() + Duration::millis(ms);
}

// Fires the earliest live event in place; false when none is left.
bool fire(EventQueue& queue) { return queue.fire_one([](TimePoint) {}); }

// Fires every live event; returns their fire times in firing order.
std::vector<TimePoint> drain(EventQueue& queue) {
  std::vector<TimePoint> times;
  while (queue.fire_one([&](TimePoint when) { times.push_back(when); })) {
  }
  return times;
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue queue;
  std::vector<int> order;
  (void)queue.push(at(30), [&] { order.push_back(3); });
  (void)queue.push(at(10), [&] { order.push_back(1); });
  (void)queue.push(at(20), [&] { order.push_back(2); });
  (void)drain(queue);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesFireInInsertionOrder) {
  EventQueue queue;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    (void)queue.push(at(5), [&order, i] { order.push_back(i); });
  }
  (void)drain(queue);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(EventQueue, SizeTracksLiveEvents) {
  EventQueue queue;
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.size(), 0u);
  auto h1 = queue.push(at(1), [] {});
  auto h2 = queue.push(at(2), [] {});
  EXPECT_EQ(queue.size(), 2u);
  h1.cancel();
  EXPECT_EQ(queue.size(), 1u);
  EXPECT_TRUE(fire(queue));
  EXPECT_TRUE(queue.empty());
  (void)h2;
}

TEST(EventQueue, CancelledEventsAreSkipped) {
  EventQueue queue;
  std::vector<int> order;
  auto h1 = queue.push(at(1), [&] { order.push_back(1); });
  (void)queue.push(at(2), [&] { order.push_back(2); });
  h1.cancel();
  (void)drain(queue);
  EXPECT_EQ(order, (std::vector<int>{2}));
}

TEST(EventQueue, CancelIsIdempotent) {
  EventQueue queue;
  auto handle = queue.push(at(1), [] {});
  handle.cancel();
  handle.cancel();
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, HandlePendingReflectsState) {
  EventQueue queue;
  auto handle = queue.push(at(1), [] {});
  EXPECT_TRUE(handle.pending());
  handle.cancel();
  EXPECT_FALSE(handle.pending());
}

TEST(EventQueue, HandleOfFiredEventIsNotPending) {
  EventQueue queue;
  auto handle = queue.push(at(1), [] {});
  EXPECT_TRUE(fire(queue));
  EXPECT_FALSE(handle.pending());
  handle.cancel();  // harmless after firing
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, DefaultHandleIsInert) {
  EventHandle handle;
  EXPECT_FALSE(handle.pending());
  handle.cancel();  // no-op
}

TEST(EventQueue, HandleOutlivingQueueIsSafe) {
  EventHandle handle;
  {
    EventQueue queue;
    handle = queue.push(at(1), [] {});
  }
  handle.cancel();  // must not crash or touch freed memory
}

TEST(EventQueue, StaleHandleCannotCancelSlotReuse) {
  // The slot pool recycles LIFO, so the second push reuses the fired
  // event's slot. The stale handle's generation no longer matches and must
  // not be able to cancel (or observe) the slot's new tenant.
  EventQueue queue;
  int fired = 0;
  auto h1 = queue.push(at(1), [&] { ++fired; });
  EXPECT_TRUE(fire(queue));  // fires event 1 and frees its slot
  auto h2 = queue.push(at(2), [&] { ++fired; });
  h1.cancel();  // generation mismatch: must be a no-op
  EXPECT_FALSE(h1.pending());
  EXPECT_TRUE(h2.pending());
  ASSERT_EQ(queue.size(), 1u);
  EXPECT_TRUE(fire(queue));
  EXPECT_EQ(fired, 2);
}

TEST(EventQueue, StaleHandleAfterCancelCannotTouchReusedSlot) {
  EventQueue queue;
  int fired = 0;
  auto h1 = queue.push(at(1), [&] { ++fired; });
  h1.cancel();
  // Drain the dead entry so its slot returns to the pool, then reuse it.
  EXPECT_TRUE(queue.empty());
  auto h2 = queue.push(at(2), [&] { ++fired; });
  h1.cancel();  // double-stale: already cancelled AND the slot moved on
  EXPECT_TRUE(h2.pending());
  (void)drain(queue);
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, HandleCopiesShareTheEvent) {
  EventQueue queue;
  auto h1 = queue.push(at(1), [] {});
  EventHandle h2 = h1;
  EXPECT_TRUE(h1.pending());
  EXPECT_TRUE(h2.pending());
  h2.cancel();
  EXPECT_FALSE(h1.pending());
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, SizeIsPlainCountAcrossCancelPopAndCompaction) {
  // empty()/size() read a plain member (no indirection); the count must
  // stay exact through every path that retires events.
  EventQueue queue;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 200; ++i) {
    handles.push_back(queue.push(at(i), [] {}));
  }
  EXPECT_EQ(queue.size(), 200u);
  for (int i = 0; i < 200; i += 2) handles[i].cancel();
  EXPECT_EQ(queue.size(), 100u);
  for (int i = 0; i < 50; ++i) EXPECT_TRUE(fire(queue));
  EXPECT_EQ(queue.size(), 50u);
  // Force the compaction threshold (cancelled >= live, >= 64 entries).
  for (int i = 1; i < 200; i += 2) handles[i].cancel();
  (void)queue.push(at(1000), [] {});
  EXPECT_EQ(queue.size(), 1u);
  queue.clear();
  EXPECT_EQ(queue.size(), 0u);
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, FireOneReportsEarliestLiveTime) {
  EventQueue queue;
  auto h1 = queue.push(at(1), [] {});
  (void)queue.push(at(5), [] {});
  (void)queue.push(at(7), [] {});
  h1.cancel();
  TimePoint fired_at;
  EXPECT_TRUE(queue.fire_one([&](TimePoint when) { fired_at = when; }));
  EXPECT_EQ(fired_at, at(5));
}

TEST(EventQueue, ClearDropsEverything) {
  EventQueue queue;
  (void)queue.push(at(1), [] {});
  (void)queue.push(at(2), [] {});
  queue.clear();
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.size(), 0u);
}

TEST(EventQueue, FireOnEmptyQueueFiresNothing) {
  EventQueue queue;
  bool called = false;
  EXPECT_FALSE(queue.fire_one([&](TimePoint) { called = true; }));
  EXPECT_FALSE(queue.fire_one_before(at(1), [&](TimePoint) { called = true; }));
  EXPECT_FALSE(called);
}

TEST(EventQueue, NullFunctionPointerRejectedAtPush) {
  EventQueue queue;
  void (*null_fn)() = nullptr;
  EXPECT_THROW((void)queue.push(at(1), null_fn), ContractViolation);
  std::function<void()> empty_fn;
  EXPECT_THROW((void)queue.push(at(1), std::move(empty_fn)),
               ContractViolation);
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, ThrowingCallbackDoesNotLeakSlots) {
  // A callback that throws must still return its slot to the pool on the
  // unwind path; leaking one per throw would grow the chunk count.
  EventQueue queue;
  for (int i = 0; i < 1000; ++i) {
    (void)queue.push(at(i), [] { throw std::runtime_error("boom"); });
    EXPECT_THROW((void)queue.fire_one([](TimePoint) {}), std::runtime_error);
    EXPECT_TRUE(queue.empty());
  }
  EXPECT_EQ(queue.slot_chunks(), 1u);
}

TEST(EventQueue, CompactsWhenCancelledEventsDominate) {
  // Campaign-style load: every probe arms a timeout that is then cancelled.
  // Lazy deletion alone would keep all dead entries in the heap until their
  // fire time; compaction must bound the raw entry count near the live one.
  EventQueue queue;
  std::vector<EventHandle> handles;
  constexpr int kEvents = 4096;
  for (int i = 0; i < kEvents; ++i) {
    handles.push_back(queue.push(at(1000 + i), [] {}));
  }
  for (int i = 0; i < kEvents; ++i) {
    if (i % 16 != 0) handles[i].cancel();  // 15/16 cancelled
  }
  // One more push crosses the cancelled > live threshold and compacts.
  (void)queue.push(at(10'000), [] {});
  EXPECT_GE(queue.compactions(), 1u);
  EXPECT_LE(queue.heap_entries(), 2 * queue.size() + EventQueue::kCompactMinEntries);

  // Behaviour is unchanged: survivors fire in time order.
  const std::vector<TimePoint> times = drain(queue);
  EXPECT_TRUE(std::is_sorted(times.begin(), times.end()));
  EXPECT_EQ(times.size(), static_cast<std::size_t>(kEvents / 16 + 1));
}

TEST(EventQueue, SmallQueuesNeverCompact) {
  EventQueue queue;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 32; ++i) {
    handles.push_back(queue.push(at(i), [] {}));
  }
  for (auto& handle : handles) handle.cancel();
  (void)queue.push(at(100), [] {});
  EXPECT_EQ(queue.compactions(), 0u);
}

}  // namespace
}  // namespace acute::sim
