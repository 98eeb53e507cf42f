#include <gtest/gtest.h>

#include <vector>

#include "sim/contracts.hpp"
#include "sim/simulator.hpp"
#include "sim/timer.hpp"

namespace acute::sim {
namespace {

using namespace acute::sim::literals;

TEST(Simulator, StartsAtEpoch) {
  Simulator sim;
  EXPECT_EQ(sim.now(), TimePoint::epoch());
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulator, RunAdvancesClockToEventTimes) {
  Simulator sim;
  std::vector<double> fire_times;
  sim.schedule_in(10_ms, [&] { fire_times.push_back(sim.now().to_ms()); });
  sim.schedule_in(5_ms, [&] { fire_times.push_back(sim.now().to_ms()); });
  EXPECT_EQ(sim.run(), 2u);
  EXPECT_EQ(fire_times, (std::vector<double>{5.0, 10.0}));
  EXPECT_EQ(sim.now().to_ms(), 10.0);
}

TEST(Simulator, RunUntilAdvancesClockToDeadline) {
  Simulator sim;
  int fired = 0;
  sim.schedule_in(5_ms, [&] { ++fired; });
  sim.schedule_in(50_ms, [&] { ++fired; });
  EXPECT_EQ(sim.run_until(sim.now() + 20_ms), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now().to_ms(), 20.0);  // clock lands on the deadline
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(Simulator, RunForIsRelative) {
  Simulator sim;
  sim.schedule_in(5_ms, [] {});
  sim.run_for(10_ms);
  EXPECT_EQ(sim.now().to_ms(), 10.0);
  sim.run_for(10_ms);
  EXPECT_EQ(sim.now().to_ms(), 20.0);
}

TEST(Simulator, EventsScheduledWhileRunningFire) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_in(1_ms, [&] {
    order.push_back(1);
    sim.schedule_in(1_ms, [&] { order.push_back(2); });
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(sim.now().to_ms(), 2.0);
}

TEST(Simulator, ZeroDelayFiresAtSameTime) {
  Simulator sim;
  sim.schedule_in(3_ms, [&] {
    sim.schedule_in(Duration{}, [&] { EXPECT_EQ(sim.now().to_ms(), 3.0); });
  });
  sim.run();
}

TEST(Simulator, StepFiresExactlyOne) {
  Simulator sim;
  int fired = 0;
  sim.schedule_in(1_ms, [&] { ++fired; });
  sim.schedule_in(2_ms, [&] { ++fired; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, CancellationPreventsFiring) {
  Simulator sim;
  int fired = 0;
  auto handle = sim.schedule_in(1_ms, [&] { ++fired; });
  handle.cancel();
  sim.run();
  EXPECT_EQ(fired, 0);
}

TEST(Simulator, CancelAfterFireIsNoOp) {
  Simulator sim;
  int fired = 0;
  auto handle = sim.schedule_in(1_ms, [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(handle.pending());
  handle.cancel();  // already fired: must not disturb anything
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulator, HandleOutlivingSimulatorIsSafe) {
  EventHandle handle;
  {
    Simulator sim;
    handle = sim.schedule_in(10_ms, [] {});
    EXPECT_TRUE(handle.pending());
  }
  // The simulator (and its queue and slot pool) are gone; the handle
  // must report not-pending and cancel must be inert.
  EXPECT_FALSE(handle.pending());
  handle.cancel();
}

TEST(Simulator, SchedulingInThePastViolatesContract) {
  Simulator sim;
  sim.schedule_in(5_ms, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(TimePoint::epoch(), [] {}),
               ContractViolation);
  EXPECT_THROW(sim.schedule_in(Duration::millis(-1), [] {}),
               ContractViolation);
}

TEST(Simulator, EventLimitCatchesRunawayLoops) {
  Simulator sim;
  sim.set_event_limit(100);
  std::function<void()> loop = [&] { sim.schedule_in(1_ns, loop); };
  sim.schedule_in(1_ns, loop);
  EXPECT_THROW(sim.run(), ContractViolation);
}

TEST(OneShotTimer, FiresAfterDelay) {
  Simulator sim;
  int fired = 0;
  OneShotTimer timer(sim, [&] { ++fired; });
  timer.restart(10_ms);
  EXPECT_TRUE(timer.armed());
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(timer.armed());
}

TEST(OneShotTimer, RestartPushesDeadlineOut) {
  Simulator sim;
  std::vector<double> fire_times;
  OneShotTimer timer(sim, [&] { fire_times.push_back(sim.now().to_ms()); });
  timer.restart(10_ms);
  sim.schedule_in(5_ms, [&] { timer.restart(10_ms); });
  sim.run();
  EXPECT_EQ(fire_times, std::vector<double>{15.0});
}

TEST(OneShotTimer, CancelStopsIt) {
  Simulator sim;
  int fired = 0;
  OneShotTimer timer(sim, [&] { ++fired; });
  timer.restart(10_ms);
  timer.cancel();
  sim.run();
  EXPECT_EQ(fired, 0);
}

TEST(PeriodicTimer, TicksAreDriftFree) {
  Simulator sim;
  std::vector<double> tick_times;
  PeriodicTimer timer(sim, 10_ms, [&](std::uint64_t) {
    tick_times.push_back(sim.now().to_ms());
  });
  timer.start();
  sim.run_for(45_ms);
  timer.stop();
  EXPECT_EQ(tick_times, (std::vector<double>{0, 10, 20, 30, 40}));
}

TEST(PeriodicTimer, InitialDelayShiftsPhase) {
  Simulator sim;
  std::vector<double> tick_times;
  PeriodicTimer timer(sim, 10_ms, [&](std::uint64_t) {
    tick_times.push_back(sim.now().to_ms());
  });
  timer.start(3_ms);
  sim.run_for(25_ms);
  timer.stop();
  EXPECT_EQ(tick_times, (std::vector<double>{3, 13, 23}));
}

TEST(PeriodicTimer, TickIndicesIncrease) {
  Simulator sim;
  std::vector<std::uint64_t> indices;
  PeriodicTimer timer(sim, 5_ms,
                      [&](std::uint64_t i) { indices.push_back(i); });
  timer.start();
  sim.run_for(12_ms);
  timer.stop();
  EXPECT_EQ(indices, (std::vector<std::uint64_t>{0, 1, 2}));
}

TEST(PeriodicTimer, StopInsideCallbackWins) {
  Simulator sim;
  int ticks = 0;
  PeriodicTimer timer(sim, 5_ms, [&](std::uint64_t) {
    if (++ticks == 2) timer.stop();
  });
  timer.start();
  sim.run_for(100_ms);
  EXPECT_EQ(ticks, 2);
  EXPECT_FALSE(timer.running());
}

TEST(PeriodicTimer, RequiresPositivePeriod) {
  Simulator sim;
  EXPECT_THROW(PeriodicTimer(sim, Duration{}, [](std::uint64_t) {}),
               ContractViolation);
}

}  // namespace
}  // namespace acute::sim
