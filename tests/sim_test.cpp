// Tests for the discrete-event simulator and metrics.
#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/metrics.hpp"

namespace psc::sim {
namespace {

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue queue;
  std::vector<int> order;
  queue.schedule_at(3.0, [&] { order.push_back(3); });
  queue.schedule_at(1.0, [&] { order.push_back(1); });
  queue.schedule_at(2.0, [&] { order.push_back(2); });
  EXPECT_EQ(queue.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(queue.now(), 3.0);
}

TEST(EventQueue, TiesBreakFifo) {
  EventQueue queue;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    queue.schedule_at(1.0, [&order, i] { order.push_back(i); });
  }
  queue.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, HandlersMayScheduleMore) {
  EventQueue queue;
  int count = 0;
  std::function<void()> chain = [&] {
    ++count;
    if (count < 10) queue.schedule_in(1.0, chain);
  };
  queue.schedule_in(1.0, chain);
  queue.run();
  EXPECT_EQ(count, 10);
  EXPECT_DOUBLE_EQ(queue.now(), 10.0);
}

TEST(EventQueue, ScheduleInPastClampsToNow) {
  EventQueue queue;
  double fired_at = -1;
  queue.schedule_at(5.0, [&] {
    queue.schedule_at(1.0, [&] { fired_at = queue.now(); });
  });
  queue.run();
  EXPECT_DOUBLE_EQ(fired_at, 5.0);
}

TEST(EventQueue, NegativeDelayClampsToNow) {
  EventQueue queue;
  queue.schedule_at(2.0, [] {});
  queue.run();
  ASSERT_DOUBLE_EQ(queue.now(), 2.0);
  double fired_at = -1;
  queue.schedule_in(-5.0, [&] { fired_at = queue.now(); });
  queue.run();
  EXPECT_DOUBLE_EQ(fired_at, 2.0);  // clamped, not scheduled in the past
  EXPECT_DOUBLE_EQ(queue.now(), 2.0);
}

TEST(EventQueue, NextTimeReportsEarliestPendingWithoutAdvancing) {
  EventQueue queue;
  EXPECT_DOUBLE_EQ(queue.next_time(), 0.0);  // empty: next_time == now
  queue.schedule_at(3.0, [] {});
  queue.schedule_at(1.5, [] {});
  EXPECT_DOUBLE_EQ(queue.next_time(), 1.5);
  EXPECT_DOUBLE_EQ(queue.now(), 0.0);  // peeking does not advance the clock
  queue.run_step();
  EXPECT_DOUBLE_EQ(queue.next_time(), 3.0);
  queue.run();
  EXPECT_DOUBLE_EQ(queue.next_time(), queue.now());
}

TEST(EventQueue, RunUntilStopsAtHorizon) {
  EventQueue queue;
  int fired = 0;
  queue.schedule_at(1.0, [&] { ++fired; });
  queue.schedule_at(2.0, [&] { ++fired; });
  queue.schedule_at(10.0, [&] { ++fired; });
  EXPECT_EQ(queue.run_until(5.0), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(queue.now(), 5.0);
  EXPECT_EQ(queue.pending(), 1u);
}

TEST(EventQueue, MaxEventsBounds) {
  EventQueue queue;
  int fired = 0;
  for (int i = 0; i < 10; ++i) queue.schedule_at(i, [&] { ++fired; });
  EXPECT_EQ(queue.run(3), 3u);
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(queue.pending(), 7u);
}

TEST(EventQueue, EmptyQueueRunsZero) {
  EventQueue queue;
  EXPECT_EQ(queue.run(), 0u);
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, RunStepFiresExactlyTheEarliestTimestampGroup) {
  EventQueue queue;
  std::vector<int> order;
  queue.schedule_at(1.0, [&] { order.push_back(1); });
  queue.schedule_at(1.0, [&] { order.push_back(2); });
  queue.schedule_at(2.0, [&] { order.push_back(3); });
  EXPECT_EQ(queue.run_step(), 2u);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(queue.pending(), 1u);
  EXPECT_DOUBLE_EQ(queue.now(), 1.0);
  EXPECT_EQ(queue.run_step(), 1u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(queue.run_step(), 0u);  // empty queue: a no-op step
}

TEST(EventQueue, RunStepIncludesEventsScheduledAtTheStepTime) {
  EventQueue queue;
  std::vector<int> order;
  queue.schedule_at(1.0, [&] {
    order.push_back(1);
    // Lands at the step's own timestamp (clamped to now): same step.
    queue.schedule_at(0.5, [&] { order.push_back(2); });
    // Strictly later: next step.
    queue.schedule_at(1.5, [&] { order.push_back(3); });
  });
  EXPECT_EQ(queue.run_step(), 2u);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(queue.run_step(), 1u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SameTimestampOrderIsGlobalFifoAcrossScheduleForms) {
  // Churn-replay determinism regression pin: equal-timestamp events fire
  // in exact scheduling order no matter how they were scheduled (before
  // the run or from inside a handler) and no matter which drive API runs
  // them. TTL expiries armed by a subscription flood rely on this — a
  // heap that broke FIFO ties would reorder expiry against message
  // delivery and desynchronize the differential oracle.
  std::vector<int> order;
  const auto build = [&order](EventQueue& queue) {
    queue.schedule_at(1.0, [&order] { order.push_back(0); });
    queue.schedule_at(1.0, [&order] { order.push_back(1); });
    queue.schedule_at(1.0, [&order] { order.push_back(2); });
    queue.schedule_at(1.0, [&order, &queue] {
      order.push_back(3);
      // Scheduled mid-step at the step's own timestamp: fires after every
      // already-queued 1.0 event, still within the same instant.
      queue.schedule_at(1.0, [&order] { order.push_back(5); });
    });
    queue.schedule_at(1.0, [&order] { order.push_back(4); });
  };
  const std::vector<int> expected{0, 1, 2, 3, 4, 5};

  EventQueue via_run;
  build(via_run);
  via_run.run();
  EXPECT_EQ(order, expected);

  order.clear();
  EventQueue via_run_until;
  build(via_run_until);
  via_run_until.run_until(1.0);
  EXPECT_EQ(order, expected);

  order.clear();
  EventQueue via_run_step;
  build(via_run_step);
  EXPECT_EQ(via_run_step.run_step(), 6u);
  EXPECT_EQ(order, expected);
}

TEST(Metrics, DeliveryRatio) {
  Metrics m;
  EXPECT_DOUBLE_EQ(m.delivery_ratio(), 1.0);  // nothing expected
  m.notifications_delivered = 9;
  m.notifications_lost = 1;
  EXPECT_DOUBLE_EQ(m.delivery_ratio(), 0.9);
}

TEST(Metrics, AdditionAndTotals) {
  Metrics a, b;
  a.subscription_messages = 5;
  a.publication_messages = 10;
  b.subscription_messages = 2;
  b.unsubscription_messages = 1;
  const Metrics sum = a + b;
  EXPECT_EQ(sum.subscription_messages, 7u);
  EXPECT_EQ(sum.total_messages(), 7u + 1u + 10u);
}

TEST(Metrics, ResetClears) {
  Metrics m;
  m.publication_messages = 3;
  m.reset();
  EXPECT_EQ(m.total_messages(), 0u);
}

TEST(Metrics, StreamOutput) {
  Metrics m;
  m.subscription_messages = 4;
  std::ostringstream os;
  os << m;
  EXPECT_NE(os.str().find("sub_msgs=4"), std::string::npos);
}

}  // namespace
}  // namespace psc::sim
