#include "sim/event_queue.hpp"

#include <utility>

namespace psc::sim {

void EventQueue::schedule_at(SimTime at, Handler handler) {
  heap_.push(Event{at < now_ ? now_ : at, next_seq_++, std::move(handler)});
}

EventQueue::TimerId EventQueue::schedule_cancelable_at(SimTime at,
                                                       Handler handler) {
  const TimerId id = next_timer_id_++;
  cancelable_.emplace(id, std::move(handler));
  Event event;
  event.time = at < now_ ? now_ : at;
  event.seq = next_seq_++;
  event.timer_id = id;
  heap_.push(std::move(event));
  return id;
}

bool EventQueue::cancel(TimerId id) {
  if (id == kNoTimer) return false;
  return cancelable_.erase(id) > 0;
}

void EventQueue::fire(Event& event) {
  if (event.timer_id == kNoTimer) {
    event.handler();
    return;
  }
  const auto it = cancelable_.find(event.timer_id);
  if (it == cancelable_.end()) return;  // cancelled: heap entry is a no-op
  // Extract before running: the handler may reschedule (new id) or even
  // cancel other timers, so the table must not hold a live reference.
  Handler handler = std::move(it->second);
  cancelable_.erase(it);
  handler();
}

std::size_t EventQueue::run_step() {
  if (heap_.empty()) return 0;
  const SimTime step_time = heap_.top().time;
  std::size_t fired = 0;
  while (!heap_.empty() && heap_.top().time == step_time) {
    Event event = std::move(const_cast<Event&>(heap_.top()));
    heap_.pop();
    now_ = event.time;
    ++fired;
    fire(event);
  }
  return fired;
}

std::size_t EventQueue::run(std::size_t max_events) {
  std::size_t fired = 0;
  while (!heap_.empty() && fired < max_events) {
    // Copy out before pop: the handler may schedule new events.
    Event event = std::move(const_cast<Event&>(heap_.top()));
    heap_.pop();
    now_ = event.time;
    ++fired;
    fire(event);
  }
  return fired;
}

std::size_t EventQueue::run_until(SimTime horizon) {
  std::size_t fired = 0;
  while (!heap_.empty() && heap_.top().time <= horizon) {
    Event event = std::move(const_cast<Event&>(heap_.top()));
    heap_.pop();
    now_ = event.time;
    ++fired;
    fire(event);
  }
  if (now_ < horizon) now_ = horizon;
  return fired;
}

}  // namespace psc::sim
