// Deterministic discrete-event simulator core.
//
// The paper's distributed analysis (Section 5) reasons about brokers
// exchanging subscription/publication messages over logical links; we
// reproduce it with an in-process event loop instead of sockets. Events are
// (time, sequence, handler) triples; the sequence number breaks timestamp
// ties FIFO, so runs are bit-for-bit reproducible from the workload seed.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_map>
#include <vector>

namespace psc::sim {

using SimTime = double;  ///< simulated seconds

class EventQueue {
 public:
  using Handler = std::function<void()>;
  /// Handle for a cancelable timer; 0 is never issued (invalid/none).
  using TimerId = std::uint64_t;
  static constexpr TimerId kNoTimer = 0;

  /// Schedules `handler` at absolute time `at` (>= now; earlier times are
  /// clamped to now, which keeps accidental negative latencies causal).
  void schedule_at(SimTime at, Handler handler);

  /// Schedules after a relative delay (>= 0).
  void schedule_in(SimTime delay, Handler handler) {
    schedule_at(now_ + (delay > 0 ? delay : 0), std::move(handler));
  }

  /// Schedules a CANCELABLE timer at absolute time `at`. The handler is
  /// owned by a side table, not the heap entry; cancel() destroys it
  /// immediately (releasing everything it captured) while the heap entry
  /// stays behind and fires as a no-op at its original instant. That keeps
  /// the event timeline — clock advance, fired counts, tie-break sequence
  /// numbers — bit-for-bit identical whether or not a timer was cancelled,
  /// which is what lets LinkChannels disarm timers without perturbing the
  /// deterministic replay contract.
  TimerId schedule_cancelable_at(SimTime at, Handler handler);

  /// Relative-delay form (delay >= 0, clamped like schedule_in).
  TimerId schedule_cancelable_in(SimTime delay, Handler handler) {
    return schedule_cancelable_at(now_ + (delay > 0 ? delay : 0),
                                  std::move(handler));
  }

  /// Cancels a pending cancelable timer: the handler is destroyed NOW (not
  /// at its deadline), so captured state is released promptly. Returns
  /// false when the id is unknown — already fired, already cancelled, or
  /// kNoTimer — which callers treat as an idempotent no-op.
  bool cancel(TimerId id);

  /// Cancelable timers whose handlers are still armed (scheduled and
  /// neither fired nor cancelled). Test/diagnostic surface for the timer
  /// ownership contract.
  [[nodiscard]] std::size_t armed_timer_count() const noexcept {
    return cancelable_.size();
  }

  /// Runs every event due at the earliest pending timestamp — one batch
  /// step — including events a handler schedules AT that same timestamp
  /// (schedule_at clamps past times to now, so nothing can sneak in
  /// earlier). Returns events fired; 0 when the queue is empty.
  std::size_t run_step();

  /// Runs until the queue drains or `max_events` fire. Returns events fired.
  std::size_t run(std::size_t max_events = SIZE_MAX);

  /// Runs events with time <= horizon. Returns events fired.
  std::size_t run_until(SimTime horizon);

  [[nodiscard]] SimTime now() const noexcept { return now_; }
  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::size_t pending() const noexcept { return heap_.size(); }

  /// Timestamp of the earliest pending event, or now() when the queue is
  /// empty. Lets a caller drain up to a deadline without fast-forwarding
  /// the clock past the last real event (run_until always sets now to its
  /// horizon; the lossy-link cascade loop needs the gentler form).
  [[nodiscard]] SimTime next_time() const noexcept {
    return heap_.empty() ? now_ : heap_.top().time;
  }

 private:
  struct Event {
    SimTime time;
    std::uint64_t seq;
    Handler handler;           ///< empty for cancelable timers
    TimerId timer_id = kNoTimer;  ///< nonzero: look the handler up on fire
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const noexcept {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  /// Runs one popped event: plain events invoke their handler; cancelable
  /// timers extract theirs from the side table (no-op when cancelled).
  void fire(Event& event);

  std::priority_queue<Event, std::vector<Event>, Later> heap_;
  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::unordered_map<TimerId, Handler> cancelable_;
  TimerId next_timer_id_ = 1;
};

}  // namespace psc::sim
