#include "routing/link_channel.hpp"

#include <algorithm>
#include <utility>

namespace psc::routing {

double LinkConfig::worst_hop_delay(double latency) const noexcept {
  // Worst chain: the frame (re)transmits through every backoff step before
  // the last copy gets through (or the cap escalates), plus one worst-case
  // one-way trip for the surviving copy and one delayed ack closing the
  // window behind it. Go-back-N retransmits the whole window per timeout,
  // so the chain is shared by every frame in flight, not per-frame.
  const double one_way =
      latency + sim::LinkFaultModel::worst_extra_delay(faults, latency);
  double chain = 0.0;
  double cur = effective_rto(latency);
  const double cap = effective_rto_max(latency);
  for (std::size_t i = 0; i <= max_retries; ++i) {
    chain += cur;
    cur = std::min(cur * backoff, cap);
  }
  return chain + 2.0 * one_way + effective_ack_delay(latency);
}

LinkChannels::LinkChannels(sim::EventQueue& queue, sim::Metrics& metrics,
                           const LinkConfig& config, sim::SimTime latency,
                           std::uint64_t seed, DeliverFn deliver,
                           EscalateFn escalate)
    : queue_(queue),
      metrics_(metrics),
      config_(config),
      latency_(latency),
      seed_(seed),
      deliver_(std::move(deliver)),
      escalate_(std::move(escalate)),
      rto_base_(config.effective_rto(latency)),
      rto_max_(config.effective_rto_max(latency)),
      ack_delay_(config.effective_ack_delay(latency)) {}

LinkChannels::Channel* LinkChannels::find(Key key) noexcept {
  const auto it = channels_.find(key);
  return it == channels_.end() ? nullptr : &it->second;
}

LinkChannels::Channel& LinkChannels::ensure(BrokerId from, BrokerId to) {
  const Key key = make_key(from, to);
  const auto it = channels_.find(key);
  if (it != channels_.end()) return it->second;
  auto [slot, inserted] = channels_.emplace(
      std::piecewise_construct, std::forward_as_tuple(key),
      std::forward_as_tuple(from, to, config_.faults, seed_));
  slot->second.rto_cur = rto_base_;
  apply_bursts(slot->second);
  return slot->second;
}

void LinkChannels::apply_bursts(Channel& ch) {
  std::vector<sim::BurstWindow> windows;
  for (const BurstWindow& burst : bursts_) {
    const bool matches = (burst.a == ch.from && burst.b == ch.to) ||
                         (burst.a == ch.to && burst.b == ch.from);
    if (matches) windows.push_back({burst.start, burst.end});
  }
  ch.faults.set_bursts(std::move(windows));
}

void LinkChannels::set_bursts(std::vector<BurstWindow> bursts) {
  bursts_ = std::move(bursts);
  for (auto& [key, ch] : channels_) apply_bursts(ch);
}

std::uint64_t LinkChannels::reverse_ack(const Channel& ch) noexcept {
  // A frame travelling from -> to acknowledges the reverse stream
  // (to -> from), whose receiver cursor lives on that channel's record.
  const Channel* rev = find(make_key(ch.to, ch.from));
  return rev ? rev->next_expected : 0;
}

void LinkChannels::send(BrokerId from, BrokerId to,
                        const wire::Announcement& msg) {
  Channel& ch = ensure(from, to);
  if (ch.muted) return;  // escalating; the pending fail_link purge covers it

  wire::ByteWriter payload;
  wire::write_announcement(payload, msg);
  Channel::Pending pending{ch.next_seq++, payload.take()};

  if (ch.unacked.size() >= config_.window) {
    ++metrics_.backpressure_stalls;
    ch.backlog.push_back(std::move(pending));
    return;
  }
  // Sending data satisfies any delayed-ack obligation for the reverse
  // stream: the piggybacked ack below says everything a pure ack would.
  // (Backlogged frames above do NOT — they transmit later, so the pure-ack
  // timer must stay armed.)
  if (Channel* rev = find(make_key(to, from)); rev && rev->ack_pending) {
    disarm_ack(*rev);
  }
  const bool was_idle = ch.unacked.empty();
  ch.unacked.push_back(std::move(pending));
  wire::LinkFrame frame;
  frame.kind = wire::LinkFrame::Kind::kData;
  frame.seq = ch.unacked.back().seq;
  frame.ack = reverse_ack(ch);
  frame.payload = ch.unacked.back().payload;
  transmit(ch, frame);
  if (was_idle) arm_rto(ch);
}

void LinkChannels::transmit(Channel& ch, const wire::LinkFrame& frame) {
  const sim::LinkFaultModel::Outcome outcome =
      ch.faults.next(queue_.now(), latency_);
  if (outcome.dropped) {
    ++metrics_.frames_dropped;
    return;
  }
  wire::ByteWriter out;
  wire::write_link_frame(out, frame);
  std::vector<std::uint8_t> bytes = out.take();
  const Key key = make_key(ch.from, ch.to);
  const std::uint64_t epoch = ch.epoch;
  if (outcome.duplicated) {
    ++metrics_.frames_duplicated;
    queue_.schedule_in(latency_ + outcome.dup_extra_delay,
                       [this, key, epoch, copy = bytes]() mutable {
                         on_arrival(key, epoch, std::move(copy));
                       });
  }
  queue_.schedule_in(latency_ + outcome.extra_delay,
                     [this, key, epoch, bytes = std::move(bytes)]() mutable {
                       on_arrival(key, epoch, std::move(bytes));
                     });
}

void LinkChannels::on_arrival(Key key, std::uint64_t epoch,
                              std::vector<std::uint8_t> bytes) {
  Channel* ch = find(key);
  if (ch == nullptr || ch->epoch != epoch || ch->muted) return;  // stale
  wire::ByteReader in(bytes);
  wire::LinkFrame frame = wire::read_link_frame(in);

  // Ack first: freeing the reverse window before delivering means any
  // sends the delivery triggers see up-to-date backpressure state.
  if (Channel* rev = find(make_key(ch->to, ch->from))) {
    process_ack(*rev, frame.ack);
  }
  if (frame.kind == wire::LinkFrame::Kind::kData) {
    process_data(*ch, frame.seq, frame.payload);
  }
}

void LinkChannels::process_ack(Channel& rev, std::uint64_t ack) {
  if (rev.muted) return;
  bool progress = false;
  while (!rev.unacked.empty() && rev.unacked.front().seq < ack) {
    rev.unacked.pop_front();
    progress = true;
  }
  if (!progress) return;
  rev.retries = 0;
  rev.rto_cur = rto_base_;
  while (!rev.backlog.empty() && rev.unacked.size() < config_.window) {
    rev.unacked.push_back(std::move(rev.backlog.front()));
    rev.backlog.pop_front();
    wire::LinkFrame frame;
    frame.kind = wire::LinkFrame::Kind::kData;
    frame.seq = rev.unacked.back().seq;
    frame.ack = reverse_ack(rev);
    frame.payload = rev.unacked.back().payload;
    transmit(rev, frame);
  }
  if (rev.unacked.empty()) {
    disarm_rto(rev);
  } else {
    arm_rto(rev);
  }
}

void LinkChannels::deliver_payload(Channel& ch,
                                   const std::vector<std::uint8_t>& payload) {
  wire::ByteReader in(payload);
  const wire::Announcement msg = wire::read_announcement(in);
  deliver_(ch.from, ch.to, msg);
}

void LinkChannels::process_data(Channel& ch, std::uint64_t seq,
                                std::vector<std::uint8_t>& payload) {
  if (seq < ch.next_expected || ch.reorder.count(seq) > 0) {
    // Duplicate — either the wire duplicated it or a retransmit raced the
    // ack. Re-ack so a lost ack cannot wedge the sender.
    ++metrics_.dups_suppressed;
    request_ack(ch);
    return;
  }
  if (seq == ch.next_expected) {
    ++ch.next_expected;
    deliver_payload(ch, payload);
    // Note: delivery can re-enter send() on other channels; `ch` stays
    // valid (unordered_map never moves mapped values) and resets only
    // happen at quiescent points, never mid-cascade.
    while (!ch.reorder.empty() &&
           ch.reorder.begin()->first == ch.next_expected) {
      const std::vector<std::uint8_t> healed =
          std::move(ch.reorder.begin()->second);
      ch.reorder.erase(ch.reorder.begin());
      ++ch.next_expected;
      ++metrics_.reorders_healed;
      deliver_payload(ch, healed);
    }
  } else if (ch.reorder.size() < config_.window &&
             seq < ch.next_expected + config_.window) {
    ch.reorder.emplace(seq, std::move(payload));
  } else {
    ++metrics_.frames_dropped;  // reorder buffer overflow: as good as lost
  }
  request_ack(ch);
}

void LinkChannels::request_ack(Channel& ch) {
  if (ch.ack_pending) return;
  ch.ack_pending = true;
  const std::uint64_t gen = ++ch.ack_gen;
  const Key key = make_key(ch.from, ch.to);
  const std::uint64_t epoch = ch.epoch;
  ch.ack_timer =
      queue_.schedule_cancelable_in(ack_delay_, [this, key, epoch, gen]() {
        on_ack_timer(key, epoch, gen);
      });
}

void LinkChannels::on_ack_timer(Key key, std::uint64_t epoch,
                                std::uint64_t gen) {
  Channel* ch = find(key);
  if (ch == nullptr || ch->epoch != epoch || ch->ack_gen != gen ||
      !ch->ack_pending || ch->muted) {
    return;  // stale, or a data frame already piggybacked the ack
  }
  ch->ack_pending = false;
  ch->ack_timer = sim::EventQueue::kNoTimer;  // this firing consumed it
  // The pure ack travels the reverse direction (to -> from) and is itself
  // unreliable: a lost ack is healed by the sender's retransmit, whose
  // duplicate triggers a fresh re-ack here.
  Channel& rev = ensure(ch->to, ch->from);
  if (rev.muted) return;
  wire::LinkFrame frame;
  frame.kind = wire::LinkFrame::Kind::kAck;
  frame.ack = ch->next_expected;
  ++metrics_.acks_sent;
  transmit(rev, frame);
}

void LinkChannels::arm_rto(Channel& ch) {
  const std::uint64_t gen = ++ch.rto_gen;
  const Key key = make_key(ch.from, ch.to);
  const std::uint64_t epoch = ch.epoch;
  // Re-arming supersedes any armed timer: release its handler now rather
  // than letting it ride to its (backoff-deep) deadline as a stale no-op.
  queue_.cancel(ch.rto_timer);
  ch.rto_timer =
      queue_.schedule_cancelable_in(ch.rto_cur, [this, key, epoch, gen]() {
        on_rto(key, epoch, gen);
      });
}

void LinkChannels::on_rto(Key key, std::uint64_t epoch, std::uint64_t gen) {
  Channel* ch = find(key);
  if (ch == nullptr || ch->epoch != epoch || ch->rto_gen != gen || ch->muted) {
    return;  // stale: acked, reset, or superseded by a later arm
  }
  ch->rto_timer = sim::EventQueue::kNoTimer;  // this firing consumed it
  if (ch->unacked.empty()) return;
  ++ch->retries;
  if (ch->retries > config_.max_retries) {
    escalate(*ch);
    return;
  }
  // Go-back-N: retransmit the whole window. Cumulative acks mean any copy
  // that got through is re-acked for free, and the shared timer keeps the
  // worst-case chain per window-load, not per frame.
  metrics_.retransmits += ch->unacked.size();
  for (const Channel::Pending& pending : ch->unacked) {
    wire::LinkFrame frame;
    frame.kind = wire::LinkFrame::Kind::kData;
    frame.seq = pending.seq;
    frame.ack = reverse_ack(*ch);
    frame.payload = pending.payload;
    transmit(*ch, frame);
  }
  ch->rto_cur = std::min(ch->rto_cur * config_.backoff, rto_max_);
  arm_rto(*ch);
}

void LinkChannels::escalate(Channel& ch) {
  ++metrics_.link_escalations;
  const BrokerId a = ch.from;
  const BrokerId b = ch.to;
  // Mute and freeze BOTH directions: the link is as good as down, and the
  // epoch bump turns every in-flight frame and timer into a stale no-op.
  // The network fails the link at the next quiescent point and calls
  // reset_link, which unmutes with both streams back at sequence zero.
  for (const Key key : {make_key(a, b), make_key(b, a)}) {
    if (Channel* dir = find(key)) {
      dir->muted = true;
      ++dir->epoch;
      dir->unacked.clear();
      dir->backlog.clear();
      dir->reorder.clear();
      disarm_rto(*dir);
      disarm_ack(*dir);
    }
  }
  escalate_(a, b);
}

void LinkChannels::reset_channel(Channel& ch) {
  ++ch.epoch;
  ch.muted = false;
  ch.next_seq = 0;
  ch.unacked.clear();
  ch.backlog.clear();
  ch.retries = 0;
  ch.rto_cur = rto_base_;
  // disarm_* cancel the armed timers outright (not just gen-stale them):
  // this is the reset_link ownership fix — a delayed-ack or retransmit
  // handler from the dead incarnation is destroyed here, not parked in the
  // queue until its (possibly far-future) deadline.
  disarm_rto(ch);
  ch.next_expected = 0;
  ch.reorder.clear();
  disarm_ack(ch);
  // The fault model is NOT reset: its stream position advances one draw per
  // transmission attempt for the life of the run, so adding or removing a
  // link incarnation never shifts another link's fault schedule.
}

void LinkChannels::reset_link(BrokerId a, BrokerId b) {
  for (const Key key : {make_key(a, b), make_key(b, a)}) {
    if (Channel* dir = find(key)) reset_channel(*dir);
  }
}

std::size_t LinkChannels::in_flight() const noexcept {
  std::size_t total = 0;
  for (const auto& [key, ch] : channels_) {
    total += ch.unacked.size() + ch.backlog.size();
  }
  return total;
}

}  // namespace psc::routing
