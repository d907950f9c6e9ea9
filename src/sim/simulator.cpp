#include "sim/simulator.hpp"

#include <utility>

namespace esm::sim {

EventHandle Simulator::schedule_at_keyed(SimTime t, std::uint64_t key,
                                         Callback cb) {
  ESM_CHECK(t >= now_, "cannot schedule an event in the past");
  ESM_CHECK(static_cast<bool>(cb), "event callback must be callable");
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Record& rec = slots_[slot];
  rec.cb = std::move(cb);
  rec.active = true;
  heap_.push(Entry{t, key, next_seq_++, slot, rec.gen});
  ++pending_;
  return EventHandle{slot + 1, rec.gen};
}

EventHandle Simulator::schedule_after(SimTime delay, Callback cb) {
  ESM_CHECK(delay >= 0, "event delay must be non-negative");
  return schedule_at(now_ + delay, std::move(cb));
}

bool Simulator::cancel(EventHandle h) {
  if (!h.valid()) return false;
  const std::uint32_t slot = h.slot - 1;
  if (slot >= slots_.size()) return false;
  Record& rec = slots_[slot];
  if (!rec.active || rec.gen != h.gen) return false;
  vacate(slot);  // heap entry is skipped lazily
  --pending_;
  return true;
}

bool Simulator::pending(EventHandle h) const {
  if (!h.valid()) return false;
  const std::uint32_t slot = h.slot - 1;
  if (slot >= slots_.size()) return false;
  const Record& rec = slots_[slot];
  return rec.active && rec.gen == h.gen;
}

void Simulator::vacate(std::uint32_t slot) {
  Record& rec = slots_[slot];
  rec.cb.reset();
  rec.active = false;
  ++rec.gen;
  free_slots_.push_back(slot);
}

void Simulator::skip_cancelled() {
  while (!heap_.empty() && !entry_live(heap_.top())) {
    heap_.pop();
  }
}

SimTime Simulator::next_event_time() {
  skip_cancelled();
  return heap_.empty() ? kNoEvent : heap_.top().time;
}

bool Simulator::step() {
  skip_cancelled();
  if (heap_.empty()) return false;
  const Entry e = heap_.top();
  heap_.pop();
  // skip_cancelled guarantees the record is live. Move the callback out
  // and vacate before invoking: the callback may schedule new events
  // (growing slots_) or cancel, so no Record reference survives the call.
  Callback cb = std::move(slots_[e.slot].cb);
  vacate(e.slot);
  --pending_;
  now_ = e.time;
  ++executed_;
  cb();
  return true;
}

void Simulator::run() {
  while (step()) {
  }
}

void Simulator::run_until(SimTime t) {
  ESM_CHECK(t >= now_, "run_until target is in the past");
  for (;;) {
    skip_cancelled();
    if (heap_.empty() || heap_.top().time > t) break;
    step();
  }
  now_ = t;
}

void Simulator::run_strictly_until(SimTime t) {
  ESM_CHECK(t >= now_, "run_strictly_until target is in the past");
  for (;;) {
    skip_cancelled();
    if (heap_.empty() || heap_.top().time >= t) break;
    step();
  }
  now_ = t;
}

void PeriodicTimer::start(SimTime first_delay, SimTime period) {
  ESM_CHECK(period > 0, "periodic timer period must be positive");
  stop();
  period_ = period;
  arm(first_delay);
}

void PeriodicTimer::stop() {
  if (handle_.valid()) {
    sim_.cancel(handle_);
    handle_ = EventHandle{};
  }
}

void PeriodicTimer::arm(SimTime delay) {
  handle_ = sim_.schedule_after(delay, [this] {
    arm(period_);  // re-arm first so tick_ may call stop()/start()
    tick_();
  });
}

}  // namespace esm::sim
