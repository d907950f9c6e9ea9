// Single-threaded discrete-event simulation engine.
//
// This replaces the paper's ModelNet emulation cluster (§5.1): instead of
// routing real packets through emulator hosts, protocol stacks schedule
// callbacks on a virtual clock. Determinism is total — identical seeds and
// configurations replay identical event sequences — and, unlike the paper's
// testbed, a single global clock lets us measure end-to-end latency between
// *every* source/destination pair, not only co-hosted ones (§5.3).
//
// Ordering guarantees: events fire in non-decreasing timestamp order; events
// with equal timestamps fire in ascending ordering-key order, and among
// equal keys in scheduling (FIFO) order. schedule_at() uses key 0, so a
// purely unkeyed simulation is plain timestamp+FIFO. The sharded engine
// (sim/sharded.hpp) keys cross-node deliveries by (source, send counter),
// making the order of same-microsecond arrivals a function of the protocol
// history rather than of which thread merged them first. Scheduling in the
// past is rejected.
//
// Storage: event records live in a slab (vector + free list) addressed by
// slot index; handles carry a generation counter so cancel()/pending() are
// O(1) array lookups with no hashing, and a stale handle can never touch a
// later event that reuses its slot. Callbacks use inline small-buffer
// storage (EventCallback), so the schedule/fire cycle of a typical event
// performs no heap allocation at steady state.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <new>
#include <queue>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"

namespace esm::sim {

/// Move-only callable holding small closures inline (no heap allocation for
/// captures up to kInlineBytes) and falling back to the heap for larger
/// ones. Deliberately minimal: invoke, move, destroy — exactly what the
/// event loop needs, with none of std::function's copyability overhead.
class EventCallback {
 public:
  /// Inline capture budget. Sized for the engine's hot callbacks (a couple
  /// of pointers, an id, a packet shared_ptr); measured across the harness,
  /// virtually every scheduled closure fits.
  static constexpr std::size_t kInlineBytes = 48;
  /// Inline alignment: pointer-aligned, so the whole callback is 56 bytes
  /// and an event record fills one 64-byte line. Over-aligned callables
  /// (none on the hot path) take the heap route.
  static constexpr std::size_t kInlineAlign = alignof(void*);

  EventCallback() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, EventCallback>>>
  EventCallback(F&& f) {  // NOLINT(google-explicit-constructor)
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineBytes &&
                  alignof(Fn) <= kInlineAlign &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      ops_ = &inline_ops<Fn>;
    } else {
      ::new (static_cast<void*>(buf_)) Fn*(new Fn(std::forward<F>(f)));
      ops_ = &heap_ops<Fn>;
    }
  }

  EventCallback(EventCallback&& other) noexcept { move_from(other); }
  EventCallback& operator=(EventCallback&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  EventCallback(const EventCallback&) = delete;
  EventCallback& operator=(const EventCallback&) = delete;

  ~EventCallback() { reset(); }

  void operator()() { ops_->invoke(buf_); }

  explicit operator bool() const { return ops_ != nullptr; }

  void reset() {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(unsigned char*);
    void (*move)(unsigned char* dst, unsigned char* src);
    void (*destroy)(unsigned char*);
  };

  template <typename Fn>
  static constexpr Ops inline_ops{
      [](unsigned char* b) { (*std::launder(reinterpret_cast<Fn*>(b)))(); },
      [](unsigned char* dst, unsigned char* src) {
        Fn* from = std::launder(reinterpret_cast<Fn*>(src));
        ::new (static_cast<void*>(dst)) Fn(std::move(*from));
        from->~Fn();
      },
      [](unsigned char* b) { std::launder(reinterpret_cast<Fn*>(b))->~Fn(); },
  };

  template <typename Fn>
  static constexpr Ops heap_ops{
      [](unsigned char* b) {
        (**std::launder(reinterpret_cast<Fn**>(b)))();
      },
      [](unsigned char* dst, unsigned char* src) {
        Fn** from = std::launder(reinterpret_cast<Fn**>(src));
        ::new (static_cast<void*>(dst)) Fn*(*from);
        *from = nullptr;
      },
      [](unsigned char* b) {
        delete *std::launder(reinterpret_cast<Fn**>(b));
      },
  };

  void move_from(EventCallback& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->move(buf_, other.buf_);
      other.ops_ = nullptr;
    }
  }

  alignas(kInlineAlign) unsigned char buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

/// Opaque handle to a scheduled event, used for cancellation. Encodes the
/// slab slot plus the slot's generation at scheduling time; the generation
/// check makes a stale handle inert after its slot is reused.
struct EventHandle {
  std::uint32_t slot = 0;  // slot index + 1; 0 = never scheduled
  std::uint32_t gen = 0;

  bool valid() const { return slot != 0; }
  friend bool operator==(const EventHandle&, const EventHandle&) = default;
};

/// The event loop. One instance per experiment; all components hold a
/// reference and schedule work on it.
class Simulator {
 public:
  using Callback = EventCallback;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current virtual time.
  SimTime now() const { return now_; }

  /// Schedules `cb` to run at absolute time `t` (must be >= now()).
  EventHandle schedule_at(SimTime t, Callback cb) {
    return schedule_at_keyed(t, 0, std::move(cb));
  }

  /// Schedules `cb` at `t` with an explicit ordering key: among events
  /// sharing a timestamp, smaller keys fire first (FIFO within a key).
  /// Key 0 — everything scheduled through schedule_at()/schedule_after()
  /// — therefore precedes any explicitly keyed event at the same time.
  EventHandle schedule_at_keyed(SimTime t, std::uint64_t key, Callback cb);

  /// Schedules `cb` to run `delay` microseconds from now (delay >= 0).
  EventHandle schedule_after(SimTime delay, Callback cb);

  /// Cancels a pending event. Returns true if the event was still pending
  /// (i.e. it had not yet fired and had not been cancelled before).
  bool cancel(EventHandle h);

  /// True if the event is still pending.
  bool pending(EventHandle h) const;

  /// Runs until the event queue is empty.
  void run();

  /// Runs events with timestamp <= `t`, then advances the clock to `t`
  /// (even if the queue drained earlier or further events remain).
  void run_until(SimTime t);

  /// Runs events with timestamp strictly < `t`, then advances the clock
  /// to `t`. The exclusive-end twin of run_until(), used by the sharded
  /// engine's conservative windows: an event at exactly the window
  /// boundary belongs to the next window, after the barrier has merged
  /// any cross-shard arrivals that share its timestamp.
  void run_strictly_until(SimTime t);

  /// Executes at most one event. Returns false if the queue was empty.
  bool step();

  /// Sentinel returned by next_event_time() on an empty queue.
  static constexpr SimTime kNoEvent = std::numeric_limits<SimTime>::max();

  /// Timestamp of the earliest pending event, or kNoEvent when none is
  /// queued. Non-const only because it discards cancelled heap entries on
  /// the way to the answer.
  SimTime next_event_time();

  /// Number of events executed so far (for stats and micro-benchmarks).
  std::uint64_t events_executed() const { return executed_; }

  /// Number of events currently pending.
  std::size_t events_pending() const { return pending_; }

 private:
  struct Record {
    EventCallback cb;
    std::uint32_t gen = 1;   // bumped whenever the slot is vacated
    bool active = false;
  };
  static_assert(sizeof(Record) <= 64, "an event record fits one cache line");
  struct Entry {
    SimTime time;
    std::uint64_t key;  // ordering key: 0 for plain events
    std::uint64_t seq;  // tie-break: FIFO among equal (time, key)
    std::uint32_t slot;
    std::uint32_t gen;
  };
  struct EntryLater {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) return a.time > b.time;
      if (a.key != b.key) return a.key > b.key;
      return a.seq > b.seq;
    }
  };

  // True if the heap entry still refers to a live event (its slot has not
  // been cancelled/fired and then possibly reused).
  bool entry_live(const Entry& e) const {
    const Record& rec = slots_[e.slot];
    return rec.active && rec.gen == e.gen;
  }

  // Pops dead (cancelled) entries off the heap top.
  void skip_cancelled();

  // Marks the slot free and bumps its generation so outstanding handles
  // and heap entries for the old event go stale.
  void vacate(std::uint32_t slot);

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::size_t pending_ = 0;
  std::priority_queue<Entry, std::vector<Entry>, EntryLater> heap_;
  std::vector<Record> slots_;
  std::vector<std::uint32_t> free_slots_;
};

/// Restartable periodic timer built on Simulator; fires `tick` every
/// `period` after an initial `first_delay`. Used by overlay shuffling,
/// ping monitors, rank gossip, etc.
class PeriodicTimer {
 public:
  PeriodicTimer(Simulator& sim, std::function<void()> tick)
      : sim_(sim), tick_(std::move(tick)) {}
  ~PeriodicTimer() { stop(); }

  PeriodicTimer(const PeriodicTimer&) = delete;
  PeriodicTimer& operator=(const PeriodicTimer&) = delete;

  /// (Re)starts the timer; any previous schedule is cancelled.
  void start(SimTime first_delay, SimTime period);

  /// Stops the timer; no further ticks fire.
  void stop();

  bool running() const { return handle_.valid() && sim_.pending(handle_); }

 private:
  void arm(SimTime delay);

  Simulator& sim_;
  std::function<void()> tick_;
  SimTime period_ = 0;
  EventHandle handle_{};
};

}  // namespace esm::sim
