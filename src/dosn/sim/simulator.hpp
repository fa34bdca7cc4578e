// Discrete-event simulator: the substrate substituting for a planet-scale P2P
// deployment (DESIGN.md §3.2, §3d). Virtual time is in microseconds; events
// are closures ordered by (time, insertion sequence) — the sequence number is
// the FIFO tie-break for same-timestamp events and is load-bearing for
// deterministic replay.
//
// The hot path is allocation-free for closures that fit one pool block:
// schedule() type-erases the callable into an EventClosure (a one-pointer
// handle whose capture takes one block of the simulator-owned pool — no
// std::function, no malloc per event) and the calendar EventQueue buckets
// near-future events so pushes and pops stop paying log(pending)
// comparisons across the whole horizon.
#pragma once

#include <cstdint>
#include <utility>

#include "dosn/sim/event_queue.hpp"
#include "dosn/sim/pool.hpp"
#include "dosn/util/error.hpp"

namespace dosn::sim {

inline constexpr SimTime kMicrosecond = 1;
inline constexpr SimTime kMillisecond = 1000;
inline constexpr SimTime kSecond = 1000 * 1000;

class Simulator {
 public:
  SimTime now() const { return now_; }

  /// Schedules `fn` to run `delay` after the current time.
  template <class F>
  void schedule(SimTime delay, F&& fn) {
    scheduleAt(now_ + delay, std::forward<F>(fn));
  }

  /// Schedules `fn` at an absolute time (>= now).
  template <class F>
  void scheduleAt(SimTime when, F&& fn) {
    if (when < now_) throw util::NetError("Simulator: scheduling in the past");
    queue_.push(Event{when, nextSeq_++, EventClosure(pool_, std::forward<F>(fn))});
  }

  /// Runs events until the queue drains or `maxEvents` have executed.
  /// Returns the number of events executed.
  std::size_t run(std::size_t maxEvents = kDefaultMaxEvents);

  /// Runs events with time <= `until` (events scheduled later stay queued).
  std::size_t runUntil(SimTime until, std::size_t maxEvents = kDefaultMaxEvents);

  bool idle() const { return queue_.empty(); }
  std::size_t pendingEvents() const { return queue_.size(); }

  /// The calendar queue (partition sizes feed tests and bench_scale).
  const EventQueue& eventQueue() const { return queue_; }

  static constexpr std::size_t kDefaultMaxEvents = 50'000'000;

 private:
  // Declared before queue_: pending EventClosures hold blocks from this
  // pool, so it must outlive (construct before, destruct after) the queue.
  Pool pool_{/*blockSize=*/192, /*blocksPerSlab=*/1024};
  EventQueue queue_;
  SimTime now_ = 0;
  std::uint64_t nextSeq_ = 0;
};

}  // namespace dosn::sim
