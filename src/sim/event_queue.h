/**
 * @file
 * Minimal discrete-event simulation engine used by the mini-Kubernetes
 * layer, the end-to-end recovery experiments (Fig 6) and the serving
 * front end (src/serve): a time-ordered queue of callbacks with
 * deterministic FIFO tie-breaking.
 *
 * Tie-breaking contract: events scheduled for the same instant fire in
 * insertion order, enforced by a monotone sequence number carried with
 * every event. The serve loop leans on this — a request arrival, its
 * admission decision and a window-close tick armed for the same
 * timestamp must interleave identically on every run, or BENCH_serve
 * sweep sections would not be byte-identical across --jobs counts.
 * EventQueue.SameTimestampFifo is the regression test.
 *
 * nextSeq() exposes the sequence number the next scheduled event will
 * carry, read-only. Two events armed for one instant fire back to back
 * when their numbers are consecutive, so a caller that notes
 * nextSeq() as it arms an event can tell later whether anything was
 * scheduled since. The kube substrate's heartbeat beat groups rely on
 * it to merge chains without changing the firing order (DESIGN.md,
 * "Hot-path data structures (kube substrate)").
 */

#ifndef PHOENIX_SIM_EVENT_QUEUE_H
#define PHOENIX_SIM_EVENT_QUEUE_H

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

namespace phoenix::sim {

/** Simulated time in seconds. */
using SimTime = double;

/**
 * Discrete-event scheduler. Events fire in (time, insertion order)
 * order; handlers may schedule further events.
 */
class EventQueue
{
  public:
    using Handler = std::function<void()>;

    /** Schedule @p handler at absolute time @p when (>= now). */
    void
    schedule(SimTime when, Handler handler)
    {
        if (when < now_)
            when = now_;
        heap_.push_back(Event{when, seq_++, std::move(handler)});
        std::push_heap(heap_.begin(), heap_.end(), Later{});
    }

    /** Schedule @p handler @p delay seconds from now. */
    void
    scheduleAfter(SimTime delay, Handler handler)
    {
        schedule(now_ + delay, std::move(handler));
    }

    SimTime now() const { return now_; }
    bool empty() const { return heap_.empty(); }
    size_t pending() const { return heap_.size(); }
    /** Sequence number the next schedule() call will assign. */
    uint64_t nextSeq() const { return seq_; }

    /** The instant of the next pending event; -1 when empty. */
    SimTime
    nextEventAt() const
    {
        return heap_.empty() ? -1.0 : heap_.front().when;
    }

    /** Run a single event; returns false when the queue is empty. */
    bool
    step()
    {
        if (heap_.empty())
            return false;
        // Move the event out before running it: the handler may push
        // (and reallocate) freely, and std::function is never copied.
        std::pop_heap(heap_.begin(), heap_.end(), Later{});
        Event ev = std::move(heap_.back());
        heap_.pop_back();
        now_ = ev.when;
        ev.handler();
        return true;
    }

    /** Run events until the queue drains or time exceeds @p until. */
    void
    runUntil(SimTime until)
    {
        while (!heap_.empty() && heap_.front().when <= until)
            step();
        if (now_ < until)
            now_ = until;
    }

    /** Drain the queue completely. */
    void
    runAll()
    {
        while (step()) {
        }
    }

  private:
    struct Event
    {
        SimTime when;
        uint64_t seq;
        Handler handler;
    };

    /** Max-heap comparator inverted into a min-heap on (when, seq):
     * the earliest event wins, and among same-instant events the one
     * inserted first (smallest seq) — stable FIFO tie-breaking. */
    struct Later
    {
        bool
        operator()(const Event &a, const Event &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    std::vector<Event> heap_;
    SimTime now_ = 0.0;
    uint64_t seq_ = 0;
};

} // namespace phoenix::sim

#endif // PHOENIX_SIM_EVENT_QUEUE_H
