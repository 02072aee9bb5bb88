// Discrete-event engine driving the simulated machine.
//
// Benchmarks model a closed-loop client population: each client issues a
// request, the request visits a series of Resources (CPU, disk, network
// link), and completion schedules the client's next request. The EventQueue
// orders those completions in virtual time.
//
// The engine is allocation-free in steady state: continuations are
// InlineCallbacks (fixed inline storage, no heap), the scheduler structures
// order lightweight POD keys over a pooled slot array so dispatched events
// are *moved* out rather than copied, and multi-stage continuations ride in
// pooled nodes (ResourceChain, and per-subsystem pools in net/fs/httpd).
//
// The scheduler is a bucketed calendar queue (R. Brown, CACM '88). Days
// are a power-of-two width auto-tuned from observed inter-event gaps; each
// bucket is a sorted FIFO of pooled nodes with an O(1) append fast path
// (monotone and same-instant schedules); the bucket array lazily
// doubles/halves as the population drifts. Amortized O(1) schedule and
// dispatch for the stationary-arrival workloads every figure runs.
//
// Events dispatch in exactly (when, seq) order — seq is unique, so the
// order is a total order independent of scheduler internals. The golden
// determinism tests pin this; tests/scheduler_test.cc drives randomized
// schedule/cancel streams through the queue and a std::priority_queue
// reference and asserts identical sequences.

#ifndef SRC_SIMOS_EVENT_QUEUE_H_
#define SRC_SIMOS_EVENT_QUEUE_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/simos/clock.h"
#include "src/simos/inline_function.h"

namespace iolsim {

// A time-ordered queue of callbacks. Ties are broken by insertion order so
// simulations are deterministic.
class EventQueue {
 public:
  // Handle for Cancel: packs the callback slot and its generation, so a
  // stale handle (the event already dispatched or cancelled) is rejected.
  using EventId = uint64_t;

  // `dispatched_counter`, when given, is incremented once per dispatched
  // event (SimContext points it at SimStats::events_dispatched).
  explicit EventQueue(VirtualClock* clock, uint64_t* dispatched_counter = nullptr)
      : clock_(clock),
        dispatched_(dispatched_counter != nullptr ? dispatched_counter : &own_dispatched_) {
    cal_head_.assign(kMinBuckets, kNil);
    cal_tail_.assign(kMinBuckets, kNil);
    cal_mask_ = kMinBuckets - 1;
    cal_top_ = SimTime{1} << cal_shift_;
  }

  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  // Schedules `fn` to run at absolute time `when` (clamped to now). The
  // returned id is valid until the event dispatches (or is cancelled) and
  // may be ignored — almost every caller does.
  EventId ScheduleAt(SimTime when, InlineCallback fn) {
    if (when < clock_->now()) {
      when = clock_->now();
    }
    uint32_t slot;
    if (!free_slots_.empty()) {
      slot = free_slots_.back();
      free_slots_.pop_back();
      slots_[slot].fn = std::move(fn);
    } else {
      slot = static_cast<uint32_t>(slots_.size());
      slots_.emplace_back();
      slots_[slot].fn = std::move(fn);
    }
    CalInsert(when, next_seq_++, slot);
    ++live_;
    return MakeId(slot, slots_[slot].gen);
  }

  // Schedules `fn` to run `delay` after the current time.
  EventId ScheduleAfter(SimTime delay, InlineCallback fn) {
    return ScheduleAt(clock_->now() + delay, std::move(fn));
  }

  // Cancels a pending event. Returns false for a stale id (already
  // dispatched, already cancelled, or never valid). O(1): the event's key
  // stays queued and is discarded when it surfaces; the callback (and
  // whatever it captured) is destroyed immediately.
  bool Cancel(EventId id) {
    uint32_t slot = static_cast<uint32_t>(id >> 32);
    uint32_t gen = static_cast<uint32_t>(id);
    if (slot >= slots_.size() || slots_[slot].gen != gen || slots_[slot].cancelled) {
      return false;
    }
    Slot& s = slots_[slot];
    // A live generation match can still be a free slot (never scheduled
    // under this gen) only if the caller forged an id; scheduled slots are
    // exactly those not on the free list with matching gen.
    s.cancelled = true;
    s.fn = InlineCallback();
    ++s.gen;  // Invalidate the handle immediately (double-cancel is a no-op).
    assert(live_ > 0);
    --live_;
    return true;
  }

  // True if no live events are pending.
  bool empty() const { return live_ == 0; }

  // Number of live (non-cancelled) pending events.
  size_t size() const { return live_; }

  // Time of the earliest live event; false when none is pending. Purges
  // cancelled keys it surfaces along the way.
  bool PeekWhen(SimTime* when) {
    while (live_ > 0) {
      Event e = PeekMinKey();
      if (slots_[e.slot].cancelled) {
        PopMinKey();
        ReleaseCancelled(e.slot);
        continue;
      }
      *when = e.when;
      return true;
    }
    return false;
  }

  // Dispatches the earliest event, advancing the clock to its timestamp.
  // Returns false if the queue was empty.
  bool RunOne() {
    SimTime when;
    if (!PeekWhen(&when)) {
      return false;
    }
    Event ev = PopMinKey();
    clock_->AdvanceTo(ev.when);
    ++*dispatched_;
    --live_;
    // Move the continuation out and release the slot before invoking: the
    // callback is free to schedule into the slot it just vacated.
    InlineCallback fn = std::move(slots_[ev.slot].fn);
    ReleaseSlot(ev.slot);
    fn();
    return true;
  }

  // Runs events until the queue drains or the clock passes `deadline`.
  // Events scheduled exactly at `deadline` still run. Returns the number of
  // events dispatched.
  uint64_t RunUntil(SimTime deadline) {
    uint64_t dispatched = 0;
    SimTime when;
    while (PeekWhen(&when) && when <= deadline) {
      RunOne();
      ++dispatched;
    }
    clock_->AdvanceTo(deadline);
    return dispatched;
  }

  // Runs until no events remain.
  uint64_t RunAll() {
    uint64_t dispatched = 0;
    while (RunOne()) {
      ++dispatched;
    }
    return dispatched;
  }

 private:
  // The scheduler orders lightweight POD keys; the continuations
  // themselves sit in a slot pool and never move while queued.
  struct Event {
    SimTime when;
    uint64_t seq;
    uint32_t slot;
  };

  // A pooled continuation plus the bookkeeping Cancel needs: the
  // generation invalidates stale EventIds, and `cancelled` marks a key
  // whose surfacing should be silent (no clock movement, no dispatch).
  struct Slot {
    InlineCallback fn;
    uint32_t gen = 0;
    bool cancelled = false;
  };

  static constexpr uint32_t kNil = UINT32_MAX;

  static EventId MakeId(uint32_t slot, uint32_t gen) {
    return (static_cast<uint64_t>(slot) << 32) | gen;
  }

  void ReleaseSlot(uint32_t slot) {
    ++slots_[slot].gen;
    free_slots_.push_back(slot);
  }

  // A cancelled key surfaced: the callback is already destroyed and the
  // generation already bumped (Cancel did both); just recycle the slot.
  void ReleaseCancelled(uint32_t slot) {
    slots_[slot].cancelled = false;
    free_slots_.push_back(slot);
  }

  Event PeekMinKey() {
    CalFindMin();
    const CalNode& n = cal_nodes_[cal_head_[cal_bucket_]];
    return Event{n.when, n.seq, n.slot};
  }

  Event PopMinKey() {
    CalFindMin();
    uint32_t idx = cal_head_[cal_bucket_];
    CalNode& n = cal_nodes_[idx];
    Event ev{n.when, n.seq, n.slot};
    cal_head_[cal_bucket_] = n.next;
    if (n.next == kNil) {
      cal_tail_[cal_bucket_] = kNil;
    }
    n.next = cal_free_;
    cal_free_ = idx;
    --cal_count_;
    // Day-width tuning input: the gap between successive dispatch instants
    // is exactly the stationary inter-event spacing the day width should
    // match. (Resizes consume the running average; see CalResize.)
    SimTime gap = ev.when - cal_last_when_;
    cal_last_when_ = ev.when;
    cal_gap_sum_ += gap;
    ++cal_gap_n_;
    if (cal_count_ < (cal_mask_ + 1) / 4 && cal_mask_ + 1 > kMinBuckets) {
      CalResize(cal_count_);
    }
    return ev;
  }

  // --- Calendar queue -------------------------------------------------------
  //
  // Keys live in pooled, index-linked nodes; bucket b holds every pending
  // event whose day index (when >> cal_shift_) lands on b modulo the bucket
  // count. Within a bucket the list is sorted by (when, seq), so the head
  // of the "current day" bucket is the global minimum — and because two
  // events with equal `when` always share a bucket, cross-bucket
  // comparisons never need the seq tie-break.
  //
  // The dispatch cursor (cal_bucket_, cal_top_) walks day by day. Events
  // are never scheduled before the last dispatched instant (ScheduleAt
  // clamps to now, and now never precedes the last pop), so the cursor
  // only ever moves forward; a full lap without a hit (sparse far-future
  // events) falls back to a direct scan of all bucket heads.

  struct CalNode {
    SimTime when;
    uint64_t seq;
    uint32_t slot;
    uint32_t next;
  };

  static constexpr size_t kMinBuckets = 64;

  // "a sorts before b" within a bucket.
  bool CalBefore(const CalNode& a, SimTime when, uint64_t seq) const {
    if (a.when != when) {
      return a.when < when;
    }
    return a.seq < seq;
  }

  void CalInsert(SimTime when, uint64_t seq, uint32_t slot) {
    uint32_t idx;
    if (cal_free_ != kNil) {
      idx = cal_free_;
      cal_free_ = cal_nodes_[idx].next;
    } else {
      idx = static_cast<uint32_t>(cal_nodes_.size());
      cal_nodes_.emplace_back();
    }
    CalNode& n = cal_nodes_[idx];
    n.when = when;
    n.seq = seq;
    n.slot = slot;
    n.next = kNil;
    if (cal_count_ == 0 || when < cal_top_ - (SimTime{1} << cal_shift_)) {
      // Re-anchor the cursor: either the queue sat empty (the cursor is
      // stale), or this event lands in a day the cursor already passed —
      // possible because peeks advance the cursor without advancing the
      // clock, and schedules only clamp to the clock. Moving the cursor
      // *backward* is always safe; the forward walk just rescans.
      cal_bucket_ = static_cast<size_t>(when >> cal_shift_) & cal_mask_;
      cal_top_ = ((when >> cal_shift_) + 1) << cal_shift_;
    }
    CalLink(idx);
    ++cal_count_;
    if (cal_count_ > (cal_mask_ + 1) * 2) {
      CalResize(cal_count_);
    }
  }

  // Links node `idx` into its bucket's sorted list. O(1) for the dominant
  // patterns: append (monotone inserts, and same-instant bursts — seq grows
  // monotonically, so equal-when events always append behind their peers).
  void CalLink(uint32_t idx) {
    CalNode& n = cal_nodes_[idx];
    size_t b = static_cast<size_t>(n.when >> cal_shift_) & cal_mask_;
    uint32_t tail = cal_tail_[b];
    if (tail == kNil) {
      cal_head_[b] = idx;
      cal_tail_[b] = idx;
      return;
    }
    if (CalBefore(cal_nodes_[tail], n.when, n.seq)) {
      cal_nodes_[tail].next = idx;
      cal_tail_[b] = idx;
      return;
    }
    uint32_t prev = kNil;
    uint32_t cur = cal_head_[b];
    while (cur != kNil && CalBefore(cal_nodes_[cur], n.when, n.seq)) {
      prev = cur;
      cur = cal_nodes_[cur].next;
    }
    n.next = cur;
    if (prev == kNil) {
      cal_head_[b] = idx;
    } else {
      cal_nodes_[prev].next = idx;
    }
  }

  // Advances the cursor until the head of cal_bucket_ is the global
  // minimum (precondition: cal_count_ > 0; callers guard via live_).
  void CalFindMin() {
    assert(cal_count_ > 0);
    size_t scanned = 0;
    while (true) {
      uint32_t h = cal_head_[cal_bucket_];
      if (h != kNil && cal_nodes_[h].when < cal_top_) {
        return;
      }
      cal_bucket_ = (cal_bucket_ + 1) & cal_mask_;
      cal_top_ += SimTime{1} << cal_shift_;
      if (++scanned > cal_mask_) {
        // A whole year without a hit: every pending event is at least one
        // lap ahead. Jump straight to the earliest bucket head (ties across
        // buckets are impossible — equal `when` shares a bucket).
        size_t best = 0;
        SimTime best_when = INT64_MAX;
        for (size_t b = 0; b <= cal_mask_; ++b) {
          uint32_t head = cal_head_[b];
          if (head != kNil && cal_nodes_[head].when < best_when) {
            best_when = cal_nodes_[head].when;
            best = b;
          }
        }
        cal_bucket_ = best;
        cal_top_ = ((best_when >> cal_shift_) + 1) << cal_shift_;
        return;
      }
    }
  }

  // Rebuilds the bucket array for roughly `target` events and re-tunes the
  // day width to the observed mean inter-dispatch gap. "Lazy": runs only
  // at the 2x-grow / 4x-shrink thresholds, so each event pays amortized
  // O(1) relinking.
  void CalResize(size_t target) {
    size_t buckets = kMinBuckets;
    while (buckets < target) {
      buckets <<= 1;
    }
    if (cal_gap_n_ >= 16) {
      SimTime avg = cal_gap_sum_ / static_cast<SimTime>(cal_gap_n_);
      // Day width = the next power of two at or above twice the mean gap:
      // ~2 events per day per lap keeps both the insert scan and the
      // cursor walk O(1) for stationary arrivals.
      int shift = 0;
      while (shift < 40 && (SimTime{1} << shift) < avg * 2) {
        ++shift;
      }
      cal_shift_ = shift;
      // Age the sample so the tuning tracks drift instead of history.
      cal_gap_sum_ /= 2;
      cal_gap_n_ /= 2;
    }
    cal_mask_ = buckets - 1;
    std::vector<uint32_t> old_head = std::move(cal_head_);
    cal_head_.assign(buckets, kNil);
    cal_tail_.assign(buckets, kNil);
    for (uint32_t h : old_head) {
      while (h != kNil) {
        uint32_t next = cal_nodes_[h].next;
        cal_nodes_[h].next = kNil;
        CalLink(h);
        h = next;
      }
    }
    // Re-anchor the cursor at the last dispatched instant — every pending
    // event is at or after it, so the forward walk stays correct.
    cal_bucket_ = static_cast<size_t>(cal_last_when_ >> cal_shift_) & cal_mask_;
    cal_top_ = ((cal_last_when_ >> cal_shift_) + 1) << cal_shift_;
  }

  VirtualClock* clock_;
  uint64_t* dispatched_;
  uint64_t own_dispatched_ = 0;
  uint64_t next_seq_ = 0;
  size_t live_ = 0;  // Pending minus cancelled-but-not-yet-surfaced.
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;

  // Calendar state.
  std::vector<CalNode> cal_nodes_;
  uint32_t cal_free_ = kNil;
  std::vector<uint32_t> cal_head_;
  std::vector<uint32_t> cal_tail_;
  size_t cal_count_ = 0;  // Queued keys, cancelled included.
  size_t cal_mask_ = 0;
  int cal_shift_ = 13;  // Day width 8192 ns to start; auto-tuned at resizes.
  size_t cal_bucket_ = 0;
  SimTime cal_top_ = 0;
  SimTime cal_last_when_ = 0;
  SimTime cal_gap_sum_ = 0;
  uint64_t cal_gap_n_ = 0;
};

class Resource;

// Admission hook for the multi-tenant QoS plane (src/qos). When a scheduler
// is attached to a Resource, asynchronous acquisitions are handed to it
// instead of being reserved immediately: the scheduler queues the work under
// its own discipline (e.g. per-tenant start-time fair queueing) and performs
// the actual unit reservation only when it dispatches the job. Synchronous
// Acquire/AcquireAfter calls bypass the scheduler — direct-mode callers own
// the machine and have no peers to share with.
class ResourceScheduler {
 public:
  virtual ~ResourceScheduler() = default;

  // Takes ownership of one asynchronous acquisition: `done` must eventually
  // run on `events` at the job's completion time, exactly once.
  virtual void Admit(Resource* resource, EventQueue* events, SimTime service,
                     InlineCallback done) = 0;
};

// A FIFO service resource (CPU, disk arm, network link) with one or more
// identical service units (an N-way CPU is Resource(clock, N)).
//
// A job arriving at time `now` with service demand `d` begins service on
// the earliest-available unit at max(now, unit free time) and completes at
// begin + d. Reservations are made in call order, so service is FIFO by
// arrival; callers that arrive via the event queue inherit its deterministic
// insertion-order tie-breaking. The queue itself is never materialized,
// which keeps the simulation allocation-free on the sync path.
//
// Unit selection is O(1): a single unit is tracked directly, and multi-unit
// resources keep an index heap ordered by (free time, index) — the same
// earliest-free, lowest-index-on-ties rule the old linear scan implemented,
// now at O(log units) per acquire and O(1) for available_at.
class Resource {
 public:
  explicit Resource(VirtualClock* clock, int units = 1)
      : clock_(clock), unit_free_at_(units > 0 ? units : 1, 0) {
    heap_.resize(unit_free_at_.size());
    ResetHeap();
  }

  // Reserves a unit for `service` time and returns the completion time.
  // The caller typically schedules an event at the returned time.
  SimTime Acquire(SimTime service) { return AcquireAfter(clock_->now(), service); }

  // Reserves a unit for `service` time starting no earlier than `earliest`
  // (e.g. after an upstream stage completes).
  SimTime AcquireAfter(SimTime earliest, SimTime service) {
    SimTime now = clock_->now();
    SimTime start = earliest > now ? earliest : now;
    SimTime& unit = unit_free_at_[BestUnit()];
    if (unit > start) {
      start = unit;
    }
    if (!fault_windows_.empty()) {
      ApplyFaultWindows(now, &start, &service);
    }
    unit = start + service;
    busy_ += service;
    if (unit_free_at_.size() > 1) {
      SiftRootDown();  // The root's key just grew; restore heap order.
    }
    return unit;
  }

  // Asynchronous acquisition: reserves the earliest-available unit starting
  // now and schedules `done` on `events` at the completion time. FIFO
  // fairness follows from reservation-at-call order; simultaneous
  // completions dispatch in schedule order (EventQueue seq numbers).
  //
  // With a ResourceScheduler attached the acquisition is queued under the
  // scheduler's discipline instead, and the completion time is unknown
  // until it dispatches — the return value is 0 in that case (no async
  // call site consumes it).
  SimTime AcquireAsync(EventQueue* events, SimTime service, InlineCallback done) {
    if (scheduler_ != nullptr) {
      scheduler_->Admit(this, events, service, std::move(done));
      return 0;
    }
    SimTime finish = Acquire(service);
    events->ScheduleAt(finish, std::move(done));
    return finish;
  }

  // QoS hook (src/qos): routes AcquireAsync through `scheduler`; null
  // restores the plain reservation-at-call FIFO semantics.
  void set_scheduler(ResourceScheduler* scheduler) { scheduler_ = scheduler; }
  ResourceScheduler* scheduler() const { return scheduler_; }

  // Time at which some unit next becomes free.
  SimTime available_at() const { return unit_free_at_[BestUnit()]; }

  int units() const { return static_cast<int>(unit_free_at_.size()); }

  // Total busy time accumulated across all units (for utilization
  // reporting; divide by units() for per-unit utilization).
  SimTime busy_time() const { return busy_; }

  void Reset() {
    for (SimTime& t : unit_free_at_) {
      t = 0;
    }
    busy_ = 0;
    ResetHeap();
  }

  // --- Fault plane (src/fault) ------------------------------------------
  //
  // Timed degradation windows, armed against the resource before (or
  // during) a run. A job whose service would begin inside a window is
  // degraded:
  //   * fail-slow: its service demand is multiplied by num/den (integer
  //     arithmetic, so faulted runs stay bit-identical across platforms);
  //   * fail-stop (num == 0): the device serves nothing while stopped —
  //     the job's start is deferred to the window end, and queued work
  //     resumes in the original FIFO reservation order.
  // With no windows armed, the acquire path is untouched (a single
  // empty() check), so an empty FaultPlan is byte-identical to the
  // un-faulted engine. Overlapping slow windows do not stack: the
  // earliest-starting one covering the job applies.

  void AddSlowWindow(SimTime start, SimTime end, uint32_t num, uint32_t den) {
    assert(num > 0 && den > 0 && end > start);
    fault_windows_.push_back(FaultWindow{start, end, num, den});
    SortFaultWindows();
  }

  void AddOutageWindow(SimTime start, SimTime end) {
    assert(end > start);
    fault_windows_.push_back(FaultWindow{start, end, 0, 1});
    SortFaultWindows();
  }

  // True if a fail-stop window covers `t` (proxy fail-open checks this
  // before queueing a fetch behind a dead backhaul).
  bool InOutage(SimTime t) const {
    for (const FaultWindow& w : fault_windows_) {
      if (w.start > t) {
        break;  // Sorted by start: no later window can cover t.
      }
      if (w.num == 0 && t < w.end) {
        return true;
      }
    }
    return false;
  }

  bool has_fault_windows() const { return !fault_windows_.empty(); }

 private:
  struct FaultWindow {
    SimTime start = 0;
    SimTime end = 0;
    uint32_t num = 0;  // 0 = fail-stop (outage); otherwise service *= num/den.
    uint32_t den = 1;
  };

  void SortFaultWindows() {
    // Insertion-time sort (arming is rare, acquiring is hot). Stable order
    // by (start, end) keeps overlapping-window resolution deterministic.
    std::sort(fault_windows_.begin(), fault_windows_.end(),
              [](const FaultWindow& a, const FaultWindow& b) {
                return a.start != b.start ? a.start < b.start : a.end < b.end;
              });
    fault_cursor_ = 0;
  }

  void ApplyFaultWindows(SimTime now, SimTime* start, SimTime* service) {
    // Windows fully in the past can never degrade a new job (start >= now,
    // and now only moves forward), so skip them permanently.
    while (fault_cursor_ < fault_windows_.size() &&
           fault_windows_[fault_cursor_].end <= now) {
      ++fault_cursor_;
    }
    for (size_t i = fault_cursor_; i < fault_windows_.size(); ++i) {
      const FaultWindow& w = fault_windows_[i];
      if (w.start > *start) {
        break;  // Sorted by start: later windows can't cover this start.
      }
      if (*start >= w.end) {
        continue;  // Already over by the time this job would begin.
      }
      if (w.num == 0) {
        *start = w.end;  // Fail-stop: resume when the device comes back.
        continue;        // Back-to-back windows may cover the new start.
      }
      *service = *service * w.num / w.den;
      break;  // One slow multiplier per job; overlapping windows don't stack.
    }
  }

  // Earliest-free unit; ties resolve to the lowest index so unit selection
  // is deterministic. O(1): the single-unit case has no choice to make and
  // the multi-unit case reads the heap root.
  size_t BestUnit() const { return unit_free_at_.size() == 1 ? 0 : heap_[0]; }

  // "unit a is a worse pick than unit b" under (free time, index).
  bool Worse(uint32_t a, uint32_t b) const {
    if (unit_free_at_[a] != unit_free_at_[b]) {
      return unit_free_at_[a] > unit_free_at_[b];
    }
    return a > b;
  }

  void SiftRootDown() {
    size_t n = heap_.size();
    size_t i = 0;
    uint32_t moving = heap_[0];
    while (true) {
      size_t kid = 2 * i + 1;
      if (kid >= n) {
        break;
      }
      if (kid + 1 < n && Worse(heap_[kid], heap_[kid + 1])) {
        ++kid;
      }
      if (!Worse(moving, heap_[kid])) {
        break;
      }
      heap_[i] = heap_[kid];
      i = kid;
    }
    heap_[i] = moving;
  }

  void ResetHeap() {
    // All-equal keys: ascending indices already satisfy the heap property
    // and encode the lowest-index tie-break.
    for (size_t i = 0; i < heap_.size(); ++i) {
      heap_[i] = static_cast<uint32_t>(i);
    }
  }

  VirtualClock* clock_;
  std::vector<SimTime> unit_free_at_;
  std::vector<uint32_t> heap_;  // Unit indices, min-heap by (free time, index).
  SimTime busy_ = 0;
  ResourceScheduler* scheduler_ = nullptr;
  std::vector<FaultWindow> fault_windows_;  // Sorted by (start, end).
  size_t fault_cursor_ = 0;                 // First window not fully past.
};

// Pooled two-hop acquisition: reserve `first` for `s1`, and at its
// completion event reserve `second` for `s2` with `done` running at that
// completion. The continuation between the hops rides in a free-listed node
// — the staged pipeline's disk-then-CPU stages schedule millions of these —
// so steady-state chains never allocate.
class ResourceChain {
 public:
  explicit ResourceChain(EventQueue* events) : events_(events) {}

  ResourceChain(const ResourceChain&) = delete;
  ResourceChain& operator=(const ResourceChain&) = delete;

  void AcquireThenAsync(Resource* first, SimTime s1, Resource* second, SimTime s2,
                        InlineCallback done) {
    uint32_t idx;
    if (free_head_ != kNone) {
      idx = free_head_;
      free_head_ = nodes_[idx].next_free;
    } else {
      idx = static_cast<uint32_t>(nodes_.size());
      nodes_.emplace_back();
    }
    Node& n = nodes_[idx];
    n.second = second;
    n.s2 = s2;
    n.done = std::move(done);
    first->AcquireAsync(events_, s1, [this, idx] { Resume(idx); });
  }

  size_t pool_size() const { return nodes_.size(); }

 private:
  static constexpr uint32_t kNone = UINT32_MAX;

  struct Node {
    Resource* second = nullptr;
    SimTime s2 = 0;
    InlineCallback done;
    uint32_t next_free = kNone;
  };

  void Resume(uint32_t idx) {
    Node& n = nodes_[idx];
    Resource* second = n.second;
    SimTime s2 = n.s2;
    InlineCallback done = std::move(n.done);
    n.next_free = free_head_;
    free_head_ = idx;
    second->AcquireAsync(events_, s2, std::move(done));
  }

  EventQueue* events_;
  std::vector<Node> nodes_;
  uint32_t free_head_ = kNone;
};

}  // namespace iolsim

#endif  // SRC_SIMOS_EVENT_QUEUE_H_
