// Property tests for the EventQueue calendar-queue scheduler.
//
// The contract: the calendar queue dispatches the exact same (when, seq)
// sequence as a plain std::priority_queue reference for any
// schedule/cancel/re-schedule stream. The
// golden determinism tests pin the macro behavior; these tests attack the
// scheduler directly with adversarial shapes — same-instant bursts,
// far-future jumps that force the full-ring fallback, populations that
// cross the grow/shrink resize thresholds, and cancels interleaved with
// dispatch.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <queue>
#include <random>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/simos/clock.h"
#include "src/simos/event_queue.h"

namespace iolsim {
namespace {

// The reference scheduler: a std::priority_queue of (when, seq) keys with
// lazy cancel. Same contract as EventQueue (clamp to now, dispatch in
// (when, seq) order, advance the clock, stale ids rejected) and none of its
// machinery.
class ReferenceQueue {
 public:
  explicit ReferenceQueue(VirtualClock* clock) : clock_(clock) {}
  uint64_t ScheduleAt(SimTime when, std::function<void()> fn) {
    fns_.push_back(std::move(fn));
    keys_.emplace(std::max(when, clock_->now()), fns_.size() - 1);
    ++live_;
    return fns_.size() - 1;
  }
  uint64_t ScheduleAfter(SimTime delay, std::function<void()> fn) {
    return ScheduleAt(clock_->now() + delay, std::move(fn));
  }
  bool Cancel(uint64_t seq) {
    if (seq >= fns_.size() || !fns_[seq]) {
      return false;
    }
    fns_[seq] = nullptr;
    --live_;
    return true;
  }
  size_t size() const { return live_; }
  bool RunOne() {
    while (!keys_.empty() && !fns_[keys_.top().second]) {
      keys_.pop();  // Lazy cancel: the key of a cancelled event surfaced.
    }
    if (keys_.empty()) {
      return false;
    }
    auto [when, seq] = keys_.top();
    keys_.pop();
    clock_->AdvanceTo(when);
    std::function<void()> fn = std::exchange(fns_[seq], nullptr);
    --live_;
    fn();
    return true;
  }
  uint64_t RunAll() {
    uint64_t n = 0;
    while (RunOne()) {
      ++n;
    }
    return n;
  }

 private:
  using Key = std::pair<SimTime, uint64_t>;  // (when, seq)

  VirtualClock* clock_;
  std::priority_queue<Key, std::vector<Key>, std::greater<Key>> keys_;
  std::vector<std::function<void()>> fns_;  // By seq; null once run or cancelled.
  size_t live_ = 0;
};

// One deterministic stream of scheduler operations, replayable against
// either scheduler. Ops reference events by stream-local index so the two
// replays make identical choices.
struct OpStream {
  struct Op {
    enum Kind { kSchedule, kCancel, kRunOne, kRunSome } kind;
    SimTime delay = 0;   // kSchedule: offset from now.
    size_t target = 0;   // kCancel: index into scheduled ids.
    int count = 0;       // kRunSome.
  };
  std::vector<Op> ops;
};

OpStream MakeRandomStream(uint32_t seed, size_t n_ops, SimTime max_delay) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> kind(0, 99);
  std::uniform_int_distribution<SimTime> delay(0, max_delay);
  std::uniform_int_distribution<size_t> pick(0, 1u << 20);
  std::uniform_int_distribution<int> burst(1, 16);
  OpStream s;
  s.ops.reserve(n_ops);
  for (size_t i = 0; i < n_ops; ++i) {
    int k = kind(rng);
    OpStream::Op op;
    if (k < 55) {
      op.kind = OpStream::Op::kSchedule;
      op.delay = delay(rng);
      if (k < 10) {
        op.delay = 0;  // Same-instant burst pressure.
      }
    } else if (k < 70) {
      op.kind = OpStream::Op::kCancel;
      op.target = pick(rng);
    } else if (k < 90) {
      op.kind = OpStream::Op::kRunOne;
    } else {
      op.kind = OpStream::Op::kRunSome;
      op.count = burst(rng);
    }
    s.ops.push_back(op);
  }
  return s;
}

// Replays `stream` against a fresh Queue (EventQueue or ReferenceQueue) and
// returns the dispatched (when, payload) sequence. Payload is the
// schedule-op index, so matching sequences mean the same events ran in the
// same order at the same times.
template <typename Queue>
std::vector<std::pair<SimTime, uint64_t>> Replay(const OpStream& stream) {
  VirtualClock clock;
  Queue q(&clock);
  std::vector<std::pair<SimTime, uint64_t>> dispatched;
  std::vector<uint64_t> ids;  // Parallel to schedule-op count.
  uint64_t schedule_count = 0;
  auto record = [&dispatched](SimTime when, uint64_t tag) {
    dispatched.emplace_back(when, tag);
  };
  for (const auto& op : stream.ops) {
    switch (op.kind) {
      case OpStream::Op::kSchedule: {
        uint64_t tag = schedule_count++;
        SimTime when = clock.now() + op.delay;
        ids.push_back(q.ScheduleAt(when, [&record, &clock, tag] {
          record(clock.now(), tag);
        }));
        break;
      }
      case OpStream::Op::kCancel:
        if (!ids.empty()) {
          // Both replays see the same ids vector shape, so the same event
          // is targeted; Cancel on an already-fired id is a no-op.
          q.Cancel(ids[op.target % ids.size()]);
        }
        break;
      case OpStream::Op::kRunOne:
        q.RunOne();
        break;
      case OpStream::Op::kRunSome:
        for (int i = 0; i < op.count && q.RunOne(); ++i) {
        }
        break;
    }
  }
  q.RunAll();
  return dispatched;
}

TEST(SchedulerEquivalence, RandomStreamsMatchReferenceExactly) {
  for (uint32_t seed = 1; seed <= 24; ++seed) {
    OpStream s = MakeRandomStream(seed, 4000, 1'000'000);
    auto cal = Replay<EventQueue>(s);
    auto ref = Replay<ReferenceQueue>(s);
    ASSERT_EQ(cal, ref) << "seed " << seed;
    ASSERT_FALSE(cal.empty()) << "seed " << seed;
    ASSERT_TRUE(std::is_sorted(cal.begin(), cal.end(),
                               [](const auto& a, const auto& b) { return a.first < b.first; }))
        << "seed " << seed;
  }
}

TEST(SchedulerEquivalence, SparseFarFutureStreamsMatch) {
  // Huge delays relative to the day width force cursor laps and the
  // direct-search fallback.
  for (uint32_t seed = 100; seed <= 108; ++seed) {
    OpStream s = MakeRandomStream(seed, 1500, SimTime{50'000'000'000});
    ASSERT_EQ(Replay<EventQueue>(s), Replay<ReferenceQueue>(s)) << "seed " << seed;
  }
}

TEST(SchedulerEquivalence, DenseSameInstantStreamsMatch) {
  // Tiny delay range: most events collide on the same instants, stressing
  // in-bucket FIFO order and the seq tie-break.
  for (uint32_t seed = 200; seed <= 208; ++seed) {
    OpStream s = MakeRandomStream(seed, 4000, 16);
    ASSERT_EQ(Replay<EventQueue>(s), Replay<ReferenceQueue>(s)) << "seed " << seed;
  }
}

TEST(SchedulerEquivalence, GrowShrinkCycleMatches) {
  // Pump the population up past several resize doublings, drain to nearly
  // empty, and repeat — every lap crosses grow and shrink thresholds.
  VirtualClock cc, rc;
  EventQueue cal(&cc);
  ReferenceQueue ref(&rc);
  std::vector<SimTime> cal_out, ref_out;
  std::mt19937 rng(7);
  std::uniform_int_distribution<SimTime> delay(0, 200'000);
  for (int lap = 0; lap < 4; ++lap) {
    for (int i = 0; i < 3000; ++i) {
      SimTime d = delay(rng);
      cal.ScheduleAfter(d, [&cal_out, &cc] { cal_out.push_back(cc.now()); });
      ref.ScheduleAfter(d, [&ref_out, &rc] { ref_out.push_back(rc.now()); });
    }
    ASSERT_EQ(cal.size(), ref.size());
    while (cal.size() > 8) {
      ASSERT_TRUE(cal.RunOne());
      ASSERT_TRUE(ref.RunOne());
    }
  }
  ASSERT_EQ(cal.RunAll(), ref.RunAll());
  EXPECT_EQ(cal_out, ref_out);
}

TEST(SchedulerCancel, CancelledEventsNeverRunAndIdsGoStale) {
  VirtualClock clock;
  EventQueue q(&clock);
  int ran = 0;
  auto id_a = q.ScheduleAfter(10, [&ran] { ++ran; });
  auto id_b = q.ScheduleAfter(20, [&ran] { ++ran; });
  q.ScheduleAfter(30, [&ran] { ++ran; });
  EXPECT_EQ(q.size(), 3u);
  EXPECT_TRUE(q.Cancel(id_b));
  EXPECT_FALSE(q.Cancel(id_b));  // Double-cancel rejected.
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.RunAll(), 2u);
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(clock.now(), 30);      // The cancelled event moved no clock.
  EXPECT_FALSE(q.Cancel(id_a));    // Dispatched ⇒ stale.
  EXPECT_TRUE(q.empty());
}

TEST(SchedulerCancel, CancelHeadDoesNotAdvanceClockOrCounter) {
  VirtualClock clock;
  uint64_t dispatched = 0;
  EventQueue q(&clock, &dispatched);
  bool late_ran = false;
  auto head = q.ScheduleAfter(5, [] { ADD_FAILURE() << "cancelled head ran"; });
  q.ScheduleAfter(50, [&late_ran] { late_ran = true; });
  ASSERT_TRUE(q.Cancel(head));
  SimTime when = 0;
  ASSERT_TRUE(q.PeekWhen(&when));  // Purges the cancelled head.
  EXPECT_EQ(when, 50);
  EXPECT_EQ(clock.now(), 0);
  EXPECT_EQ(q.RunAll(), 1u);
  EXPECT_TRUE(late_ran);
  EXPECT_EQ(dispatched, 1u);
}

TEST(SchedulerRunUntil, DeadlineSemantics) {
  VirtualClock clock;
  EventQueue q(&clock);
  std::vector<SimTime> out;
  for (SimTime t : {5, 10, 10, 15, 20}) {
    q.ScheduleAt(t, [&out, &clock] { out.push_back(clock.now()); });
  }
  EXPECT_EQ(q.RunUntil(10), 3u);  // Events exactly at the deadline run.
  EXPECT_EQ(clock.now(), 10);
  EXPECT_EQ(q.RunUntil(100), 2u);
  EXPECT_EQ(out, (std::vector<SimTime>{5, 10, 10, 15, 20}));
}

}  // namespace
}  // namespace iolsim
