#include "core/sweep_state.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "gdist/builtin.h"
#include "gdist/region.h"
#include "workload/generator.h"

namespace modb {
namespace {

// Records every notification for assertions.
class RecordingListener : public SweepListener {
 public:
  struct Event {
    enum Kind { kSwap, kInsert, kErase, kCurve } kind;
    double time;
    ObjectId a;
    ObjectId b;
  };
  std::vector<Event> events;

  void OnSwap(double time, ObjectId left, ObjectId right) override {
    events.push_back({Event::kSwap, time, left, right});
  }
  void OnInsert(double time, ObjectId oid) override {
    events.push_back({Event::kInsert, time, oid, kInvalidObjectId});
  }
  void OnErase(double time, ObjectId oid) override {
    events.push_back({Event::kErase, time, oid, kInvalidObjectId});
  }
  void OnCurveChanged(double time, ObjectId oid) override {
    events.push_back({Event::kCurve, time, oid, kInvalidObjectId});
  }
};

GDistancePtr OriginDistance1D() {
  return std::make_shared<SquaredEuclideanGDistance>(
      Trajectory::Stationary(0.0, Vec{0.0}));
}

class SweepStateTest : public ::testing::TestWithParam<EventQueueKind> {};

TEST_P(SweepStateTest, TwoObjectsSwapAtCrossing) {
  SweepState state(OriginDistance1D(), 0.0, kInf, GetParam());
  RecordingListener listener;
  state.AddListener(&listener);
  // o1 at 10 moving in; o2 at 2 stationary-ish; f1 = (10-t)², f2 = 4.
  state.InsertObject(1, Trajectory::Linear(0.0, Vec{10.0}, Vec{-1.0}));
  state.InsertObject(2, Trajectory::Stationary(0.0, Vec{2.0}));
  EXPECT_EQ(state.order().ToVector(), (std::vector<ObjectId>{2, 1}));
  EXPECT_EQ(state.queue_length(), 1u);

  state.AdvanceTo(20.0);
  // f1 dips below 4 at t = 8 and rises above again at t = 12.
  std::vector<RecordingListener::Event> swaps;
  for (const auto& e : listener.events) {
    if (e.kind == RecordingListener::Event::kSwap) swaps.push_back(e);
  }
  ASSERT_EQ(swaps.size(), 2u);
  EXPECT_NEAR(swaps[0].time, 8.0, 1e-9);
  EXPECT_EQ(swaps[0].a, 2);  // o2 was before o1.
  EXPECT_EQ(swaps[0].b, 1);
  EXPECT_NEAR(swaps[1].time, 12.0, 1e-9);
  EXPECT_EQ(state.order().ToVector(), (std::vector<ObjectId>{2, 1}));
  state.CheckInvariants();
}

TEST_P(SweepStateTest, StatsCountSupportChanges) {
  SweepState state(OriginDistance1D(), 0.0, kInf, GetParam());
  state.InsertObject(1, Trajectory::Linear(0.0, Vec{10.0}, Vec{-1.0}));
  state.InsertObject(2, Trajectory::Stationary(0.0, Vec{2.0}));
  state.AdvanceTo(20.0);
  EXPECT_EQ(state.stats().swaps, 2u);
  EXPECT_EQ(state.stats().inserts, 2u);
  EXPECT_EQ(state.stats().SupportChanges(), 4u);
}

TEST_P(SweepStateTest, InsertionRepairsAdjacentPairs) {
  SweepState state(OriginDistance1D(), 0.0, kInf, GetParam());
  state.InsertObject(1, Trajectory::Stationary(0.0, Vec{1.0}));   // f = 1.
  state.InsertObject(3, Trajectory::Stationary(0.0, Vec{3.0}));   // f = 9.
  state.InsertObject(2, Trajectory::Stationary(0.0, Vec{2.0}));   // f = 4.
  EXPECT_EQ(state.order().ToVector(), (std::vector<ObjectId>{1, 2, 3}));
  // All stationary: no events.
  EXPECT_EQ(state.queue_length(), 0u);
  state.CheckInvariants();
}

TEST_P(SweepStateTest, EraseClosesTheGap) {
  SweepState state(OriginDistance1D(), 0.0, kInf, GetParam());
  state.InsertObject(1, Trajectory::Stationary(0.0, Vec{1.0}));
  state.InsertObject(2, Trajectory::Linear(0.0, Vec{2.0}, Vec{1.0}));
  state.InsertObject(3, Trajectory::Stationary(0.0, Vec{3.0}));
  state.EraseObject(2);
  EXPECT_EQ(state.order().ToVector(), (std::vector<ObjectId>{1, 3}));
  EXPECT_FALSE(state.ContainsObject(2));
  state.CheckInvariants();
}

TEST_P(SweepStateTest, ReplaceCurveCancelsAndReschedules) {
  SweepState state(OriginDistance1D(), 0.0, kInf, GetParam());
  // o1 approaches the origin: crossing with o2's constant 4 at t = 8.
  Trajectory o1 = Trajectory::Linear(0.0, Vec{10.0}, Vec{-1.0});
  state.InsertObject(1, o1);
  state.InsertObject(2, Trajectory::Stationary(0.0, Vec{2.0}));
  ASSERT_EQ(state.queue_length(), 1u);
  // At t=4 o1 stops: f1 = 36 forever, the crossing disappears.
  state.AdvanceTo(4.0);
  ASSERT_TRUE(o1.AddTurn(4.0, Vec{0.0}).ok());
  state.ReplaceCurve(1, o1);
  EXPECT_EQ(state.queue_length(), 0u);
  state.AdvanceTo(30.0);
  EXPECT_EQ(state.stats().swaps, 0u);
  state.CheckInvariants();
}

// A query chdir (Theorem 10) discards the whole queue and rebuilds it, so
// the events it drops count as cancels and the rebuilt ones as schedules:
// schedules - cancels moves by exactly the change in queue length.
TEST_P(SweepStateTest, QueryChdirCountsDiscardedAndRebuiltEvents) {
  SweepState state(OriginDistance1D(), 0.0, kInf, GetParam());
  std::map<ObjectId, Trajectory> objects;
  for (ObjectId oid = 1; oid <= 4; ++oid) {
    objects.emplace(oid, Trajectory::Stationary(
                             0.0, Vec{static_cast<double>(oid)}));
  }
  // f5 = (10 - t)^2 meets f4 = 16 at t = 6.
  objects.emplace(5, Trajectory::Linear(0.0, Vec{10.0}, Vec{-1.0}));
  for (const auto& [oid, trajectory] : objects) {
    state.InsertObject(oid, trajectory);
  }
  state.AdvanceTo(5.0);
  ASSERT_EQ(state.queue_length(), 1u);
  const SweepStats before = state.stats();
  const int64_t length_before = static_cast<int64_t>(state.queue_length());

  // From t = 5 the query walks right from where it stood: every adjacent
  // pair now crosses.
  Trajectory query = Trajectory::Stationary(0.0, Vec{0.0});
  ASSERT_TRUE(query.AddTurn(5.0, Vec{1.0}).ok());
  state.ReplaceGDistance(std::make_shared<SquaredEuclideanGDistance>(query),
                         objects);
  EXPECT_EQ(state.queue_length(), 4u);
  EXPECT_EQ(state.stats().cancels - before.cancels, 1u);
  EXPECT_EQ(state.stats().schedules - before.schedules, 4u);
  const int64_t net =
      static_cast<int64_t>(state.stats().schedules - before.schedules) -
      static_cast<int64_t>(state.stats().cancels - before.cancels);
  EXPECT_EQ(net, static_cast<int64_t>(state.queue_length()) - length_before);
  state.CheckInvariants();
}

TEST_P(SweepStateTest, ReplaceCurveWithValueJumpBubblesIntoPlace) {
  // The paper's relaxed-continuity setting: a curve replacement that jumps
  // the value repositions the object via a cascade of same-instant swaps.
  SweepState state(OriginDistance1D(), 0.0, kInf, GetParam());
  state.InsertObject(1, Trajectory::Stationary(0.0, Vec{1.0}));  // f = 1.
  state.InsertObject(2, Trajectory::Stationary(0.0, Vec{2.0}));  // f = 4.
  state.InsertObject(3, Trajectory::Stationary(0.0, Vec{3.0}));  // f = 9.
  EXPECT_EQ(state.order().ToVector(), (std::vector<ObjectId>{1, 2, 3}));
  state.AdvanceTo(5.0);
  // o1 "teleports" beyond everyone: f jumps 1 -> 100.
  state.ReplaceCurve(1, Trajectory::Stationary(0.0, Vec{10.0}));
  state.AdvanceTo(5.0);  // Drain the repair events at the same instant.
  EXPECT_EQ(state.order().ToVector(), (std::vector<ObjectId>{2, 3, 1}));
  EXPECT_EQ(state.stats().swaps, 2u);  // Bubbled two positions.
  state.CheckInvariants();
}

TEST_P(SweepStateTest, SentinelParticipatesInOrder) {
  SweepState state(OriginDistance1D(), 0.0, kInf, GetParam());
  state.InsertObject(1, Trajectory::Linear(0.0, Vec{10.0}, Vec{-1.0}));
  state.InsertSentinel(-7, 25.0);  // Threshold: distance² = 25.
  EXPECT_TRUE(state.IsSentinel(-7));
  // f1(0) = 100 > 25: sentinel first.
  EXPECT_EQ(state.order().ToVector(), (std::vector<ObjectId>{-7, 1}));
  // o1 dips below 25 at t = 5.
  state.AdvanceTo(6.0);
  EXPECT_EQ(state.order().ToVector(), (std::vector<ObjectId>{1, -7}));
  EXPECT_EQ(state.stats().swaps, 1u);
  state.CheckInvariants();
}

TEST_P(SweepStateTest, QueueLengthBoundedByN) {
  // Lemma 9: adjacent pairs only -> queue length <= N - 1.
  const RandomModOptions options{.num_objects = 60, .dim = 2, .seed = 31};
  const MovingObjectDatabase mod = RandomMod(options);
  auto gdist = std::make_shared<SquaredEuclideanGDistance>(
      Trajectory::Stationary(0.0, Vec{0.0, 0.0}));
  SweepState state(gdist, 0.0, kInf, GetParam());
  for (const auto& [oid, trajectory] : mod.objects()) {
    state.InsertObject(oid, trajectory);
    EXPECT_LE(state.queue_length(), state.size());
  }
  state.AdvanceTo(300.0);
  EXPECT_LE(state.stats().max_queue_length, options.num_objects - 1);
  EXPECT_GT(state.stats().swaps, 0u);
  state.CheckInvariants();
}

TEST_P(SweepStateTest, OrderMatchesResortAtManyTimes) {
  // Property: after any amount of sweeping, the maintained order equals a
  // fresh sort by curve value.
  const RandomModOptions options{.num_objects = 40, .dim = 2, .seed = 57};
  const MovingObjectDatabase mod = RandomMod(options);
  auto gdist = std::make_shared<SquaredEuclideanGDistance>(
      Trajectory::Linear(0.0, Vec{100.0, -50.0}, Vec{-3.0, 2.0}));
  SweepState state(gdist, 0.0, kInf, GetParam());
  for (const auto& [oid, trajectory] : mod.objects()) {
    state.InsertObject(oid, trajectory);
  }
  for (double t = 25.0; t <= 500.0; t += 25.0) {
    state.AdvanceTo(t);
    state.CheckInvariants();  // Includes order-vs-values verification.
  }
}

TEST_P(SweepStateTest, HorizonSuppressesLaterEvents) {
  SweepState state(OriginDistance1D(), 0.0, /*horizon=*/5.0, GetParam());
  // Crossing would be at t = 8, beyond the horizon.
  state.InsertObject(1, Trajectory::Linear(0.0, Vec{10.0}, Vec{-1.0}));
  state.InsertObject(2, Trajectory::Stationary(0.0, Vec{2.0}));
  EXPECT_EQ(state.queue_length(), 0u);
  state.AdvanceTo(5.0);
  EXPECT_EQ(state.stats().swaps, 0u);
}

TEST_P(SweepStateTest, AdvanceBackwardsDies) {
  SweepState state(OriginDistance1D(), 10.0, kInf, GetParam());
  EXPECT_DEATH(state.AdvanceTo(9.0), "");
}

// What one run of the slot-reuse scenario leaves to compare.
struct SlotReuseRun {
  std::vector<std::vector<SweepEvent>> queues;  // QueueSnapshot per stage.
  std::vector<ObjectId> order;
  std::vector<RecordingListener::Event> events;
  SweepStats stats;
};

// Erases an object while both of its pairs are queued, inserts a new
// object that takes the freed slot, and sweeps through the swaps that
// follow (a time tie between two events included). The queue keys events
// by the left object's slot, so a stale key would misfire here.
SlotReuseRun RunSlotReuse(EventQueueKind kind) {
  SweepState state(OriginDistance1D(), 0.0, kInf, kind);
  RecordingListener listener;
  state.AddListener(&listener);
  SlotReuseRun run;
  auto stage = [&] {
    state.CheckInvariants();
    run.queues.push_back(state.QueueSnapshot());
  };
  // x = p + v t on the positive axis, f = x²: the order is by x.
  state.InsertObject(1, Trajectory::Linear(0.0, Vec{1.0}, Vec{0.5}));
  state.InsertObject(2, Trajectory::Stationary(0.0, Vec{2.0}));
  state.InsertObject(3, Trajectory::Linear(0.0, Vec{3.0}, Vec{-0.25}));
  state.InsertObject(4, Trajectory::Linear(0.0, Vec{4.0}, Vec{-1.0}));
  state.InsertObject(5, Trajectory::Stationary(0.0, Vec{5.0}));
  stage();
  // Both of o3's pairs are queued: (2, 3) at t = 4 and (3, 4) at t = 4/3.
  const std::vector<SweepEvent>& founded = run.queues.back();
  auto queued = [&](ObjectId left, ObjectId right) {
    return std::any_of(founded.begin(), founded.end(),
                       [&](const SweepEvent& e) {
                         return e.left == left && e.right == right;
                       });
  };
  EXPECT_TRUE(queued(2, 3));
  EXPECT_TRUE(queued(3, 4));
  const OrderedSequence::Slot freed = state.order().SlotOf(3);
  state.AdvanceTo(0.5);
  state.EraseObject(3);
  // (2, 4) now meets at t = 2, tied with (1, 2); the pair order decides.
  stage();
  // o6 enters level with o4 (x = 3.5), so it goes after o4 and the two
  // swap at once.
  state.InsertObject(6, Trajectory::Linear(0.5, Vec{3.5}, Vec{-2.0}));
  EXPECT_EQ(state.order().SlotOf(6), freed);
  stage();
  for (const double t : {0.75, 1.0, 2.0, 2.5, 4.0, 10.0}) {
    state.AdvanceTo(t);
    stage();
  }
  // o1, o2 and o4 all reach x = 2 at t = 2: several swaps share one
  // timestamp, so the pair order decides which fires first.
  std::map<double, int> swaps_at;
  for (const RecordingListener::Event& e : listener.events) {
    if (e.kind == RecordingListener::Event::kSwap) ++swaps_at[e.time];
  }
  EXPECT_TRUE(std::any_of(swaps_at.begin(), swaps_at.end(),
                          [](const auto& entry) { return entry.second > 1; }));
  run.order = state.order().ToVector();
  run.events = listener.events;
  run.stats = state.stats();
  return run;
}

// A double's bits: the two queue kinds must agree exactly, not nearly.
uint64_t Bits(double value) { return std::bit_cast<uint64_t>(value); }

TEST(SweepStateSlotReuseTest, ErasedSlotReusedIdenticallyOnBothQueues) {
  const SlotReuseRun leftist = RunSlotReuse(EventQueueKind::kLeftist);
  const SlotReuseRun indexed = RunSlotReuse(EventQueueKind::kIndexed);
  ASSERT_EQ(leftist.queues.size(), indexed.queues.size());
  for (size_t i = 0; i < leftist.queues.size(); ++i) {
    const std::vector<SweepEvent>& a = leftist.queues[i];
    const std::vector<SweepEvent>& b = indexed.queues[i];
    ASSERT_EQ(a.size(), b.size()) << "stage " << i;
    for (size_t j = 0; j < a.size(); ++j) {
      EXPECT_EQ(Bits(a[j].time), Bits(b[j].time)) << "stage " << i;
      EXPECT_EQ(a[j].left, b[j].left) << "stage " << i;
      EXPECT_EQ(a[j].right, b[j].right) << "stage " << i;
    }
  }
  EXPECT_EQ(leftist.order, indexed.order);
  ASSERT_EQ(leftist.events.size(), indexed.events.size());
  for (size_t i = 0; i < leftist.events.size(); ++i) {
    const RecordingListener::Event& a = leftist.events[i];
    const RecordingListener::Event& b = indexed.events[i];
    EXPECT_EQ(a.kind, b.kind) << "event " << i;
    EXPECT_EQ(Bits(a.time), Bits(b.time)) << "event " << i;
    EXPECT_EQ(a.a, b.a) << "event " << i;
    EXPECT_EQ(a.b, b.b) << "event " << i;
  }
  EXPECT_EQ(leftist.stats.swaps, indexed.stats.swaps);
  EXPECT_EQ(leftist.stats.schedules, indexed.stats.schedules);
  EXPECT_EQ(leftist.stats.cancels, indexed.stats.cancels);
}

// Every adjacent pair's queued event has the bits of the pooled walk
// (PairFirstCrossing), and nothing else is queued: the repairs that read
// in-effect pieces schedule exactly what walking the curves would.
void ExpectQueueIsTheWalk(const SweepState& state) {
  const std::vector<SweepEvent> queue = state.QueueSnapshot();
  const std::vector<ObjectId> order = state.order().ToVector();
  size_t expected = 0;
  for (size_t i = 0; i + 1 < order.size(); ++i) {
    const std::optional<double> walk =
        state.PairFirstCrossing(order[i], order[i + 1]);
    const auto it = std::find_if(
        queue.begin(), queue.end(), [&](const SweepEvent& e) {
          return e.left == order[i] && e.right == order[i + 1];
        });
    ASSERT_EQ(walk.has_value(), it != queue.end())
        << "pair (" << order[i] << ", " << order[i + 1] << ")";
    if (!walk.has_value()) continue;
    ++expected;
    EXPECT_EQ(Bits(it->time), Bits(*walk))
        << "pair (" << order[i] << ", " << order[i + 1] << ")";
  }
  EXPECT_EQ(queue.size(), expected);
}

// A random piecewise quadratic in the pool: 1-4 segments starting at 0,
// 1, ..., open-ended or ending at `domain_end`.
PolySegPool::CurveId AddRandomCurve(PolySegPool* pool, Rng* rng,
                                    double domain_end) {
  const uint32_t n = static_cast<uint32_t>(rng->UniformInt(1, 4));
  std::vector<double> starts, c0, c1, c2;
  for (uint32_t i = 0; i < n; ++i) {
    starts.push_back(static_cast<double>(i));
    c0.push_back(rng->Uniform(-10.0, 10.0));
    c1.push_back(rng->Uniform(-3.0, 3.0));
    // Some linear and constant pieces: their padding must trim the same.
    c2.push_back(rng->Uniform(0.0, 1.0) < 0.2 ? 0.0 : rng->Uniform(-1.0, 1.0));
  }
  return pool->AddRaw(starts.data(), c0.data(), c1.data(), c2.data(), n,
                      std::max(domain_end, starts.back()));
}

// The in-effect kernel against the pooled walk on random pooled pairs at
// random sweep times: wherever both curves have an in-effect piece, the
// one cell gives FirstCrossingPooled's bits (crossing or none), and the
// piece's value is PolySegPool::Eval's at every t in [now, horizon].
TEST(InEffectPieceTest, OneCellIsThePooledWalkBitwise) {
  Rng rng(31337);
  PolySegPool pool;
  const RootOptions options;
  size_t compared = 0, crossed = 0;
  for (int iter = 0; iter < 20000; ++iter) {
    const double horizon = rng.Uniform(0.0, 1.0) < 0.5
                               ? kInf
                               : rng.Uniform(3.0, 20.0);
    auto domain_end = [&] {
      return rng.Uniform(0.0, 1.0) < 0.7 ? kInf : rng.Uniform(1.0, 25.0);
    };
    const PolySegPool::CurveId a = AddRandomCurve(&pool, &rng, domain_end());
    const PolySegPool::CurveId b = AddRandomCurve(&pool, &rng, domain_end());
    const double now = rng.Uniform(0.0, std::min(horizon, 6.0));
    const std::optional<double> walk =
        FirstCrossingPooled(pool, a, b, now, horizon, options);
    InEffectPiece pa, pb;
    const bool in_a = InEffectOver(pool, a, now, horizon, &pa);
    const bool in_b = InEffectOver(pool, b, now, horizon, &pb);
    // The rule: the last segment starts at or before now and the domain
    // reaches the horizon.
    EXPECT_EQ(in_a, pool.View(a).starts[pool.View(a).first +
                                        pool.NumSegments(a) - 1] <= now &&
                        pool.DomainEnd(a) >= horizon);
    if (in_a && in_b) {
      ++compared;
      const double cell = FirstCrossingInEffect(pa, pb, now, horizon, options);
      EXPECT_EQ(Bits(cell), Bits(walk.value_or(kInf))) << "iter " << iter;
      if (walk.has_value()) ++crossed;
      for (int k = 0; k < 4; ++k) {
        const double t =
            k == 0 ? now
                   : now + rng.Uniform(0.0, 1.0) *
                               (std::min(horizon, now + 50.0) - now);
        EXPECT_EQ(Bits(EvalTrimmedQuadratic(pa.c0, pa.c1, pa.c2, t)),
                  Bits(pool.Eval(a, t)))
            << "iter " << iter << " t " << t;
      }
    }
    pool.Release(a);
    pool.Release(b);
  }
  // Both outcomes are exercised many times.
  EXPECT_GT(compared, 2000u);
  EXPECT_GT(crossed, 500u);
  EXPECT_GT(compared - crossed, 500u);
}

// A fleet under random chdirs, inserts, erases and advances: every queued
// event is the walk's, and every value read from an in-effect piece is
// the curve's own.
TEST(InEffectPieceTest, SweepRepairsScheduleThePooledWalk) {
  Rng rng(4242);
  const Trajectory query =
      Trajectory::Linear(0.0, Vec{0.0, 0.0}, Vec{1.0, 0.5});
  auto gdist = std::make_shared<SquaredEuclideanGDistance>(query);
  SweepState state(gdist, 0.0);
  std::map<ObjectId, Trajectory> alive;
  auto random_trajectory = [&](double t0) {
    return Trajectory::Linear(
        t0, Vec{rng.Uniform(-50.0, 50.0), rng.Uniform(-50.0, 50.0)},
        Vec{rng.Uniform(-5.0, 5.0), rng.Uniform(-5.0, 5.0)});
  };
  ObjectId next_oid = 0;
  for (; next_oid < 60; ++next_oid) {
    alive.emplace(next_oid, random_trajectory(0.0));
  }
  std::vector<std::pair<ObjectId, const Trajectory*>> founding;
  for (const auto& [oid, trajectory] : alive) {
    founding.emplace_back(oid, &trajectory);
  }
  state.InsertObjects(founding);
  uint64_t swaps = 0;
  for (int step = 0; step < 300; ++step) {
    state.AdvanceTo(state.now() + rng.Uniform(0.0, 0.5));
    const double now = state.now();
    auto pick = [&] {
      auto it = alive.begin();
      std::advance(it, rng.UniformInt(
                           0, static_cast<int64_t>(alive.size()) - 1));
      return it;
    };
    const double dice = rng.Uniform(0.0, 1.0);
    if (dice < 0.6) {
      auto it = pick();
      ASSERT_TRUE(it->second
                      .AddTurn(now, Vec{rng.Uniform(-5.0, 5.0),
                                        rng.Uniform(-5.0, 5.0)})
                      .ok());
      state.ReplaceCurve(it->first, it->second);
    } else if (dice < 0.8 || alive.size() < 10) {
      const ObjectId oid = next_oid++;
      const auto [it, inserted] = alive.emplace(oid, random_trajectory(now));
      state.InsertObject(oid, it->second);
    } else {
      auto it = pick();
      state.EraseObject(it->first);
      alive.erase(it);
    }
    state.CheckInvariants();
    ExpectQueueIsTheWalk(state);
    for (const auto& [oid, trajectory] : alive) {
      ASSERT_TRUE(state.HasInEffectPiece(oid)) << "oid " << oid;
      const GCurve curve = gdist->Curve(trajectory);
      for (const double t : {now, now + 0.25, now + 3.0}) {
        EXPECT_EQ(Bits(state.CurveValue(oid, t)), Bits(curve.Eval(t)))
            << "oid " << oid << " t " << t;
      }
    }
    if (HasFailure()) return;
    swaps = state.stats().swaps;
  }
  EXPECT_GT(swaps, 100u);
}

// The curves that must walk: a region distance with a breakpoint after
// now, a terminated object, a curve ending before a finite horizon and a
// non-poolable curve. Their repairs still schedule the walk's bits.
TEST(InEffectPieceTest, CurvesWithoutOnePieceWalk) {
  {
    // Passing the square [-1, 1]²: the nearest feature changes at x = ±1,
    // t = 9 and 11. The parked objects' curves are one constant piece.
    SweepState state(std::make_shared<RegionGDistance>(ConvexPolygon(
                         {Vec{-1.0, -1.0}, Vec{1.0, -1.0}, Vec{1.0, 1.0},
                          Vec{-1.0, 1.0}})),
                     0.0);
    state.InsertObject(1, Trajectory::Stationary(0.0, Vec{0.0, 3.0}));
    state.InsertObject(2, Trajectory::Stationary(0.0, Vec{0.0, 30.0}));
    EXPECT_TRUE(state.HasInEffectPiece(1));
    EXPECT_TRUE(state.HasInEffectPiece(2));
    state.InsertObject(3, Trajectory::Linear(0.0, Vec{-10.0, 5.0},
                                             Vec{1.0, 0.0}));
    EXPECT_FALSE(state.HasInEffectPiece(3));
    ExpectQueueIsTheWalk(state);
    state.AdvanceTo(20.0);
    state.CheckInvariants();
    ExpectQueueIsTheWalk(state);
  }
  {
    // Terminated at t = 5 under an open horizon.
    SweepState state(OriginDistance1D(), 0.0);
    Trajectory terminated = Trajectory::Linear(0.0, Vec{1.0}, Vec{1.0});
    ASSERT_TRUE(terminated.Terminate(5.0).ok());
    state.InsertObject(1, terminated);
    state.InsertObject(2, Trajectory::Stationary(0.0, Vec{2.0}));
    EXPECT_FALSE(state.HasInEffectPiece(1));
    EXPECT_TRUE(state.HasInEffectPiece(2));
    ExpectQueueIsTheWalk(state);
  }
  {
    // A finite horizon: a domain reaching it has the piece, one ending
    // before it walks.
    SweepState state(OriginDistance1D(), 0.0, 10.0);
    Trajectory short_lived = Trajectory::Linear(0.0, Vec{1.0}, Vec{1.0});
    ASSERT_TRUE(short_lived.Terminate(5.0).ok());
    Trajectory long_lived = Trajectory::Linear(0.0, Vec{3.0}, Vec{-0.5});
    ASSERT_TRUE(long_lived.Terminate(20.0).ok());
    state.InsertObject(1, short_lived);
    state.InsertObject(2, long_lived);
    state.InsertObject(3, Trajectory::Stationary(0.0, Vec{2.5}));
    EXPECT_FALSE(state.HasInEffectPiece(1));
    EXPECT_TRUE(state.HasInEffectPiece(2));
    EXPECT_TRUE(state.HasInEffectPiece(3));
    ExpectQueueIsTheWalk(state);
    state.AdvanceTo(4.0);
    state.CheckInvariants();
    ExpectQueueIsTheWalk(state);
  }
  {
    // Degree-4 curves have no pooled form at all.
    SweepState state(std::make_shared<ComposedGDistance>(
                         Polynomial{0.0, 0.0, 1.0}, OriginDistance1D()),
                     0.0);
    state.InsertObject(1, Trajectory::Linear(0.0, Vec{1.0}, Vec{1.0}));
    state.InsertObject(2, Trajectory::Linear(0.0, Vec{2.0}, Vec{-0.5}));
    EXPECT_FALSE(state.HasInEffectPiece(1));
    EXPECT_FALSE(state.HasInEffectPiece(2));
    ExpectQueueIsTheWalk(state);
    state.AdvanceTo(5.0);
    state.CheckInvariants();
  }
}

INSTANTIATE_TEST_SUITE_P(AllQueueKinds, SweepStateTest,
                         ::testing::Values(EventQueueKind::kLeftist,
                                           EventQueueKind::kIndexed),
                         [](const auto& info) {
                           return info.param == EventQueueKind::kLeftist
                                      ? "Leftist"
                                      : "Indexed";
                         });

}  // namespace
}  // namespace modb
