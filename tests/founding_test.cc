// Founding a sweep in one sorted pass (SweepState::InsertObjects, Theorem
// 5.1) against what it replaced: one InsertObject per object in ascending
// oid, and for within queries the sentinel inserted after the objects.
// Both engines must build the same order, the same queue (bitwise) and
// count the same inserts, and keep the same answers through a churned
// update stream. Also the inclusive within threshold at the founding
// instant.

#include <algorithm>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/naive.h"
#include "core/future_engine.h"
#include "core/past_engine.h"
#include "gdist/builtin.h"
#include "queries/knn.h"
#include "queries/query_server.h"
#include "queries/within.h"
#include "workload/generator.h"

namespace modb {
namespace {

using Objects = std::vector<std::pair<ObjectId, const Trajectory*>>;

GDistancePtr OriginDistance() {
  return std::make_shared<SquaredEuclideanGDistance>(
      Trajectory::Stationary(0.0, Vec{0.0, 0.0}));
}

// (f ∘ euclid)² has degree 4: no pooled form, so every crossing takes the
// per-pair fallback.
GDistancePtr QuarticDistance() {
  return std::make_shared<ComposedGDistance>(Polynomial{0.0, 0.0, 1.0},
                                             OriginDistance());
}

// The objects FutureQueryEngine::Start founds at `t`.
Objects AliveAfter(const MovingObjectDatabase& mod, double t) {
  Objects alive;
  for (const auto& [oid, trajectory] : mod.objects()) {
    if (trajectory.DefinedAt(t) && trajectory.end_time() > t) {
      alive.emplace_back(oid, &trajectory);
    }
  }
  return alive;
}

// The objects PastQueryEngine::Run founds at `t`.
Objects AliveAt(const MovingObjectDatabase& mod, double t) {
  Objects alive;
  for (const auto& [oid, trajectory] : mod.objects()) {
    const TimeInterval life = trajectory.Domain();
    if (life.lo <= t && life.hi >= t) alive.emplace_back(oid, &trajectory);
  }
  return alive;
}

// The founding as observable state: order, queue and insert count.
struct Founded {
  std::vector<ObjectId> order;
  std::vector<SweepEvent> queue;
  uint64_t inserts = 0;
};

Founded Observe(const SweepState& state) {
  return Founded{state.order().ToVector(), state.QueueSnapshot(),
                 state.stats().inserts};
}

void ExpectSameFounding(const Founded& bulk, const Founded& reference) {
  EXPECT_EQ(bulk.order, reference.order);
  EXPECT_EQ(bulk.inserts, reference.inserts);
  ASSERT_EQ(bulk.queue.size(), reference.queue.size());
  for (size_t i = 0; i < bulk.queue.size(); ++i) {
    // SweepEvent's == compares the crossing times exactly.
    EXPECT_EQ(bulk.queue[i], reference.queue[i]) << "event " << i;
  }
}

// Finishes either timeline at `end` unless it already is.
void ExpectSameTimeline(AnswerTimeline& bulk, AnswerTimeline& reference,
                        double end) {
  if (!bulk.finished()) bulk.Finish(end);
  if (!reference.finished()) reference.Finish(end);
  ASSERT_EQ(bulk.segments().size(), reference.segments().size())
      << bulk.ToString() << "\nvs\n" << reference.ToString();
  for (size_t i = 0; i < bulk.segments().size(); ++i) {
    const AnswerTimeline::Segment& a = bulk.segments()[i];
    const AnswerTimeline::Segment& b = reference.segments()[i];
    EXPECT_EQ(a.interval.lo, b.interval.lo) << "segment " << i;
    EXPECT_EQ(a.interval.hi, b.interval.hi) << "segment " << i;
    EXPECT_EQ(a.answer, b.answer) << "segment " << i;
  }
}

// One founding scenario: a MOD whose last update is at `start`, the updates
// that follow it, and the queries founded with the sweep.
struct Fleet {
  MovingObjectDatabase mod{2, 0.0};
  std::vector<Update> churn;
  GDistancePtr gdist = OriginDistance();
  double start = 0.0;
  double end = 0.0;
  std::vector<size_t> ks;
  std::vector<double> thresholds;
};

// Random movers (every third one with an identical copy, so their curves
// tie until a chdir), a first half of churn, then at the start four
// stationary objects tied at distance² 25 from the origin, one entering
// object and one mover terminated exactly at the start, and a second half
// of churn after it. The thresholds sit on the tie, so sentinels tie with
// objects too.
Fleet ChurnedFleet(size_t n, uint64_t seed) {
  Fleet fleet;
  const RandomModOptions options{.num_objects = n, .dim = 2, .box_lo = -40.0,
                                 .box_hi = 40.0, .seed = seed};
  const MovingObjectDatabase movers = RandomMod(options);
  std::vector<Update> fleet_updates;
  ObjectId copy = 1000;
  for (const auto& [oid, trajectory] : movers.objects()) {
    const Vec position = trajectory.PositionAt(0.0);
    const Vec velocity = trajectory.pieces().front().velocity;
    fleet_updates.push_back(Update::NewObject(oid, 0.0, position, velocity));
    if (oid % 3 == 0) {
      fleet_updates.push_back(
          Update::NewObject(copy++, 0.0, position, velocity));
    }
  }
  MODB_CHECK(fleet.mod.ApplyAll(fleet_updates).ok());

  UpdateStreamOptions stream{.count = 40, .mean_gap = 0.2,
                             .chdir_weight = 0.6, .new_weight = 0.2,
                             .terminate_weight = 0.2, .seed = seed + 1};
  MODB_CHECK(fleet.mod.ApplyAll(RandomUpdateStream(fleet.mod, options, stream))
                 .ok());
  fleet.start = fleet.mod.last_update_time();
  ObjectId next = 2000;
  for (const Vec& at : {Vec{3.0, 4.0}, Vec{4.0, 3.0}, Vec{-5.0, 0.0},
                        Vec{0.0, -5.0}}) {
    MODB_CHECK(fleet.mod.Apply(Update::NewObject(next++, fleet.start, at,
                                                 Vec{0.0, 0.0}))
                   .ok());
  }
  MODB_CHECK(fleet.mod.Apply(Update::NewObject(next++, fleet.start,
                                               Vec{0.0, 5.0}, Vec{0.0, -1.0}))
                 .ok());
  const std::vector<ObjectId> alive = fleet.mod.AliveAt(fleet.start);
  MODB_CHECK(!alive.empty());
  MODB_CHECK(
      fleet.mod.Apply(Update::TerminateObject(alive.front(), fleet.start))
          .ok());
  stream.seed = seed + 2;
  fleet.churn = RandomUpdateStream(fleet.mod, options, stream);
  fleet.end = fleet.churn.back().time + 1.0;
  fleet.ks = {1, 3, n + 20};
  fleet.thresholds = {25.0, 400.0};
  return fleet;
}

// n objects with one velocity, all at distance² 25 from the origin at
// time 0 when `tied`; no churn.
Fleet SmallFleet(size_t n, bool tied) {
  Fleet fleet;
  for (size_t i = 0; i < n; ++i) {
    const Vec at = tied ? Vec{i % 2 == 0 ? 3.0 : 4.0, i % 2 == 0 ? 4.0 : 3.0}
                        : Vec{static_cast<double>(i + 1), 0.0};
    MODB_CHECK(fleet.mod.Apply(Update::NewObject(static_cast<ObjectId>(i + 1),
                                                 0.0, at, Vec{-0.5, 0.25}))
                   .ok());
  }
  fleet.end = 5.0;
  fleet.ks = {1, n + 1};
  fleet.thresholds = {25.0};
  return fleet;
}

// The queries of a fleet, attached to one sweep. Sentinel oids count down
// from -1, as QueryServer's do.
struct Kernels {
  std::vector<std::unique_ptr<KnnKernel>> knn;
  std::vector<std::unique_ptr<WithinKernel>> within;

  void AddKnn(SweepState* state, const Fleet& fleet) {
    for (size_t k : fleet.ks) {
      knn.push_back(std::make_unique<KnnKernel>(state, k));
    }
  }
  void AddWithin(SweepState* state, const Fleet& fleet) {
    ObjectId sentinel = -1;
    for (double threshold : fleet.thresholds) {
      within.push_back(
          std::make_unique<WithinKernel>(state, sentinel--, threshold));
    }
  }
};

void ExpectSameAnswers(Kernels& bulk, Kernels& reference) {
  for (size_t i = 0; i < bulk.knn.size(); ++i) {
    EXPECT_EQ(bulk.knn[i]->Current(), reference.knn[i]->Current())
        << "knn " << i;
  }
  for (size_t i = 0; i < bulk.within.size(); ++i) {
    EXPECT_EQ(bulk.within[i]->Current(), reference.within[i]->Current())
        << "within " << i;
  }
}

void ExpectSameTimelines(Kernels& bulk, Kernels& reference, double end) {
  for (size_t i = 0; i < bulk.knn.size(); ++i) {
    SCOPED_TRACE("knn " + std::to_string(i));
    ExpectSameTimeline(bulk.knn[i]->timeline(), reference.knn[i]->timeline(),
                       end);
  }
  for (size_t i = 0; i < bulk.within.size(); ++i) {
    SCOPED_TRACE("within " + std::to_string(i));
    ExpectSameTimeline(bulk.within[i]->timeline(),
                       reference.within[i]->timeline(), end);
  }
}

// The future engine founds in bulk; the reference drives a bare
// SweepState the way the engine did before: k-NN kernels attached first
// and fed one OnInsert per object, within sentinels inserted after the
// objects. Then both take the same churn.
void CheckFuture(Fleet fleet, EventQueueKind queue_kind) {
  SweepState reference(fleet.gdist, fleet.start, kInf, queue_kind);
  Kernels ref_kernels;
  ref_kernels.AddKnn(&reference, fleet);
  for (const auto& [oid, trajectory] : AliveAfter(fleet.mod, fleet.start)) {
    reference.InsertObject(oid, *trajectory);
  }
  ref_kernels.AddWithin(&reference, fleet);
  MovingObjectDatabase ref_mod = fleet.mod;

  MovingObjectDatabase mod = fleet.mod;
  FutureQueryEngine engine(mod, fleet.gdist, fleet.start, kInf, queue_kind);
  Kernels kernels;
  kernels.AddKnn(&engine.state(), fleet);
  kernels.AddWithin(&engine.state(), fleet);
  engine.Start();
  engine.state().CheckInvariants();
  ExpectSameFounding(Observe(engine.state()), Observe(reference));
  ExpectSameAnswers(kernels, ref_kernels);

  for (const Update& update : fleet.churn) {
    ASSERT_TRUE(engine.ApplyUpdate(mod, update).ok()) << update.ToString();
    reference.AdvanceTo(update.time);
    ASSERT_TRUE(ref_mod.Apply(update).ok());
    switch (update.kind) {
      case UpdateKind::kNew:
        reference.InsertObject(update.oid, *ref_mod.Find(update.oid));
        break;
      case UpdateKind::kTerminate:
        reference.EraseObject(update.oid);
        break;
      case UpdateKind::kChdir:
        reference.ReplaceCurve(update.oid, *ref_mod.Find(update.oid));
        break;
    }
    reference.AdvanceTo(update.time);
    ExpectSameAnswers(kernels, ref_kernels);
  }
  engine.AdvanceTo(fleet.end);
  reference.AdvanceTo(fleet.end);
  EXPECT_EQ(engine.state().order().ToVector(), reference.order().ToVector());
  EXPECT_EQ(engine.stats().SupportChanges(),
            reference.stats().SupportChanges());
  ExpectSameTimelines(kernels, ref_kernels, fleet.end);
}

// The past sweep as it ran before founding was batched: one InsertObject
// per object alive at interval.lo, then PastQueryEngine::Run's structural
// replay.
void ReferencePastSweep(const MovingObjectDatabase& mod, TimeInterval interval,
                        SweepState* state) {
  struct Structural {
    double time;
    bool is_erase;
    ObjectId oid;
  };
  std::vector<Structural> structural;
  for (const auto& [oid, trajectory] : mod.objects()) {
    const TimeInterval life = trajectory.Domain();
    if (life.hi < interval.lo || life.lo > interval.hi) continue;
    if (life.lo > interval.lo) structural.push_back({life.lo, false, oid});
    if (life.hi <= interval.hi && life.hi != kInf) {
      structural.push_back({life.hi, true, oid});
    }
  }
  std::sort(structural.begin(), structural.end(),
            [](const Structural& a, const Structural& b) {
              if (a.time != b.time) return a.time < b.time;
              if (a.is_erase != b.is_erase) return b.is_erase;
              return a.oid < b.oid;
            });
  for (const Structural& event : structural) {
    state->AdvanceTo(event.time);
    if (event.is_erase) {
      state->EraseObject(event.oid);
    } else {
      state->InsertObject(event.oid, *mod.Find(event.oid));
    }
  }
  state->AdvanceTo(interval.hi);
}

// The past engine founds at interval.lo in bulk; compared at its founding
// (the first post-event hook of Run) and over the whole interval, and
// PastWithin's admission-pruned sweep against the unpruned reference.
void CheckPast(const Fleet& fleet, TimeInterval interval,
               EventQueueKind queue_kind) {
  SweepState reference(fleet.gdist, interval.lo, interval.hi, queue_kind);
  Kernels ref_kernels;
  ref_kernels.AddKnn(&reference, fleet);
  for (const auto& [oid, trajectory] : AliveAt(fleet.mod, interval.lo)) {
    reference.InsertObject(oid, *trajectory);
  }
  ref_kernels.AddWithin(&reference, fleet);
  const Founded ref_founded = Observe(reference);
  ReferencePastSweep(fleet.mod, interval, &reference);

  PastQueryEngine engine(fleet.mod, fleet.gdist, interval, queue_kind);
  Kernels kernels;
  kernels.AddKnn(&engine.state(), fleet);
  kernels.AddWithin(&engine.state(), fleet);
  std::optional<Founded> founded;
  engine.state().SetPostEventHook([&] {
    if (!founded.has_value()) founded = Observe(engine.state());
  });
  engine.Run();
  engine.state().SetPostEventHook(nullptr);
  if (!ref_founded.order.empty() &&
      ref_founded.order.size() > fleet.thresholds.size()) {
    ASSERT_TRUE(founded.has_value());
    ExpectSameFounding(*founded, ref_founded);
  }
  EXPECT_EQ(engine.stats().SupportChanges(),
            reference.stats().SupportChanges());
  for (size_t i = 0; i < fleet.thresholds.size(); ++i) {
    SCOPED_TRACE("PastWithin " + std::to_string(i));
    AnswerTimeline pruned =
        PastWithin(fleet.mod, fleet.gdist, fleet.thresholds[i], interval,
                   -1 - static_cast<ObjectId>(i), queue_kind);
    AnswerTimeline unpruned = ref_kernels.within[i]->timeline();
    ExpectSameTimeline(unpruned, pruned, interval.hi);
  }
  ExpectSameTimelines(kernels, ref_kernels, interval.hi);
}

class FoundingTest : public ::testing::TestWithParam<EventQueueKind> {};

TEST_P(FoundingTest, BulkEqualsSequentialOnChurnedFleets) {
  for (uint64_t seed : {3u, 17u, 29u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    CheckFuture(ChurnedFleet(24, seed), GetParam());
  }
}

TEST_P(FoundingTest, BulkEqualsSequentialWithoutPooledCurves) {
  Fleet fleet = ChurnedFleet(12, 5);
  fleet.gdist = QuarticDistance();
  fleet.thresholds = {625.0};  // 25², the quartic image of the tie.
  CheckFuture(std::move(fleet), GetParam());
}

TEST_P(FoundingTest, BulkEqualsSequentialOnTinyFleets) {
  for (size_t n : {0u, 1u, 2u}) {
    for (bool tied : {false, true}) {
      SCOPED_TRACE("n " + std::to_string(n) + (tied ? " tied" : ""));
      CheckFuture(SmallFleet(n, tied), GetParam());
      CheckPast(SmallFleet(n, tied), TimeInterval(0.0, 4.0), GetParam());
    }
  }
}

TEST_P(FoundingTest, PastBulkEqualsSequential) {
  for (uint64_t seed : {3u, 17u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Fleet fleet = ChurnedFleet(24, seed);
    // Churn becomes history: creations and terminations inside the
    // interval, and the founding instant is an update time, so objects
    // begin and end exactly there.
    for (const Update& update : fleet.churn) {
      ASSERT_TRUE(fleet.mod.Apply(update).ok());
    }
    CheckPast(fleet, TimeInterval(fleet.start, fleet.end), GetParam());
    CheckPast(fleet, TimeInterval(0.0, fleet.start), GetParam());
  }
  Fleet quartic = ChurnedFleet(12, 5);
  quartic.gdist = QuarticDistance();
  quartic.thresholds = {625.0};
  CheckPast(quartic, TimeInterval(0.0, quartic.start), GetParam());
}

INSTANTIATE_TEST_SUITE_P(Queues, FoundingTest,
                         ::testing::Values(EventQueueKind::kIndexed,
                                           EventQueueKind::kLeftist));

TEST(FoundingTest, OrderIsTheCartesianTreapOfTheSortedObjects) {
  SweepState state(OriginDistance(), 0.0);
  MovingObjectDatabase mod(2, 0.0);
  for (ObjectId oid = 1; oid <= 200; ++oid) {
    const double x = static_cast<double>((oid * 37) % 50);
    ASSERT_TRUE(
        mod.Apply(Update::NewObject(oid, 0.0, Vec{x, 0.0}, Vec{1.0, 0.0}))
            .ok());
  }
  state.InsertSentinel(-1, 100.0);
  state.InsertSentinel(-2, 100.0);
  state.InsertObjects(AliveAfter(mod, 0.0));
  state.CheckInvariants();
  EXPECT_EQ(state.size(), 202u);
  EXPECT_EQ(state.stats().inserts, 202u);  // Sentinels count too.
  EXPECT_EQ(state.stats().schedules, state.queue_length());
  EXPECT_EQ(state.stats().cancels, 0u);
  // Objects at x = 10 (value 100) precede both sentinels, which keep
  // their own order.
  const size_t first = state.order().Rank(-1);
  EXPECT_EQ(state.order().Rank(-2), first + 1);
  for (size_t rank = 0; rank < state.size(); ++rank) {
    const ObjectId oid = state.order().At(rank);
    if (state.IsSentinel(oid)) continue;
    EXPECT_EQ(rank < first, state.CurveValue(oid, 0.0) <= 100.0) << oid;
  }
}

TEST(FoundingTest, ObjectsMayNotFoundOverResidentObjects) {
  SweepState state(OriginDistance(), 0.0);
  const Trajectory a = Trajectory::Stationary(0.0, Vec{1.0, 0.0});
  state.InsertObject(1, a);
  EXPECT_DEATH(state.InsertObjects({{2, &a}}), "only sentinels");
}

// A stationary object exactly on the threshold, one leaving it and one
// entering it at the founding instant. A within query answers the same
// whether it founds its group, joins one, sweeps the past or reads a
// snapshot, and so does the naive oracle: the threshold is inclusive.
TEST(FoundingTest, WithinThresholdIsInclusiveAtTheFoundingInstant) {
  MovingObjectDatabase mod(2, 0.0);
  ASSERT_TRUE(mod.Apply(Update::NewObject(1, 0.0, Vec{3.0, 4.0},
                                          Vec{0.0, 0.0})).ok());
  ASSERT_TRUE(mod.Apply(Update::NewObject(2, 0.0, Vec{3.0, 4.0},
                                          Vec{0.6, 0.8})).ok());  // Leaving.
  ASSERT_TRUE(mod.Apply(Update::NewObject(3, 0.0, Vec{0.0, 5.0},
                                          Vec{0.0, -1.0})).ok());  // Entering.
  const GDistancePtr gdist = OriginDistance();
  const double threshold = 25.0;
  const TimeInterval interval(0.0, 8.0);

  QueryServer founding(mod, 0.0);
  const QueryId founded = founding.AddWithin("origin", gdist, threshold);
  QueryServer joining(mod, 0.0);
  joining.AddKnn("origin", gdist, 1);
  const QueryId joined = joining.AddWithin("origin", gdist, threshold);
  // At the instant itself every object is on the threshold.
  EXPECT_EQ(founding.Answer(founded), (std::set<ObjectId>{1, 2, 3}));
  EXPECT_EQ(joining.Answer(joined), (std::set<ObjectId>{1, 2, 3}));
  EXPECT_EQ(SnapshotWithin(mod, *gdist, threshold, 0.0),
            (std::set<ObjectId>{1, 2, 3}));
  founding.AdvanceTo(interval.hi);
  joining.AdvanceTo(interval.hi);
  AnswerTimeline founded_timeline = founding.Timeline(founded);
  founded_timeline.Finish(interval.hi);
  AnswerTimeline joined_timeline = joining.Timeline(joined);
  joined_timeline.Finish(interval.hi);
  AnswerTimeline past = PastWithin(mod, gdist, threshold, interval);
  const NaiveResult naive =
      NaiveWithinTimeline(mod, *gdist, threshold, interval);

  // Object 3 passes the origin at t = 5 and is back on the threshold at
  // t = 10, outside the interval.
  for (double t : {0.25, 1.0, 4.0, 7.5}) {
    SCOPED_TRACE("t = " + std::to_string(t));
    const std::set<ObjectId> want{1, 3};
    EXPECT_EQ(SnapshotWithin(mod, *gdist, threshold, t), want);
    EXPECT_EQ(naive.timeline.AnswerAt(t), want);
    EXPECT_EQ(past.AnswerAt(t), want);
    EXPECT_EQ(founded_timeline.AnswerAt(t), want);
    EXPECT_EQ(joined_timeline.AnswerAt(t), want);
  }
  EXPECT_EQ(founding.Answer(founded), (std::set<ObjectId>{1, 3}));
  EXPECT_EQ(joining.Answer(joined), (std::set<ObjectId>{1, 3}));
}

}  // namespace
}  // namespace modb
