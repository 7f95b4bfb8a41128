#include "index/event_queue.h"

#include <map>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace modb {
namespace {

// Most cases key each event by its left oid, as the sweep keys it by the
// left object's slot.
EventQueue::Key KeyOf(const SweepEvent& event) {
  return static_cast<EventQueue::Key>(event.left);
}

class EventQueueTest : public ::testing::TestWithParam<EventQueueKind> {
 protected:
  std::unique_ptr<EventQueue> MakeQueue() { return MakeEventQueue(GetParam()); }
  static void Push(EventQueue* queue, const SweepEvent& event) {
    queue->Push(event, KeyOf(event));
  }
};

TEST_P(EventQueueTest, PushPopInTimeOrder) {
  auto queue = MakeQueue();
  Push(queue.get(), SweepEvent{5.0, 1, 2});
  Push(queue.get(), SweepEvent{2.0, 3, 4});
  Push(queue.get(), SweepEvent{8.0, 5, 6});
  EXPECT_EQ(queue->size(), 3u);
  EXPECT_DOUBLE_EQ(queue->Min().time, 2.0);
  EXPECT_EQ(queue->PopMin(), (KeyedEvent{SweepEvent{2.0, 3, 4}, 3}));
  EXPECT_EQ(queue->PopMin(), (KeyedEvent{SweepEvent{5.0, 1, 2}, 1}));
  EXPECT_EQ(queue->PopMin(), (KeyedEvent{SweepEvent{8.0, 5, 6}, 5}));
  EXPECT_TRUE(queue->empty());
}

TEST_P(EventQueueTest, TiesBrokenByPair) {
  auto queue = MakeQueue();
  Push(queue.get(), SweepEvent{1.0, 7, 8});
  Push(queue.get(), SweepEvent{1.0, 2, 3});
  EXPECT_EQ(queue->PopMin().event, (SweepEvent{1.0, 2, 3}));
  EXPECT_EQ(queue->PopMin().event, (SweepEvent{1.0, 7, 8}));
}

// The order is by oids, never by key: a small key on a later or larger
// pair does not jump the queue.
TEST_P(EventQueueTest, KeysDoNotOrderEvents) {
  auto queue = MakeQueue();
  queue->Push(SweepEvent{1.0, 9, 10}, 0);
  queue->Push(SweepEvent{1.0, 4, 5}, 7);
  queue->Push(SweepEvent{0.5, 20, 21}, 3);
  EXPECT_EQ(queue->PopMin(), (KeyedEvent{SweepEvent{0.5, 20, 21}, 3}));
  EXPECT_EQ(queue->PopMin(), (KeyedEvent{SweepEvent{1.0, 4, 5}, 7}));
  EXPECT_EQ(queue->PopMin(), (KeyedEvent{SweepEvent{1.0, 9, 10}, 0}));
}

TEST_P(EventQueueTest, ErasePair) {
  auto queue = MakeQueue();
  Push(queue.get(), SweepEvent{5.0, 1, 2});
  Push(queue.get(), SweepEvent{2.0, 3, 4});
  EXPECT_TRUE(queue->HasPair(3, 3, 4));
  EXPECT_TRUE(queue->ErasePair(3, 3, 4));
  EXPECT_FALSE(queue->HasPair(3, 3, 4));
  EXPECT_FALSE(queue->HasKey(3));
  EXPECT_FALSE(queue->ErasePair(3, 3, 4));  // Already gone.
  EXPECT_EQ(queue->size(), 1u);
  EXPECT_DOUBLE_EQ(queue->Min().time, 5.0);
}

// A key whose event belongs to another pair erases nothing: the wrong
// right oid, a stale left oid (the key's slot was reused by another
// object), or a key past every key ever pushed.
TEST_P(EventQueueTest, ErasePairChecksTheStoredPair) {
  auto queue = MakeQueue();
  queue->Push(SweepEvent{5.0, 40, 41}, 2);
  EXPECT_FALSE(queue->HasPair(2, 40, 99));
  EXPECT_FALSE(queue->ErasePair(2, 40, 99));  // Wrong right oid.
  EXPECT_FALSE(queue->ErasePair(2, 17, 41));  // Stale left oid.
  EXPECT_FALSE(queue->ErasePair(3, 40, 41));  // Wrong key.
  EXPECT_FALSE(queue->ErasePair(1000, 40, 41));
  EXPECT_FALSE(queue->HasKey(1000));
  EXPECT_EQ(queue->size(), 1u);
  EXPECT_TRUE(queue->HasKey(2));
  EXPECT_TRUE(queue->ErasePair(2, 40, 41));
  EXPECT_TRUE(queue->empty());
}

TEST_P(EventQueueTest, PairsAreOrdered) {
  auto queue = MakeQueue();
  Push(queue.get(), SweepEvent{1.0, 1, 2});
  // (2, 1) is a distinct pair from (1, 2).
  EXPECT_FALSE(queue->HasPair(2, 2, 1));
  EXPECT_FALSE(queue->HasPair(1, 2, 1));
  Push(queue.get(), SweepEvent{2.0, 2, 1});
  EXPECT_EQ(queue->size(), 2u);
}

TEST_P(EventQueueTest, DuplicatePairDies) {
  auto queue = MakeQueue();
  Push(queue.get(), SweepEvent{1.0, 1, 2});
  EXPECT_DEATH(Push(queue.get(), SweepEvent{3.0, 1, 2}),
               "already has an event");
}

// One key holds one event, whatever its pair.
TEST_P(EventQueueTest, SecondEventOnOneKeyDies) {
  auto queue = MakeQueue();
  queue->Push(SweepEvent{1.0, 1, 2}, 6);
  EXPECT_DEATH(queue->Push(SweepEvent{3.0, 8, 9}, 6), "already has an event");
  EXPECT_DEATH(queue->BulkBuild({KeyedEvent{SweepEvent{1.0, 1, 2}, 4},
                                 KeyedEvent{SweepEvent{2.0, 3, 4}, 4}}),
               "key 4");
}

TEST_P(EventQueueTest, PopClearsPairIndex) {
  auto queue = MakeQueue();
  Push(queue.get(), SweepEvent{1.0, 1, 2});
  queue->PopMin();
  EXPECT_FALSE(queue->HasPair(1, 1, 2));
  EXPECT_FALSE(queue->HasKey(1));
  Push(queue.get(), SweepEvent{2.0, 1, 2});  // Re-push allowed after pop.
  EXPECT_EQ(queue->size(), 1u);
}

TEST_P(EventQueueTest, BulkBuildReplacesContents) {
  auto queue = MakeQueue();
  Push(queue.get(), SweepEvent{9.0, 8, 9});
  std::vector<KeyedEvent> events;
  for (int i = 0; i < 50; ++i) {
    const SweepEvent event{50.0 - i, i + 100, i + 1000};
    events.push_back(KeyedEvent{event, static_cast<EventQueue::Key>(i)});
  }
  queue->BulkBuild(events);
  EXPECT_EQ(queue->size(), 50u);
  EXPECT_FALSE(queue->HasPair(8, 8, 9));
  EXPECT_TRUE(queue->HasPair(8, 108, 1008));
  EXPECT_TRUE(queue->HasPair(49, 149, 1049));
  double prev = -1.0;
  while (!queue->empty()) {
    const KeyedEvent e = queue->PopMin();
    EXPECT_EQ(e.event.left, static_cast<ObjectId>(e.key) + 100);
    EXPECT_GE(e.event.time, prev);
    prev = e.event.time;
  }
}

TEST_P(EventQueueTest, BulkBuildThenErase) {
  auto queue = MakeQueue();
  queue->BulkBuild({KeyedEvent{SweepEvent{1.0, 1, 2}, 1},
                    KeyedEvent{SweepEvent{2.0, 3, 4}, 3},
                    KeyedEvent{SweepEvent{3.0, 5, 6}, 5}});
  EXPECT_TRUE(queue->ErasePair(1, 1, 2));
  EXPECT_DOUBLE_EQ(queue->Min().time, 2.0);
  EXPECT_TRUE(queue->ErasePair(5, 5, 6));
  EXPECT_EQ(queue->size(), 1u);
}

TEST_P(EventQueueTest, RandomizedAgainstReference) {
  Rng rng(21);
  auto queue = MakeQueue();
  std::set<SweepEvent, SweepEventLess> reference;
  ObjectId next_pair = 0;
  for (int step = 0; step < 4000; ++step) {
    const double dice = rng.Uniform(0.0, 1.0);
    if (reference.empty() || dice < 0.5) {
      const SweepEvent e{rng.Uniform(0.0, 1000.0), next_pair,
                         next_pair + 100000};
      ++next_pair;
      Push(queue.get(), e);
      reference.insert(e);
    } else if (dice < 0.8) {
      EXPECT_EQ(queue->PopMin().event, *reference.begin());
      reference.erase(reference.begin());
    } else {
      // Erase a random present pair.
      auto it = reference.begin();
      std::advance(it, rng.UniformInt(
                           0, static_cast<int64_t>(reference.size()) - 1));
      EXPECT_TRUE(queue->ErasePair(KeyOf(*it), it->left, it->right));
      reference.erase(it);
    }
    EXPECT_EQ(queue->size(), reference.size());
  }
}

INSTANTIATE_TEST_SUITE_P(AllQueueKinds, EventQueueTest,
                         ::testing::Values(EventQueueKind::kLeftist,
                                           EventQueueKind::kIndexed),
                         [](const auto& info) {
                           switch (info.param) {
                             case EventQueueKind::kLeftist:
                               return "Leftist";
                             case EventQueueKind::kIndexed:
                               return "Indexed";
                           }
                           return "Unknown";
                         });

// The two queues under the sweep's own usage: a key is a slot, its
// resident (the left oid) changes when the slot is reused, at most one
// event per key, and times collide often. Every observable — PopMin with
// its key, Min, HasKey/HasPair, ErasePair's verdict (right, stale
// and wrong pairs), size and Snapshot — must agree.
TEST(EventQueueDifferentialTest, IndexedMatchesLeftistUnderKeyReuse) {
  constexpr int kKeys = 48;
  Rng rng(777);
  LeftistEventQueue leftist;
  IndexedEventQueue indexed;
  std::vector<ObjectId> resident(kKeys);   // key -> current left oid
  std::vector<ObjectId> previous(kKeys);   // key -> the oid before it
  ObjectId next_oid = 0;
  for (int k = 0; k < kKeys; ++k) previous[k] = resident[k] = next_oid++;
  std::map<EventQueue::Key, SweepEvent> queued;
  auto random_key = [&] {
    return static_cast<EventQueue::Key>(rng.UniformInt(0, kKeys - 1));
  };
  auto random_event = [&](EventQueue::Key key) {
    // Few distinct times, so ties fall to the pair order.
    return SweepEvent{static_cast<double>(rng.UniformInt(0, 12)),
                      resident[key], rng.UniformInt(0, next_oid + 5)};
  };
  for (int step = 0; step < 20000; ++step) {
    const double dice = rng.Uniform(0.0, 1.0);
    const EventQueue::Key key = random_key();
    const auto it = queued.find(key);
    if (dice < 0.4) {
      if (it != queued.end()) continue;
      const SweepEvent event = random_event(key);
      leftist.Push(event, key);
      indexed.Push(event, key);
      queued.emplace(key, event);
    } else if (dice < 0.6) {
      if (queued.empty()) continue;
      ASSERT_EQ(leftist.Min(), indexed.Min());
      const KeyedEvent popped = indexed.PopMin();
      ASSERT_EQ(leftist.PopMin(), popped);
      ASSERT_EQ(queued.at(popped.key), popped.event);
      queued.erase(popped.key);
    } else if (dice < 0.85) {
      // Erase by the right pair, a stale left oid, or a wrong right oid.
      SweepEvent probe = it != queued.end() ? it->second : random_event(key);
      const int variant = static_cast<int>(rng.UniformInt(0, 2));
      if (variant == 1) probe.left = previous[key];
      if (variant == 2) probe.right = next_oid + 100;
      const bool has = indexed.HasPair(key, probe.left, probe.right);
      ASSERT_EQ(leftist.HasPair(key, probe.left, probe.right), has);
      const bool erased = indexed.ErasePair(key, probe.left, probe.right);
      ASSERT_EQ(leftist.ErasePair(key, probe.left, probe.right), erased);
      ASSERT_EQ(erased, has);
      ASSERT_EQ(erased, it != queued.end() && it->second == probe);
      if (erased) queued.erase(it);
    } else if (dice < 0.995) {
      // Reuse an idle key for a new resident, as a slot freed by an erase
      // and taken by the next insert.
      if (it != queued.end()) continue;
      previous[key] = resident[key];
      resident[key] = next_oid++;
    } else {
      std::vector<KeyedEvent> events;
      queued.clear();
      for (int k = 0; k < kKeys; ++k) {
        if (rng.Bernoulli(0.5)) continue;
        const EventQueue::Key bulk_key = static_cast<EventQueue::Key>(k);
        const SweepEvent event = random_event(bulk_key);
        events.push_back(KeyedEvent{event, bulk_key});
        queued.emplace(bulk_key, event);
      }
      leftist.BulkBuild(events);
      indexed.BulkBuild(events);
    }
    ASSERT_EQ(leftist.size(), queued.size());
    ASSERT_EQ(indexed.size(), queued.size());
    ASSERT_EQ(leftist.HasKey(key), indexed.HasKey(key));
    ASSERT_EQ(indexed.HasKey(key), queued.count(key) > 0);
    if (step % 97 == 0) {
      ASSERT_EQ(leftist.Snapshot(), indexed.Snapshot());
    }
  }
  while (!queued.empty()) {
    const KeyedEvent popped = indexed.PopMin();
    ASSERT_EQ(leftist.PopMin(), popped);
    queued.erase(popped.key);
  }
  EXPECT_TRUE(leftist.empty());
  EXPECT_TRUE(indexed.empty());
}

}  // namespace
}  // namespace modb
