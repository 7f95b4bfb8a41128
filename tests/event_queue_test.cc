#include "index/event_queue.h"

#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace modb {
namespace {

class EventQueueTest : public ::testing::TestWithParam<EventQueueKind> {
 protected:
  std::unique_ptr<EventQueue> MakeQueue() { return MakeEventQueue(GetParam()); }
};

TEST_P(EventQueueTest, PushPopInTimeOrder) {
  auto queue = MakeQueue();
  queue->Push(SweepEvent{5.0, 1, 2});
  queue->Push(SweepEvent{2.0, 3, 4});
  queue->Push(SweepEvent{8.0, 5, 6});
  EXPECT_EQ(queue->size(), 3u);
  EXPECT_DOUBLE_EQ(queue->Min().time, 2.0);
  EXPECT_EQ(queue->PopMin(), (SweepEvent{2.0, 3, 4}));
  EXPECT_EQ(queue->PopMin(), (SweepEvent{5.0, 1, 2}));
  EXPECT_EQ(queue->PopMin(), (SweepEvent{8.0, 5, 6}));
  EXPECT_TRUE(queue->empty());
}

TEST_P(EventQueueTest, TiesBrokenByPair) {
  auto queue = MakeQueue();
  queue->Push(SweepEvent{1.0, 7, 8});
  queue->Push(SweepEvent{1.0, 2, 3});
  EXPECT_EQ(queue->PopMin(), (SweepEvent{1.0, 2, 3}));
  EXPECT_EQ(queue->PopMin(), (SweepEvent{1.0, 7, 8}));
}

TEST_P(EventQueueTest, ErasePair) {
  auto queue = MakeQueue();
  queue->Push(SweepEvent{5.0, 1, 2});
  queue->Push(SweepEvent{2.0, 3, 4});
  EXPECT_TRUE(queue->HasPair(3, 4));
  EXPECT_TRUE(queue->ErasePair(3, 4));
  EXPECT_FALSE(queue->HasPair(3, 4));
  EXPECT_FALSE(queue->ErasePair(3, 4));  // Already gone.
  EXPECT_EQ(queue->size(), 1u);
  EXPECT_DOUBLE_EQ(queue->Min().time, 5.0);
}

TEST_P(EventQueueTest, PairsAreOrdered) {
  auto queue = MakeQueue();
  queue->Push(SweepEvent{1.0, 1, 2});
  // (2, 1) is a distinct pair from (1, 2).
  EXPECT_FALSE(queue->HasPair(2, 1));
  queue->Push(SweepEvent{2.0, 2, 1});
  EXPECT_EQ(queue->size(), 2u);
}

TEST_P(EventQueueTest, DuplicatePairDies) {
  auto queue = MakeQueue();
  queue->Push(SweepEvent{1.0, 1, 2});
  EXPECT_DEATH(queue->Push(SweepEvent{3.0, 1, 2}), "already has an event");
}

TEST_P(EventQueueTest, PopClearsPairIndex) {
  auto queue = MakeQueue();
  queue->Push(SweepEvent{1.0, 1, 2});
  queue->PopMin();
  EXPECT_FALSE(queue->HasPair(1, 2));
  queue->Push(SweepEvent{2.0, 1, 2});  // Re-push allowed after pop.
  EXPECT_EQ(queue->size(), 1u);
}

TEST_P(EventQueueTest, BulkBuildReplacesContents) {
  auto queue = MakeQueue();
  queue->Push(SweepEvent{9.0, 8, 9});
  std::vector<SweepEvent> events;
  for (int i = 0; i < 50; ++i) {
    events.push_back(SweepEvent{50.0 - i, i, i + 1000});
  }
  queue->BulkBuild(events);
  EXPECT_EQ(queue->size(), 50u);
  EXPECT_FALSE(queue->HasPair(8, 9));
  EXPECT_TRUE(queue->HasPair(49, 1049));
  double prev = -1.0;
  while (!queue->empty()) {
    const SweepEvent e = queue->PopMin();
    EXPECT_GE(e.time, prev);
    prev = e.time;
  }
}

TEST_P(EventQueueTest, BulkBuildThenErase) {
  auto queue = MakeQueue();
  queue->BulkBuild({SweepEvent{1.0, 1, 2}, SweepEvent{2.0, 3, 4},
                    SweepEvent{3.0, 5, 6}});
  EXPECT_TRUE(queue->ErasePair(1, 2));
  EXPECT_DOUBLE_EQ(queue->Min().time, 2.0);
  EXPECT_TRUE(queue->ErasePair(5, 6));
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
      queue->Push(e);
      reference.insert(e);
    } else if (dice < 0.8) {
      EXPECT_EQ(queue->PopMin(), *reference.begin());
      reference.erase(reference.begin());
    } else {
      // Erase a random present pair.
      auto it = reference.begin();
      std::advance(it, rng.UniformInt(
                           0, static_cast<int64_t>(reference.size()) - 1));
      EXPECT_TRUE(queue->ErasePair(it->left, it->right));
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

}  // namespace
}  // namespace modb
