#include "index/ordered_sequence.h"

#include <algorithm>
#include <limits>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace modb {
namespace {

// Inserts oids with explicit values through the comparison callback.
class Harness {
 public:
  void Insert(ObjectId oid, double value) {
    values_[oid] = value;
    seq_.Insert(oid, value, [this](OrderedSequence::Slot other) {
      return values_.at(seq_.OidOf(other));
    });
  }
  OrderedSequence::Slot SlotOf(ObjectId oid) const { return seq_.SlotOf(oid); }
  void Erase(ObjectId oid) {
    values_.erase(oid);
    seq_.Erase(seq_.SlotOf(oid));
  }
  // Changes `oid`'s recorded value without touching the order (after a
  // swap or a refounding that moved it).
  void Revalue(ObjectId oid, double value) { values_[oid] = value; }
  OrderedSequence& seq() { return seq_; }
  const std::map<ObjectId, double>& values() const { return values_; }

  // The order sorted by value (stable by oid for ties).
  std::vector<ObjectId> Expected() const {
    std::vector<ObjectId> oids;
    for (const auto& [oid, value] : values_) oids.push_back(oid);
    std::stable_sort(oids.begin(), oids.end(), [this](ObjectId a, ObjectId b) {
      return values_.at(a) < values_.at(b);
    });
    return oids;
  }

 private:
  OrderedSequence seq_;
  std::map<ObjectId, double> values_;
};

TEST(OrderedSequenceTest, InsertMaintainsSortedOrder) {
  Harness h;
  h.Insert(1, 5.0);
  h.Insert(2, 1.0);
  h.Insert(3, 3.0);
  h.Insert(4, 10.0);
  EXPECT_EQ(h.seq().ToVector(), (std::vector<ObjectId>{2, 3, 1, 4}));
  h.seq().CheckInvariants();
}

TEST(OrderedSequenceTest, NeighborsAndEnds) {
  Harness h;
  h.Insert(1, 1.0);
  h.Insert(2, 2.0);
  h.Insert(3, 3.0);
  EXPECT_EQ(h.seq().Front(), 1);
  EXPECT_EQ(h.seq().Back(), 3);
  EXPECT_EQ(h.seq().Prev(1), std::nullopt);
  EXPECT_EQ(*h.seq().Next(1), 2);
  EXPECT_EQ(*h.seq().Prev(3), 2);
  EXPECT_EQ(h.seq().Next(3), std::nullopt);
}

TEST(OrderedSequenceTest, RankAndAt) {
  Harness h;
  for (int i = 0; i < 10; ++i) h.Insert(i, static_cast<double>(9 - i));
  // Values descending by oid: order is 9, 8, ..., 0.
  for (size_t rank = 0; rank < 10; ++rank) {
    EXPECT_EQ(h.seq().At(rank), static_cast<ObjectId>(9 - rank));
    EXPECT_EQ(h.seq().Rank(static_cast<ObjectId>(9 - rank)), rank);
  }
}

TEST(OrderedSequenceTest, EraseRelinksNeighbors) {
  Harness h;
  h.Insert(1, 1.0);
  h.Insert(2, 2.0);
  h.Insert(3, 3.0);
  h.Erase(2);
  EXPECT_EQ(*h.seq().Next(1), 3);
  EXPECT_EQ(*h.seq().Prev(3), 1);
  EXPECT_FALSE(h.seq().Contains(2));
  h.seq().CheckInvariants();
}

TEST(OrderedSequenceTest, SlotNeighborsAndSlotOrder) {
  Harness h;
  h.Insert(1, 1.0);
  h.Insert(2, 2.0);
  h.Insert(3, 3.0);
  const OrderedSequence& seq = h.seq();
  EXPECT_EQ(seq.PrevSlot(h.SlotOf(1)), OrderedSequence::kNoSlot);
  EXPECT_EQ(seq.NextSlot(h.SlotOf(1)), h.SlotOf(2));
  EXPECT_EQ(seq.PrevSlot(h.SlotOf(3)), h.SlotOf(2));
  EXPECT_EQ(seq.NextSlot(h.SlotOf(3)), OrderedSequence::kNoSlot);
  EXPECT_EQ(seq.ToSlots(), (std::vector<OrderedSequence::Slot>{
                               h.SlotOf(1), h.SlotOf(2), h.SlotOf(3)}));
  EXPECT_EQ(seq.FindSlot(2), h.SlotOf(2));
  EXPECT_EQ(seq.FindSlot(4), OrderedSequence::kNoSlot);
}

TEST(OrderedSequenceTest, SwapAdjacentExchangesPositions) {
  Harness h;
  h.Insert(1, 1.0);
  h.Insert(2, 2.0);
  h.Insert(3, 3.0);
  const OrderedSequence::Slot two = h.SlotOf(2);
  const OrderedSequence::Slot three = h.SlotOf(3);
  h.seq().SwapAdjacent(two, three);
  EXPECT_EQ(h.seq().ToVector(), (std::vector<ObjectId>{1, 3, 2}));
  EXPECT_EQ(h.seq().Rank(3), 1u);
  EXPECT_EQ(h.seq().Rank(2), 2u);
  EXPECT_EQ(*h.seq().Next(1), 3);
  // Each resident keeps its slot; the slot neighbours follow the order.
  EXPECT_EQ(h.SlotOf(2), two);
  EXPECT_EQ(h.SlotOf(3), three);
  EXPECT_EQ(h.seq().NextSlot(h.SlotOf(1)), three);
  EXPECT_EQ(h.seq().NextSlot(three), two);
  EXPECT_EQ(h.seq().PrevSlot(two), three);
  h.seq().CheckInvariants();
}

TEST(OrderedSequenceTest, SwapNonAdjacentDies) {
  Harness h;
  h.Insert(1, 1.0);
  h.Insert(2, 2.0);
  h.Insert(3, 3.0);
  h.Insert(4, 4.0);
  EXPECT_DEATH(h.seq().SwapAdjacent(h.SlotOf(1), h.SlotOf(3)), "non-adjacent");
  EXPECT_DEATH(h.seq().SwapAdjacent(h.SlotOf(2), h.SlotOf(1)), "non-adjacent");
  // A freed slot holds nobody, so it is adjacent to nothing.
  const OrderedSequence::Slot freed = h.SlotOf(4);
  h.Erase(4);
  EXPECT_DEATH(h.seq().SwapAdjacent(h.SlotOf(3), freed), "non-adjacent");
  EXPECT_DEATH(h.seq().SwapAdjacent(freed, h.SlotOf(1)), "non-adjacent");
}

TEST(OrderedSequenceTest, DuplicateInsertDies) {
  Harness h;
  h.Insert(1, 1.0);
  EXPECT_DEATH(
      h.seq().Insert(1, 2.0, [](OrderedSequence::Slot) { return 0.0; }),
      "duplicate");
}

TEST(OrderedSequenceTest, TiesInsertAfterEquals) {
  Harness h;
  h.Insert(1, 5.0);
  h.Insert(2, 5.0);
  h.Insert(3, 5.0);
  EXPECT_EQ(h.seq().ToVector(), (std::vector<ObjectId>{1, 2, 3}));
}

TEST(OrderedSequenceTest, RandomizedAgainstReference) {
  Rng rng(1234);
  Harness h;
  std::vector<ObjectId> present;
  ObjectId next_oid = 0;
  for (int step = 0; step < 3000; ++step) {
    const double dice = rng.Uniform(0.0, 1.0);
    if (present.empty() || dice < 0.5) {
      const ObjectId oid = next_oid++;
      h.Insert(oid, rng.Uniform(-100.0, 100.0));
      present.push_back(oid);
    } else if (dice < 0.8) {
      const size_t idx = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(present.size()) - 1));
      h.Erase(present[idx]);
      present.erase(present.begin() + static_cast<ptrdiff_t>(idx));
    } else {
      // Rank / At spot checks.
      const size_t idx = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(present.size()) - 1));
      const ObjectId oid = present[idx];
      EXPECT_EQ(h.seq().At(h.seq().Rank(oid)), oid);
    }
    if (step % 250 == 0) {
      h.seq().CheckInvariants();
      EXPECT_EQ(h.seq().ToVector(), h.Expected());
    }
  }
  h.seq().CheckInvariants();
  EXPECT_EQ(h.seq().ToVector(), h.Expected());
}

TEST(OrderedSequenceTest, RandomizedAdjacentSwapsKeepStructure) {
  Rng rng(99);
  Harness h;
  for (int i = 0; i < 64; ++i) h.Insert(i, static_cast<double>(i));
  std::vector<ObjectId> reference = h.seq().ToVector();
  for (int step = 0; step < 2000; ++step) {
    const size_t idx = static_cast<size_t>(rng.UniformInt(0, 62));
    const ObjectId left = reference[idx];
    const ObjectId right = reference[idx + 1];
    h.seq().SwapAdjacent(h.SlotOf(left), h.SlotOf(right));
    std::swap(reference[idx], reference[idx + 1]);
    if (step % 200 == 0) {
      EXPECT_EQ(h.seq().ToVector(), reference);
      h.seq().CheckInvariants();
      // Neighbor pointers agree with the reference order.
      for (size_t i = 0; i + 1 < reference.size(); ++i) {
        EXPECT_EQ(*h.seq().Next(reference[i]), reference[i + 1]);
        EXPECT_EQ(h.seq().NextSlot(h.SlotOf(reference[i])),
                  h.SlotOf(reference[i + 1]));
      }
    }
  }
}

// The slot links under every mutator: after each step of a random mix of
// Insert, Erase, SwapAdjacent and AssignSorted, walking NextSlot from the
// front and PrevSlot from the back both give the expected order and
// ToSlots(). Values are kept distinct and in order (a swap exchanges its
// pair's values, an AssignSorted renumbers them), so the expected order is
// the harness's sort by value.
TEST(OrderedSequenceTest, SlotLinksFollowEveryMutator) {
  Rng rng(2718);
  Harness h;
  ObjectId next_oid = 0;
  auto value_of = [&h](ObjectId oid) { return h.values().at(oid); };
  for (int step = 0; step < 3000; ++step) {
    const double dice = rng.Uniform(0.0, 1.0);
    const std::vector<ObjectId> order = h.Expected();
    if (order.size() < 2 || dice < 0.35) {
      h.Insert(next_oid++, rng.Uniform(-1000.0, 1000.0));
    } else if (dice < 0.55) {
      h.Erase(order[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(order.size()) - 1))]);
    } else if (dice < 0.97) {
      const size_t i = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(order.size()) - 2));
      const ObjectId left = order[i];
      const ObjectId right = order[i + 1];
      h.seq().SwapAdjacent(h.SlotOf(left), h.SlotOf(right));
      const double left_value = value_of(left);
      h.Revalue(left, value_of(right));
      h.Revalue(right, left_value);
    } else {
      // A shuffled refounding with a few new oids mixed in.
      std::vector<ObjectId> sequence = order;
      for (int k = 0; k < 3; ++k) sequence.push_back(next_oid++);
      for (size_t i = sequence.size(); i > 1; --i) {
        std::swap(sequence[i - 1], sequence[static_cast<size_t>(rng.UniformInt(
                                       0, static_cast<int64_t>(i) - 1))]);
      }
      h.seq().AssignSorted(sequence);
      for (size_t i = 0; i < sequence.size(); ++i) {
        h.Revalue(sequence[i], static_cast<double>(i));
      }
    }
    h.seq().CheckInvariants();
    const std::vector<ObjectId> expected = h.Expected();
    const std::vector<OrderedSequence::Slot> slots = h.seq().ToSlots();
    ASSERT_EQ(slots.size(), expected.size()) << "step " << step;
    std::vector<OrderedSequence::Slot> forward;
    for (OrderedSequence::Slot slot = h.SlotOf(h.seq().Front());
         slot != OrderedSequence::kNoSlot; slot = h.seq().NextSlot(slot)) {
      forward.push_back(slot);
      ASSERT_LE(forward.size(), expected.size()) << "step " << step;
    }
    std::vector<OrderedSequence::Slot> backward;
    for (OrderedSequence::Slot slot = h.SlotOf(h.seq().Back());
         slot != OrderedSequence::kNoSlot; slot = h.seq().PrevSlot(slot)) {
      backward.push_back(slot);
      ASSERT_LE(backward.size(), expected.size()) << "step " << step;
    }
    std::reverse(backward.begin(), backward.end());
    ASSERT_EQ(forward, slots) << "step " << step;
    ASSERT_EQ(backward, slots) << "step " << step;
    for (size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(h.seq().OidOf(slots[i]), expected[i]) << "step " << step;
    }
  }
}

// The flat oid → slot table under heavy collisions: oids clustered in a
// small range (plus negatives and extremes) probe long runs, and random
// erases exercise the backward shift across the table's wraparound.
TEST(OidSlotMapTest, RandomizedAgainstStdMap) {
  Rng rng(4321);
  OidSlotMap map;
  std::map<ObjectId, uint32_t> reference;
  const std::vector<ObjectId> extremes = {
      std::numeric_limits<ObjectId>::min(),
      std::numeric_limits<ObjectId>::max(), -1000000, -1};
  for (int step = 0; step < 20000; ++step) {
    const size_t pick = static_cast<size_t>(rng.UniformInt(0, 3));
    const ObjectId oid = rng.Uniform(0.0, 1.0) < 0.05
                             ? extremes[pick]
                             : rng.UniformInt(-40, 200);
    auto it = reference.find(oid);
    if (it == reference.end()) {
      const uint32_t slot = static_cast<uint32_t>(step);
      map.Insert(oid, slot);
      reference.emplace(oid, slot);
    } else if (rng.Uniform(0.0, 1.0) < 0.6) {
      map.Erase(oid);
      reference.erase(it);
    }
    ASSERT_EQ(map.size(), reference.size());
    if (step % 500 == 0) {
      for (ObjectId probe = -45; probe <= 205; ++probe) {
        auto ref = reference.find(probe);
        ASSERT_EQ(map.Find(probe),
                  ref == reference.end() ? OidSlotMap::kAbsent : ref->second)
            << "oid " << probe << " at step " << step;
      }
      for (ObjectId probe : extremes) {
        auto ref = reference.find(probe);
        ASSERT_EQ(map.Find(probe),
                  ref == reference.end() ? OidSlotMap::kAbsent : ref->second);
      }
    }
  }
}

}  // namespace
}  // namespace modb
