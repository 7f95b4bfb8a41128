#include "trajectory/mod.h"

#include <gtest/gtest.h>

namespace modb {
namespace {

MovingObjectDatabase TwoObjectMod() {
  MovingObjectDatabase mod(/*dim=*/2, /*initial_time=*/0.0);
  EXPECT_TRUE(
      mod.Apply(Update::NewObject(1, 0.0, Vec{0.0, 0.0}, Vec{1.0, 0.0}))
          .ok());
  EXPECT_TRUE(
      mod.Apply(Update::NewObject(2, 1.0, Vec{10.0, 0.0}, Vec{0.0, 1.0}))
          .ok());
  return mod;
}

TEST(ModTest, NewObjects) {
  const MovingObjectDatabase mod = TwoObjectMod();
  EXPECT_EQ(mod.size(), 2u);
  EXPECT_DOUBLE_EQ(mod.last_update_time(), 1.0);
  ASSERT_NE(mod.Find(1), nullptr);
  ASSERT_NE(mod.Find(2), nullptr);
  EXPECT_EQ(mod.Find(3), nullptr);
  EXPECT_TRUE(mod.Find(1)->PositionAt(2.0).AlmostEquals(Vec{2.0, 0.0}));
}

TEST(ModTest, NewDuplicateOidRejected) {
  MovingObjectDatabase mod = TwoObjectMod();
  const Status status =
      mod.Apply(Update::NewObject(1, 2.0, Vec{0.0, 0.0}, Vec{0.0, 0.0}));
  EXPECT_EQ(status.code(), StatusCode::kAlreadyExists);
  // Failed updates leave the MOD untouched.
  EXPECT_DOUBLE_EQ(mod.last_update_time(), 1.0);
}

TEST(ModTest, NewObjectGlobalForm) {
  MovingObjectDatabase mod(/*dim=*/1, 0.0);
  // new(o, 2, A=(3), B=(5)): x = 3t + 5 from t=2, so position 11 at t=2.
  ASSERT_TRUE(
      mod.Apply(Update::NewObjectGlobal(9, 2.0, Vec{3.0}, Vec{5.0})).ok());
  EXPECT_TRUE(mod.Find(9)->PositionAt(2.0).AlmostEquals(Vec{11.0}));
  EXPECT_TRUE(mod.Find(9)->PositionAt(4.0).AlmostEquals(Vec{17.0}));
}

TEST(ModTest, ChronologicalOrderEnforced) {
  MovingObjectDatabase mod = TwoObjectMod();
  const Status status = mod.Apply(Update::ChangeDirection(1, 0.5, Vec{0.0, 0.0}));
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

TEST(ModTest, SimultaneousUpdatesToDistinctObjectsAllowed) {
  MovingObjectDatabase mod = TwoObjectMod();
  EXPECT_TRUE(mod.Apply(Update::ChangeDirection(1, 1.0, Vec{0.0, 1.0})).ok());
  EXPECT_TRUE(mod.Apply(Update::ChangeDirection(2, 1.0, Vec{1.0, 0.0})).ok());
}

TEST(ModTest, ChdirKeepsPositionContinuous) {
  MovingObjectDatabase mod = TwoObjectMod();
  ASSERT_TRUE(mod.Apply(Update::ChangeDirection(1, 5.0, Vec{0.0, 2.0})).ok());
  const Trajectory* t = mod.Find(1);
  EXPECT_TRUE(t->PositionAt(5.0).AlmostEquals(Vec{5.0, 0.0}));
  EXPECT_TRUE(t->PositionAt(6.0).AlmostEquals(Vec{5.0, 2.0}));
  EXPECT_TRUE(t->Validate().ok());
}

TEST(ModTest, ChdirUnknownOid) {
  MovingObjectDatabase mod = TwoObjectMod();
  EXPECT_EQ(mod.Apply(Update::ChangeDirection(77, 5.0, Vec{0.0, 0.0})).code(),
            StatusCode::kNotFound);
}

TEST(ModTest, ChdirAfterTerminationRejected) {
  MovingObjectDatabase mod = TwoObjectMod();
  ASSERT_TRUE(mod.Apply(Update::TerminateObject(1, 5.0)).ok());
  EXPECT_EQ(mod.Apply(Update::ChangeDirection(1, 6.0, Vec{0.0, 0.0})).code(),
            StatusCode::kOutOfRange);
}

TEST(ModTest, TerminateKeepsObjectForThePast) {
  MovingObjectDatabase mod = TwoObjectMod();
  ASSERT_TRUE(mod.Apply(Update::TerminateObject(1, 5.0)).ok());
  // Definition 3: terminate conjoins t <= τ; the object stays in O.
  EXPECT_TRUE(mod.Contains(1));
  EXPECT_TRUE(mod.Find(1)->DefinedAt(5.0));
  EXPECT_FALSE(mod.Find(1)->DefinedAt(5.1));
  EXPECT_EQ(mod.Apply(Update::TerminateObject(1, 7.0)).code(),
            StatusCode::kFailedPrecondition);
}

TEST(ModTest, AliveAt) {
  MovingObjectDatabase mod = TwoObjectMod();
  ASSERT_TRUE(mod.Apply(Update::TerminateObject(1, 5.0)).ok());
  EXPECT_EQ(mod.AliveAt(0.5), (std::vector<ObjectId>{1}));  // o2 starts at 1.
  EXPECT_EQ(mod.AliveAt(3.0), (std::vector<ObjectId>{1, 2}));
  EXPECT_EQ(mod.AliveAt(6.0), (std::vector<ObjectId>{2}));
}

TEST(ModTest, DimensionMismatchRejected) {
  MovingObjectDatabase mod(/*dim=*/2, 0.0);
  EXPECT_EQ(mod.Apply(Update::NewObject(1, 0.0, Vec{0.0}, Vec{0.0})).code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(
      mod.Apply(Update::NewObject(1, 0.0, Vec{0.0, 0.0}, Vec{1.0, 1.0}))
          .ok());
  EXPECT_EQ(mod.Apply(Update::ChangeDirection(1, 1.0, Vec{1.0})).code(),
            StatusCode::kInvalidArgument);
}

TEST(ModTest, TotalPiecesCountsTurns) {
  MovingObjectDatabase mod = TwoObjectMod();
  EXPECT_EQ(mod.TotalPieces(), 2u);
  ASSERT_TRUE(mod.Apply(Update::ChangeDirection(1, 5.0, Vec{0.0, 1.0})).ok());
  EXPECT_EQ(mod.TotalPieces(), 3u);
}

TEST(ModTest, ApplyAllStopsAtFirstFailure) {
  MovingObjectDatabase mod(/*dim=*/1, 0.0);
  const std::vector<Update> updates = {
      Update::NewObject(1, 1.0, Vec{0.0}, Vec{1.0}),
      Update::TerminateObject(99, 2.0),  // Unknown OID.
      Update::NewObject(2, 3.0, Vec{0.0}, Vec{1.0}),
  };
  EXPECT_EQ(mod.ApplyAll(updates).code(), StatusCode::kNotFound);
  EXPECT_TRUE(mod.Contains(1));
  EXPECT_FALSE(mod.Contains(2));  // Not applied after the failure.
}

TEST(ModTest, UpdateToString) {
  EXPECT_EQ(Update::TerminateObject(3, 1.5).ToString(), "terminate(o3, 1.5)");
  const std::string s =
      Update::ChangeDirection(4, 2.0, Vec{1.0, 0.0}).ToString();
  EXPECT_NE(s.find("chdir(o4, 2"), std::string::npos);
}

}  // namespace
}  // namespace modb
