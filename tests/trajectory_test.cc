#include "trajectory/trajectory.h"

#include <gtest/gtest.h>

#include "workload/scenarios.h"

namespace modb {
namespace {

TEST(TrajectoryTest, LinearBasics) {
  const Trajectory t = Trajectory::Linear(2.0, Vec{1.0, 2.0}, Vec{3.0, -1.0});
  EXPECT_EQ(t.dim(), 2u);
  EXPECT_DOUBLE_EQ(t.start_time(), 2.0);
  EXPECT_EQ(t.end_time(), kInf);
  EXPECT_FALSE(t.terminated());
  EXPECT_TRUE(t.PositionAt(2.0).AlmostEquals(Vec{1.0, 2.0}));
  EXPECT_TRUE(t.PositionAt(4.0).AlmostEquals(Vec{7.0, 0.0}));
  EXPECT_TRUE(t.VelocityAt(100.0).AlmostEquals(Vec{3.0, -1.0}));
  EXPECT_FALSE(t.DefinedAt(1.9));
  EXPECT_TRUE(t.DefinedAt(1e9));
  EXPECT_TRUE(t.Validate().ok());
}

TEST(TrajectoryTest, StationaryPoint) {
  const Trajectory t = Trajectory::Stationary(0.0, Vec{5.0, 5.0});
  EXPECT_TRUE(t.PositionAt(1000.0).AlmostEquals(Vec{5.0, 5.0}));
  EXPECT_TRUE(t.VelocityAt(3.0).AlmostEquals(Vec{0.0, 0.0}));
}

TEST(TrajectoryTest, FromGlobalForm) {
  // x = (2, -1) t + (10, 0) anchored at t = 3.
  const Trajectory t =
      Trajectory::FromGlobalForm(3.0, Vec{2.0, -1.0}, Vec{10.0, 0.0});
  EXPECT_TRUE(t.PositionAt(3.0).AlmostEquals(Vec{16.0, -3.0}));
  EXPECT_TRUE(t.PositionAt(5.0).AlmostEquals(Vec{20.0, -5.0}));
  // GlobalIntercept recovers B.
  EXPECT_TRUE(t.pieces()[0].GlobalIntercept().AlmostEquals(Vec{10.0, 0.0}));
}

TEST(TrajectoryTest, TurnsKeepContinuity) {
  Trajectory t = Trajectory::Linear(0.0, Vec{0.0}, Vec{1.0});
  ASSERT_TRUE(t.AddTurn(5.0, Vec{-2.0}).ok());
  EXPECT_TRUE(t.PositionAt(5.0).AlmostEquals(Vec{5.0}));
  EXPECT_TRUE(t.PositionAt(6.0).AlmostEquals(Vec{3.0}));
  const std::vector<double> turns = t.Turns();
  ASSERT_EQ(turns.size(), 1u);
  EXPECT_DOUBLE_EQ(turns[0], 5.0);
  EXPECT_TRUE(t.Validate().ok());
}

TEST(TrajectoryTest, VelocityAtTurnUsesLaterPiece) {
  Trajectory t = Trajectory::Linear(0.0, Vec{0.0}, Vec{1.0});
  ASSERT_TRUE(t.AddTurn(5.0, Vec{-2.0}).ok());
  EXPECT_TRUE(t.VelocityAt(5.0).AlmostEquals(Vec{-2.0}));
  EXPECT_TRUE(t.VelocityAt(4.999).AlmostEquals(Vec{1.0}));
}

TEST(TrajectoryTest, TurnValidation) {
  Trajectory t = Trajectory::Linear(0.0, Vec{0.0}, Vec{1.0});
  EXPECT_EQ(t.AddTurn(5.0, Vec{1.0, 2.0}).code(),
            StatusCode::kInvalidArgument);  // Dim mismatch.
  ASSERT_TRUE(t.AddTurn(5.0, Vec{2.0}).ok());
  EXPECT_EQ(t.AddTurn(3.0, Vec{1.0}).code(),
            StatusCode::kFailedPrecondition);  // Before last turn.
}

TEST(TrajectoryTest, TurnAtPieceStartReplacesMotion) {
  Trajectory t = Trajectory::Linear(0.0, Vec{0.0}, Vec{1.0});
  // A turn at the exact start replaces the velocity in place.
  ASSERT_TRUE(t.AddTurn(0.0, Vec{3.0}).ok());
  EXPECT_EQ(t.pieces().size(), 1u);
  EXPECT_TRUE(t.PositionAt(2.0).AlmostEquals(Vec{6.0}));
  ASSERT_TRUE(t.AddTurn(5.0, Vec{0.0}).ok());
  ASSERT_TRUE(t.AddTurn(5.0, Vec{-1.0}).ok());  // Replace the new piece too.
  EXPECT_EQ(t.pieces().size(), 2u);
  EXPECT_TRUE(t.PositionAt(6.0).AlmostEquals(Vec{14.0}));
}

TEST(TrajectoryTest, Termination) {
  Trajectory t = Trajectory::Linear(0.0, Vec{0.0}, Vec{1.0});
  ASSERT_TRUE(t.Terminate(10.0).ok());
  EXPECT_TRUE(t.terminated());
  EXPECT_TRUE(t.DefinedAt(10.0));
  EXPECT_FALSE(t.DefinedAt(10.1));
  EXPECT_EQ(t.Terminate(12.0).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(t.AddTurn(5.0, Vec{1.0}).code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(t.Validate().ok());
}

TEST(TrajectoryTest, BoundsOverClipsToWindowAndDomain) {
  // (0,0) east to (10,0) by t=10, north to (10,5) by t=15, ends at t=20.
  Trajectory t = Trajectory::Linear(0.0, Vec{0.0, 0.0}, Vec{1.0, 0.0});
  ASSERT_TRUE(t.AddTurn(10.0, Vec{0.0, 1.0}).ok());
  ASSERT_TRUE(t.AddTurn(15.0, Vec{-1.0, 0.0}).ok());
  ASSERT_TRUE(t.Terminate(20.0).ok());

  // Inside the first piece only.
  WindowBounds b = t.BoundsOver(TimeInterval(2.0, 4.0));
  EXPECT_EQ(b.lo, (Vec{2.0, 0.0}));
  EXPECT_EQ(b.hi, (Vec{4.0, 0.0}));
  // Starting in the middle piece: the first piece is skipped.
  b = t.BoundsOver(TimeInterval(12.0, 17.0));
  EXPECT_EQ(b.lo, (Vec{8.0, 2.0}));
  EXPECT_EQ(b.hi, (Vec{10.0, 5.0}));
  // Past the termination: clipped to the domain.
  b = t.BoundsOver(TimeInterval(18.0, 100.0));
  EXPECT_EQ(b.lo, (Vec{5.0, 5.0}));
  EXPECT_EQ(b.hi, (Vec{7.0, 5.0}));
  // x = 25 - t on the last piece: |B| + |A t| = 25 + 20.
  EXPECT_DOUBLE_EQ(b.scale, 45.0);
  EXPECT_TRUE(t.BoundsOver(TimeInterval(21.0, 30.0)).empty());

  WindowBounds other = t.BoundsOver(TimeInterval(0.0, 1.0));  // x in [0, 1].
  EXPECT_DOUBLE_EQ(b.SquaredGap(other), 4.0 * 4.0 + 5.0 * 5.0);
  EXPECT_DOUBLE_EQ(other.SquaredGap(b), 4.0 * 4.0 + 5.0 * 5.0);
  EXPECT_EQ(b.SquaredGap(b), 0.0);
}

TEST(TrajectoryTest, CoordinateFunction) {
  Trajectory t = Trajectory::Linear(0.0, Vec{1.0, 10.0}, Vec{2.0, -1.0});
  ASSERT_TRUE(t.AddTurn(4.0, Vec{0.0, 3.0}).ok());
  const PiecewisePoly x0 = t.CoordinateFunction(0);
  const PiecewisePoly x1 = t.CoordinateFunction(1);
  EXPECT_EQ(x0.NumPieces(), 2u);
  for (double time : {0.0, 2.0, 4.0, 7.5}) {
    EXPECT_NEAR(x0.Eval(time), t.PositionAt(time)[0], 1e-12);
    EXPECT_NEAR(x1.Eval(time), t.PositionAt(time)[1], 1e-12);
  }
  EXPECT_TRUE(x0.IsContinuous());
  EXPECT_TRUE(x1.IsContinuous());
}

TEST(TrajectoryTest, Example1AircraftMatchesPaper) {
  const Trajectory aircraft = Example1Aircraft();
  // "turned at time 21 (and at position (2, 2, 30))".
  EXPECT_TRUE(aircraft.PositionAt(21.0).AlmostEquals(Vec{2.0, 2.0, 30.0}));
  // "made another turn at time 22 (and at position (2, 1, 25))".
  EXPECT_TRUE(aircraft.PositionAt(22.0).AlmostEquals(Vec{2.0, 1.0, 25.0}));
  // Start position: (2,-1,0)*0 + (-40,23,30).
  EXPECT_TRUE(aircraft.PositionAt(0.0).AlmostEquals(Vec{-40.0, 23.0, 30.0}));
  EXPECT_TRUE(aircraft.Validate().ok());
  EXPECT_EQ(aircraft.Turns().size(), 2u);
}

TEST(TrajectoryTest, Example2LandingMatchesPaper) {
  Trajectory aircraft = Example1Aircraft();
  const Update landing = Example2Landing(/*oid=*/7);
  ASSERT_TRUE(aircraft.AddTurn(landing.time, landing.velocity).ok());
  // "the airplane o landed at time 47 (and position (14.5, 1, 0))".
  EXPECT_TRUE(aircraft.PositionAt(47.0).AlmostEquals(Vec{14.5, 1.0, 0.0}));
  // "and stayed at the point".
  EXPECT_TRUE(aircraft.PositionAt(100.0).AlmostEquals(Vec{14.5, 1.0, 0.0}));
}

TEST(TrajectoryTest, EqualityOperator) {
  const Trajectory a = Trajectory::Linear(0.0, Vec{1.0}, Vec{2.0});
  Trajectory b = Trajectory::Linear(0.0, Vec{1.0}, Vec{2.0});
  EXPECT_TRUE(a == b);
  ASSERT_TRUE(b.AddTurn(1.0, Vec{0.0}).ok());
  EXPECT_FALSE(a == b);
}

TEST(TrajectoryTest, ValidateRejectsEmptyTrajectory) {
  EXPECT_EQ(Trajectory().Validate().code(), StatusCode::kInvalidArgument);
}

TEST(TrajectoryTest, ToStringMentionsPieces) {
  Trajectory t = Trajectory::Linear(0.0, Vec{0.0}, Vec{1.0});
  ASSERT_TRUE(t.AddTurn(2.0, Vec{0.0}).ok());
  const std::string s = t.ToString();
  EXPECT_NE(s.find("\\/"), std::string::npos);  // Disjunction of pieces.
  EXPECT_NE(s.find("t"), std::string::npos);
}

}  // namespace
}  // namespace modb
