#include "trajectory/serialization.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "gdist/builtin.h"
#include "queries/knn.h"
#include "queries/within.h"
#include "workload/generator.h"
#include "workload/scenarios.h"

namespace modb {
namespace {

// Same bits, not merely equal values: -0.0 == 0.0 would pass operator==.
void ExpectSameBits(double a, double b, const std::string& what) {
  EXPECT_EQ(std::bit_cast<uint64_t>(a), std::bit_cast<uint64_t>(b))
      << what << ": " << a << " vs " << b;
}

// Bit for bit: the codec must reproduce every double exactly.
void ExpectModsEqual(const MovingObjectDatabase& a,
                     const MovingObjectDatabase& b) {
  ASSERT_EQ(a.dim(), b.dim());
  ExpectSameBits(a.last_update_time(), b.last_update_time(), "tau");
  ASSERT_EQ(a.size(), b.size());
  for (const auto& [oid, trajectory] : a.objects()) {
    const Trajectory* other = b.Find(oid);
    ASSERT_NE(other, nullptr) << "missing oid " << oid;
    const std::string where = "oid " + std::to_string(oid);
    ExpectSameBits(trajectory.end_time(), other->end_time(), where + " end");
    ASSERT_EQ(trajectory.pieces().size(), other->pieces().size()) << where;
    for (size_t p = 0; p < trajectory.pieces().size(); ++p) {
      const LinearPiece& x = trajectory.pieces()[p];
      const LinearPiece& y = other->pieces()[p];
      const std::string piece = where + " piece " + std::to_string(p);
      ExpectSameBits(x.start, y.start, piece + " start");
      for (size_t i = 0; i < a.dim(); ++i) {
        ExpectSameBits(x.origin[i], y.origin[i], piece + " origin");
        ExpectSameBits(x.velocity[i], y.velocity[i], piece + " velocity");
      }
    }
  }
}

TEST(SerializationTest, RoundTripSimple) {
  MovingObjectDatabase mod(/*dim=*/2, 0.0);
  ASSERT_TRUE(
      mod.Apply(Update::NewObject(1, 0.0, Vec{1.5, -2.25}, Vec{0.1, 0.2}))
          .ok());
  ASSERT_TRUE(mod.Apply(Update::ChangeDirection(1, 3.0, Vec{-1.0, 0.0})).ok());
  ASSERT_TRUE(
      mod.Apply(Update::NewObject(2, 4.0, Vec{0.0, 0.0}, Vec{5.0, 5.0})).ok());
  ASSERT_TRUE(mod.Apply(Update::TerminateObject(2, 6.0)).ok());

  const StatusOr<MovingObjectDatabase> loaded =
      ModFromString(ModToString(mod));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectModsEqual(mod, *loaded);
}

TEST(SerializationTest, RoundTripExactDoubles) {
  // Awkward values must survive exactly.
  MovingObjectDatabase mod(/*dim=*/1, 0.0);
  ASSERT_TRUE(mod.Apply(Update::NewObject(1, 0.0, Vec{1.0 / 3.0},
                                          Vec{-5.0 / 9.0}))
                  .ok());
  ASSERT_TRUE(
      mod.Apply(Update::ChangeDirection(1, 0.1 + 0.2, Vec{1e-17})).ok());
  const auto loaded = ModFromString(ModToString(mod));
  ASSERT_TRUE(loaded.ok());
  ExpectModsEqual(mod, *loaded);
}

// Each value stands in every field kind: tau, a piece start, an end time,
// an origin and a velocity coordinate.
TEST(SerializationTest, RoundTripEdgeDoublesBitExactly) {
  using Limits = std::numeric_limits<double>;
  const double values[] = {
      Limits::denorm_min(), -Limits::denorm_min(), Limits::max(),
      Limits::lowest(), Limits::min(),
      std::nextafter(Limits::min(), 0.0),  // Largest subnormal.
      -0.0, 0.0, 1.0 / 3.0, 0.1 + 0.2, 0.1,
      std::nextafter(1.0, 2.0),  // 1.0000000000000002: 17 digits.
      2.0 / 3.0, 1e23, 5e-324, 123456789012345680.0};
  for (const double v : values) {
    MovingObjectDatabase mod(/*dim=*/2, /*initial_time=*/v);
    ASSERT_TRUE(mod.Restore(1, Trajectory::Linear(v, Vec{v, -v},
                                                  Vec{v, 1.0 / 3.0}))
                    .ok());
    Trajectory ended = Trajectory::Linear(v, Vec{0.5, v}, Vec{-v, 0.0});
    ASSERT_TRUE(ended.Terminate(v).ok());
    ASSERT_TRUE(mod.Restore(2, std::move(ended)).ok());

    const std::string text = ModToString(mod);
    const StatusOr<MovingObjectDatabase> loaded = ModFromString(text);
    ASSERT_TRUE(loaded.ok()) << v << ": " << loaded.status().ToString();
    ExpectModsEqual(mod, *loaded);
    EXPECT_EQ(ModToString(*loaded), text);
  }
}

// The fixture MOD below, as the max_digits10 iostream writer printed it
// (the snapshot format before std::to_chars) and as the shortest
// round-trip writer prints it now.
MovingObjectDatabase LegacyFixtureMod() {
  using Limits = std::numeric_limits<double>;
  MovingObjectDatabase mod(/*dim=*/2, 0.0);
  EXPECT_TRUE(mod.Apply(Update::NewObject(1, 0.0, Vec{1.0 / 3.0, -2.0 / 3.0},
                                          Vec{0.1, 1e-17}))
                  .ok());
  EXPECT_TRUE(mod.Apply(Update::NewObject(2, 0.1, Vec{-7.0 / 11.0, 1e23},
                                          Vec{5.0 / 9.0, -0.0}))
                  .ok());
  EXPECT_TRUE(mod.Apply(Update::TerminateObject(2, 2.0 / 7.0)).ok());
  EXPECT_TRUE(mod.Apply(Update::ChangeDirection(
                            1, 0.1 + 0.2,
                            Vec{-5.0 / 9.0, std::nextafter(1.0, 2.0)}))
                  .ok());
  EXPECT_TRUE(
      mod.Restore(3, Trajectory::Linear(
                         0.25, Vec{Limits::denorm_min(), Limits::max()},
                         Vec{Limits::lowest(), Limits::min()}))
          .ok());
  return mod;
}

constexpr char kLegacyFixtureText[] =
    "MODB v1 dim=2 tau=0.30000000000000004\n"
    "object 1 end=inf\n"
    "piece 0 0.33333333333333331 -0.66666666666666663 0.10000000000000001 "
    "1.0000000000000001e-17\n"
    "piece 0.30000000000000004 0.36333333333333334 -0.66666666666666663 "
    "-0.55555555555555558 1.0000000000000002\n"
    "object 2 end=0.2857142857142857\n"
    "piece 0.10000000000000001 -0.63636363636363635 9.9999999999999992e+22 "
    "0.55555555555555558 -0\n"
    "object 3 end=inf\n"
    "piece 0.25 4.9406564584124654e-324 1.7976931348623157e+308 "
    "-1.7976931348623157e+308 2.2250738585072014e-308\n"
    "end\n";

constexpr char kShortestFixtureText[] =
    "MODB v1 dim=2 tau=0.30000000000000004\n"
    "object 1 end=inf\n"
    "piece 0 0.3333333333333333 -0.6666666666666666 0.1 1e-17\n"
    "piece 0.30000000000000004 0.36333333333333334 -0.6666666666666666 "
    "-0.5555555555555556 1.0000000000000002\n"
    "object 2 end=0.2857142857142857\n"
    "piece 0.1 -0.6363636363636364 1e+23 0.5555555555555556 -0\n"
    "object 3 end=inf\n"
    "piece 0.25 5e-324 1.7976931348623157e+308 -1.7976931348623157e+308 "
    "2.2250738585072014e-308\n"
    "end\n";

TEST(SerializationTest, WritesShortestRoundTripDigits) {
  EXPECT_EQ(ModToString(LegacyFixtureMod()), kShortestFixtureText);
}

TEST(SerializationTest, LoadsMaxDigits10Files) {
  const MovingObjectDatabase mod = LegacyFixtureMod();
  const StatusOr<MovingObjectDatabase> legacy =
      ModFromString(kLegacyFixtureText);
  ASSERT_TRUE(legacy.ok()) << legacy.status().ToString();
  ExpectModsEqual(mod, *legacy);
  const StatusOr<MovingObjectDatabase> shortest =
      ModFromString(kShortestFixtureText);
  ASSERT_TRUE(shortest.ok()) << shortest.status().ToString();
  ExpectModsEqual(*legacy, *shortest);
  EXPECT_EQ(ModToString(*legacy), ModToString(mod));
}

// strtod took these; std::from_chars does not, in any numeric field. An
// out-of-range value ("1e400") used to read as inf, which an end time
// accepted; an underflow ("1e-400") used to read as 0.
TEST(SerializationTest, RejectsLiteralsFromCharsDoesNotTake) {
  const std::string fields[] = {
      "MODB v1 dim=1 tau=@\nend\n",
      "MODB v1 dim=1 tau=10\nobject 1 end=@\npiece 0 0 1\nend\n",
      "MODB v1 dim=1 tau=10\nobject 1 end=inf\npiece @ 0 1\nend\n",
      "MODB v1 dim=1 tau=10\nobject 1 end=inf\npiece 0 @ 1\nend\n",
      "MODB v1 dim=1 tau=10\nobject 1 end=inf\npiece 0 0 @\nend\n"};
  for (const std::string& field : fields) {
    const size_t at = field.find('@');
    for (const char* literal :
         {"+1", "0x1p3", "0x10", "1e400", "-1e400", "1e-400", "1e", ""}) {
      const std::string text = field.substr(0, at) + literal +
                               field.substr(at + 1);
      EXPECT_EQ(ModFromString(text).status().code(),
                StatusCode::kInvalidArgument)
          << text;
    }
    // The same field with a plain literal parses: the template is valid.
    const std::string plain = field.substr(0, at) + "1" + field.substr(at + 1);
    EXPECT_TRUE(ModFromString(plain).ok()) << plain;
  }
  for (const char* text :
       {"MODB v1 dim=+1 tau=0\nend\n", "MODB v1 dim=0x1 tau=0\nend\n",
        "MODB v1 dim=1 tau=0\nobject +1 end=inf\npiece 0 0 1\nend\n",
        "MODB v1 dim=1 tau=0\nobject 9223372036854775808 end=inf\n"
        "piece 0 0 1\nend\n"}) {
    EXPECT_EQ(ModFromString(text).status().code(),
              StatusCode::kInvalidArgument)
        << text;
  }
}

TEST(SerializationTest, RoundTripRandomHistory) {
  const RandomModOptions options{.num_objects = 25, .dim = 3, .seed = 901};
  const UpdateStreamOptions stream{.count = 100, .seed = 902};
  const MovingObjectDatabase mod = RandomHistoryMod(options, stream);
  const auto loaded = ModFromString(ModToString(mod));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectModsEqual(mod, *loaded);
}

TEST(SerializationTest, RoundTripScenario) {
  const Example12Scenario scenario = MakeExample12Scenario();
  const auto loaded = ModFromString(ModToString(scenario.mod));
  ASSERT_TRUE(loaded.ok());
  ExpectModsEqual(scenario.mod, *loaded);
}

// Bit-identical timelines: a timeline computed on a round-tripped MOD must
// equal the original's exactly — every segment boundary the same double,
// every answer the same set. The text format prints exact doubles, so the
// sweep runs on identical inputs and must take identical decisions; any
// divergence means serialization perturbed a coefficient.
void ExpectTimelinesIdentical(const AnswerTimeline& a,
                              const AnswerTimeline& b) {
  ASSERT_EQ(a.segments().size(), b.segments().size());
  for (size_t i = 0; i < a.segments().size(); ++i) {
    // EXPECT_EQ, not EXPECT_DOUBLE_EQ: the boundaries must be the same
    // bits, not merely close.
    EXPECT_EQ(a.segments()[i].interval.lo, b.segments()[i].interval.lo)
        << "segment " << i;
    EXPECT_EQ(a.segments()[i].interval.hi, b.segments()[i].interval.hi)
        << "segment " << i;
    EXPECT_EQ(a.segments()[i].answer, b.segments()[i].answer)
        << "segment " << i;
  }
}

TEST(SerializationTest, EnginesAnswerBitIdenticallyAfterRoundTrip) {
  for (uint64_t seed : {301u, 302u, 303u, 304u}) {
    const RandomModOptions options{
        .num_objects = 15, .dim = 2, .box_lo = -300.0, .box_hi = 300.0,
        .speed_max = 12.0, .seed = seed};
    const UpdateStreamOptions stream{
        .count = 40, .mean_gap = 0.5, .seed = seed + 1000};
    const MovingObjectDatabase original = RandomHistoryMod(options, stream);

    const StatusOr<MovingObjectDatabase> loaded =
        ModFromString(ModToString(original));
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

    const auto gdist = std::make_shared<SquaredEuclideanGDistance>(
        Trajectory::Stationary(0.0, Vec{0.0, 0.0}));
    const TimeInterval window(0.0, original.last_update_time() + 5.0);

    ExpectTimelinesIdentical(PastKnn(original, gdist, 3, window),
                             PastKnn(*loaded, gdist, 3, window));
    ExpectTimelinesIdentical(
        PastWithin(original, gdist, 150.0 * 150.0, window),
        PastWithin(*loaded, gdist, 150.0 * 150.0, window));
  }
}

TEST(SerializationTest, RejectsBadMagic) {
  EXPECT_EQ(ModFromString("NOPE v1 dim=2 tau=0\nend\n").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(SerializationTest, RejectsTruncatedInput) {
  MovingObjectDatabase mod(/*dim=*/1, 0.0);
  ASSERT_TRUE(mod.Apply(Update::NewObject(1, 0.0, Vec{1.0}, Vec{2.0})).ok());
  std::string text = ModToString(mod);
  // Drop the trailing "end\n".
  text.resize(text.size() - 4);
  EXPECT_EQ(ModFromString(text).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(SerializationTest, RejectsDiscontinuousPieces) {
  const std::string text =
      "MODB v1 dim=1 tau=10\n"
      "object 1 end=inf\n"
      "piece 0 0 1\n"
      "piece 5 99 1\n"  // Should be at position 5, claims 99.
      "end\n";
  EXPECT_EQ(ModFromString(text).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(SerializationTest, RejectsGarbageNumbers) {
  const std::string text =
      "MODB v1 dim=1 tau=abc\n"
      "end\n";
  EXPECT_EQ(ModFromString(text).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(SerializationTest, RejectsPieceOutsideObject) {
  const std::string text =
      "MODB v1 dim=1 tau=0\n"
      "piece 0 0 1\n"
      "end\n";
  EXPECT_EQ(ModFromString(text).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(SerializationTest, TerminatedObjectsRoundTripExactly) {
  MovingObjectDatabase mod(/*dim=*/2, 0.0);
  ASSERT_TRUE(
      mod.Apply(Update::NewObject(1, 0.0, Vec{0.1, 0.2}, Vec{1.0, -1.0}))
          .ok());
  ASSERT_TRUE(
      mod.Apply(Update::ChangeDirection(1, 1.0 / 7.0, Vec{0.0, 3.0})).ok());
  ASSERT_TRUE(mod.Apply(Update::TerminateObject(1, 2.0 / 7.0)).ok());
  ASSERT_TRUE(
      mod.Apply(Update::NewObject(2, 0.5, Vec{9.0, 9.0}, Vec{0.0, 0.0}))
          .ok());
  const auto loaded = ModFromString(ModToString(mod));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  // The terminated trajectory keeps its exact bounded domain.
  const Trajectory* dead = loaded->Find(1);
  ASSERT_NE(dead, nullptr);
  EXPECT_TRUE(dead->terminated());
  EXPECT_EQ(dead->end_time(), 2.0 / 7.0);  // Same bits.
  EXPECT_EQ(ModToString(*loaded), ModToString(mod));
}

TEST(SerializationTest, RejectsNonFiniteFields) {
  // NaN and inf must never produce a MOD (inf is legal only for end=).
  EXPECT_FALSE(ModFromString("MODB v1 dim=1 tau=nan\nend\n").ok());
  EXPECT_FALSE(ModFromString("MODB v1 dim=1 tau=inf\nend\n").ok());
  EXPECT_FALSE(ModFromString("MODB v1 dim=1 tau=10\n"
                             "object 1 end=nan\npiece 0 0 1\nend\n")
                   .ok());
  EXPECT_FALSE(ModFromString("MODB v1 dim=1 tau=10\n"
                             "object 1 end=inf\npiece nan 0 1\nend\n")
                   .ok());
  EXPECT_FALSE(ModFromString("MODB v1 dim=1 tau=10\n"
                             "object 1 end=inf\npiece 0 inf 1\nend\n")
                   .ok());
  EXPECT_FALSE(ModFromString("MODB v1 dim=1 tau=10\n"
                             "object 1 end=inf\npiece 0 0 -inf\nend\n")
                   .ok());
  // Unbounded lifetime stays legal.
  EXPECT_TRUE(ModFromString("MODB v1 dim=1 tau=10\n"
                            "object 1 end=inf\npiece 0 0 1\nend\n")
                  .ok());
}

TEST(SerializationTest, RejectsAbsurdDimension) {
  // A corrupted dim must fail fast, not allocate gigantic vectors.
  EXPECT_FALSE(ModFromString("MODB v1 dim=999999999 tau=0\nend\n").ok());
  EXPECT_FALSE(ModFromString("MODB v1 dim=4097 tau=0\nend\n").ok());
  EXPECT_TRUE(ModFromString("MODB v1 dim=4096 tau=0\nend\n").ok());
}

// Fuzz: every truncation of a valid serialization either parses (a prefix
// can happen to be well-formed only if it ends at "end") or fails with a
// clean Status — never a crash, never a half-parsed success.
TEST(SerializationFuzzTest, EveryTruncationFailsCleanly) {
  const RandomModOptions options{.num_objects = 6, .dim = 2, .seed = 77};
  const UpdateStreamOptions stream{.count = 20, .seed = 78};
  const MovingObjectDatabase mod = RandomHistoryMod(options, stream);
  const std::string text = ModToString(mod);
  for (size_t len = 0; len < text.size(); ++len) {
    std::string prefix = text.substr(0, len);
    const auto loaded = ModFromString(prefix);
    if (loaded.ok()) {
      // Only a prefix that is itself a complete document (ending at the
      // "end" token, trailing whitespace optional) may parse.
      while (!prefix.empty() && std::isspace(prefix.back())) prefix.pop_back();
      ASSERT_GE(prefix.size(), 3u);
      EXPECT_EQ(prefix.substr(prefix.size() - 3), "end")
          << "prefix length " << len;
    }
  }
}

// Fuzz: flipping bytes anywhere in a valid serialization either still
// parses (some bytes are in numeric positions where the result is another
// valid number) or fails with a clean Status. Either way: no crash, and a
// success must satisfy the format's invariants (checked by re-serializing).
TEST(SerializationFuzzTest, SeededByteCorruptionNeverCrashes) {
  const RandomModOptions options{.num_objects = 5, .dim = 2, .seed = 177};
  const UpdateStreamOptions stream{.count = 15, .seed = 178};
  const MovingObjectDatabase mod = RandomHistoryMod(options, stream);
  const std::string text = ModToString(mod);
  Rng rng(4242);
  for (int trial = 0; trial < 400; ++trial) {
    std::string corrupted = text;
    const size_t flips = static_cast<size_t>(rng.UniformInt(1, 4));
    for (size_t f = 0; f < flips; ++f) {
      const size_t pos = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(corrupted.size()) - 1));
      corrupted[pos] = static_cast<char>(
          corrupted[pos] ^ static_cast<char>(rng.UniformInt(1, 255)));
    }
    const auto loaded = ModFromString(corrupted);
    if (loaded.ok()) {
      // Whatever parsed must itself round-trip.
      const auto again = ModFromString(ModToString(*loaded));
      EXPECT_TRUE(again.ok()) << "corruption produced a one-way MOD";
    } else {
      EXPECT_FALSE(loaded.status().message().empty());
    }
  }
}

TEST(RestoreTest, EnforcesDefinitionTwo) {
  MovingObjectDatabase mod(/*dim=*/1, /*initial_time=*/5.0);
  Trajectory late_turn = Trajectory::Linear(0.0, Vec{0.0}, Vec{1.0});
  ASSERT_TRUE(late_turn.AddTurn(9.0, Vec{0.0}).ok());
  // Turn at 9 > τ = 5: violates Definition 2.
  EXPECT_EQ(mod.Restore(1, late_turn).code(),
            StatusCode::kFailedPrecondition);
  Trajectory ok_turn = Trajectory::Linear(0.0, Vec{0.0}, Vec{1.0});
  ASSERT_TRUE(ok_turn.AddTurn(4.0, Vec{0.0}).ok());
  EXPECT_TRUE(mod.Restore(1, ok_turn).ok());
  EXPECT_EQ(mod.Restore(1, ok_turn).code(), StatusCode::kAlreadyExists);
}

}  // namespace
}  // namespace modb
